// perf_client: runs one benchmark workload against a fresh aqua_serve child
// and prints its metrics, the operations attempted and failed, and the
// correctness checks.  The last line of stdout is the result as JSON.
//
//   perf_client --server PATH --out DIR --workload NAME --seed N
//               --seconds S --trace 0|1 [--smoke] [--selftest]
//
// Load comes from this one process over at most two connections, each
// with one request in flight (closed loops) or one fixed-size burst in
// flight (the pipelined capacity phase).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "checks.h"
#include "layers.h"
#include "load.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string server;
  std::string out_dir;
  Workload workload = Workload::kIngest;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (arg == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (v == nullptr) return false;
    ++i;
    if (arg == "--server") {
      a->server = v;
    } else if (arg == "--out") {
      a->out_dir = v;
    } else if (arg == "--workload") {
      a->workload_name = v;
      if (a->workload_name == "ingest") {
        a->workload = Workload::kIngest;
      } else if (a->workload_name == "read_cached") {
        a->workload = Workload::kReadCached;
      } else if (a->workload_name == "read_uncached") {
        a->workload = Workload::kReadUncached;
      } else if (a->workload_name == "read_write") {
        a->workload = Workload::kReadWrite;
      } else {
        return false;
      }
    } else if (arg == "--seed") {
      const std::string_view s(v);
      if (std::from_chars(s.data(), s.data() + s.size(), a->seed).ec !=
          std::errc()) {
        return false;
      }
    } else if (arg == "--seconds") {
      a->seconds = std::atof(v);
      if (!(a->seconds > 0 && a->seconds <= 60)) return false;
    } else if (arg == "--trace") {
      a->trace = std::string_view(v) == "1";
    } else {
      return false;
    }
  }
  return !a->server.empty() && !a->out_dir.empty() &&
         !a->workload_name.empty();
}

/// One completed operation: when it ended, how long it took, and how many
/// units (values for /ingest, requests for reads) it carried.
struct Sample {
  std::int64_t end_ns = 0;
  std::int64_t latency_ns = 0;
  std::int32_t units = 1;
};

/// Nearest-rank percentile of sorted ns samples, in µs.
double PercentileUs(const std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]) /
         1e3;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Nearest-rank quantile of `v`.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// A phase's figures taken per window and reported as the quartile of the
/// windows on the fast side: the upper quartile of rates, the lower
/// quartile of latencies.  The host's speed switches between spells of
/// several seconds about 1.7x apart; this reads the code at the host's
/// fast speed whenever a quarter of the phase ran at it.
struct Windowed {
  double rate = 0;  // units per second
  double p50_us = 0;
  double p99_us = 0;
  std::size_t windows = 0;
  std::size_t samples = 0;
  /// Fewest samples beyond the p99 in any window.
  std::size_t min_beyond_p99 = 0;
};

/// `windows` holds [start, end) spans; a sample belongs to the window its
/// operation ended in.
Windowed ByWindow(std::vector<Sample> samples,
                  const std::vector<std::pair<std::int64_t, std::int64_t>>&
                      windows) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.end_ns < b.end_ns; });
  Windowed w;
  std::vector<double> rates, p50, p99;
  std::vector<std::int64_t> lat;
  w.min_beyond_p99 = SIZE_MAX;
  for (const auto& [start, end] : windows) {
    lat.clear();
    double units = 0;
    auto it = std::lower_bound(
        samples.begin(), samples.end(), start,
        [](const Sample& s, std::int64_t t) { return s.end_ns < t; });
    for (; it != samples.end() && it->end_ns < end; ++it) {
      units += it->units;
      if (it->latency_ns > 0) lat.push_back(it->latency_ns);
    }
    if (end <= start) continue;
    rates.push_back(units * 1e9 / static_cast<double>(end - start));
    if (!lat.empty()) {
      std::sort(lat.begin(), lat.end());
      p50.push_back(PercentileUs(lat, 0.50));
      p99.push_back(PercentileUs(lat, 0.99));
      w.samples += lat.size();
      w.min_beyond_p99 = std::min(w.min_beyond_p99, lat.size() / 100);
    }
  }
  w.windows = rates.size();
  w.rate = Quantile(rates, 0.75);
  w.p50_us = Quantile(p50, 0.25);
  w.p99_us = Quantile(p99, 0.25);
  if (w.min_beyond_p99 == SIZE_MAX) w.min_beyond_p99 = 0;
  return w;
}

/// Splits [start, end) into windows of about `window_ns`.
std::vector<std::pair<std::int64_t, std::int64_t>> Split(std::int64_t start,
                                                         std::int64_t end,
                                                         std::int64_t window_ns) {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  const std::int64_t n = std::max<std::int64_t>(1, (end - start) / window_ns);
  for (std::int64_t i = 0; i < n; ++i) {
    out.emplace_back(start + (end - start) * i / n,
                     start + (end - start) * (i + 1) / n);
  }
  return out;
}

/// The `"response_ns":N` field of an answer, or -1.
std::int64_t ResponseNs(std::string_view body) {
  constexpr std::string_view kKey = "\"response_ns\":";
  const std::size_t at = body.rfind(kKey);
  if (at == std::string_view::npos) return -1;
  std::int64_t n = -1;
  std::from_chars(body.data() + at + kKey.size(), body.data() + body.size(),
                  n);
  return n;
}

/// One closed-loop /ingest connection.
struct IngestStream {
  std::int64_t requests = 0;
  std::int64_t failed = 0;
  std::int64_t values = 0;
  std::vector<Sample> samples;
  std::vector<std::int32_t> ingested;
  std::vector<std::int32_t> expected;
  std::vector<std::int64_t> sends;  // per batch index
};

/// POSTs batches first, first + stride, ... (cycling) until `deadline_ns`
/// or `stop`, one request in flight.
void RunIngestStream(std::uint16_t port, const std::vector<Batch>& batches,
                     std::size_t first, std::size_t stride,
                     std::int64_t deadline_ns, const std::atomic<bool>* stop,
                     IngestStream* out) {
  out->sends.assign(batches.size(), 0);
  out->samples.reserve(1 << 16);
  Conn conn(port);
  std::size_t i = first;
  while (NowNs() < deadline_ns &&
         (stop == nullptr || !stop->load(std::memory_order_relaxed))) {
    const Batch& b = batches[i];
    std::string_view body;
    const std::int64_t t0 = NowNs();
    const int status = conn.ok() ? conn.RoundTrip(b.wire, &body) : 0;
    const std::int64_t t1 = NowNs();
    ++out->requests;
    ++out->sends[i];
    if (status != 200) {
      ++out->failed;
      if (status == 0) break;  // the connection is gone
    } else {
      out->samples.push_back(
          {t1, t1 - t0, static_cast<std::int32_t>(b.values.size())});
      out->values += static_cast<std::int64_t>(b.values.size());
      out->ingested.push_back(IngestedField(body));
      out->expected.push_back(static_cast<std::int32_t>(b.values.size()));
    }
    i = (i + stride) % batches.size();
  }
}

struct ReadPhase {
  std::int64_t requests = 0;
  std::int64_t failed = 0;
  std::int64_t end_ns = 0;
  std::vector<Sample> samples;
  /// response_ns per route (traced runs only).
  std::map<std::string, std::vector<double>> response_ns;
};

/// Whole rounds of the mix, one request in flight, until `deadline_ns` or
/// `stop`.
void RunReader(Conn& conn, const std::vector<ReadRequest>& mix,
               bool no_cache, bool trace, std::int64_t deadline_ns,
               const std::atomic<bool>* stop, ReadPhase* out) {
  out->samples.reserve(1 << 20);
  do {
    for (const ReadRequest& r : mix) {
      std::string_view body;
      const std::int64_t t0 = NowNs();
      const int status =
          conn.RoundTrip(no_cache ? r.wire_no_cache : r.wire, &body);
      const std::int64_t t1 = NowNs();
      ++out->requests;
      if (status != 200) {
        ++out->failed;
        continue;
      }
      out->samples.push_back({t1, t1 - t0, 1});
      if (trace) {
        out->response_ns[r.route].push_back(
            static_cast<double>(ResponseNs(body)));
      }
    }
    out->end_ns = NowNs();
  } while (out->end_ns < deadline_ns &&
           (stop == nullptr || !stop->load(std::memory_order_relaxed)));
}

/// Whole rounds of the mix sent as one pipelined burst, then read back.
void RunPipelined(Conn& conn, const std::vector<ReadRequest>& mix,
                  bool no_cache, std::int64_t deadline_ns, ReadPhase* out) {
  std::string burst;
  for (const ReadRequest& r : mix) {
    burst.append(no_cache ? r.wire_no_cache : r.wire);
  }
  do {
    if (!conn.Send(burst)) {
      out->requests += static_cast<std::int64_t>(mix.size());
      out->failed += static_cast<std::int64_t>(mix.size());
      break;
    }
    std::int32_t ok = 0;
    for (std::size_t i = 0; i < mix.size(); ++i) {
      std::string_view body;
      ++out->requests;
      if (conn.Read(&body) != 200) {
        ++out->failed;
      } else {
        ++ok;
      }
    }
    out->end_ns = NowNs();
    out->samples.push_back({out->end_ns, 0, ok});
  } while (out->end_ns < deadline_ns);
}

struct RunOutput {
  std::string error;  // infrastructure failure: no result is printed
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;
  Observed observed;
  ExactModel exact;
};

void Note(RunOutput* out, const char* fmt, double a = 0, double b = 0,
          double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  out->notes.push_back(buf);
}

constexpr int kTransparencyAttempts = 5;
/// Figures are taken per window of this length (the read workloads
/// alternate latency and capacity windows).  `ingest` uses windows twice as
/// long: at its rate, two 4096-value POSTs in flight, a window then holds
/// over a thousand samples, ten beyond its p99.
constexpr std::int64_t kWindowNs = 1'000'000'000;
constexpr std::chrono::milliseconds kSettleWait{250};
/// The set-up preload lasts well under a second.
constexpr std::int64_t kPreloadWindowNs = 100'000'000;

/// Sends every check-phase GET, then the transparency pairs.
void CheckPhase(Conn& conn, const Inputs& in, Observed* o, ReadPhase* trace) {
  for (const auto* list : {&in.mix, &in.coverage}) {
    for (const ReadRequest& r : *list) {
      std::string_view body;
      Answer a;
      a.request = &r;
      if (conn.RoundTrip(r.wire, &body) != 200 || !ParseJson(body, &a.doc)) {
        ++o->malformed_answers;
        continue;
      }
      if (trace != nullptr) {
        trace->response_ns[r.route].push_back(
            static_cast<double>(ResponseNs(body)));
      }
      o->answers.push_back(std::move(a));
    }
  }
  for (const ReadRequest& r : in.mix) {
    // A bounded statement's synopsis is chosen by measured latency, so a
    // fresh render may legitimately pick another synopsis than the cached
    // one did; transparency is checked on answers fixed by the epoch.
    if (r.sql.find(" ERROR ") != std::string::npos ||
        r.sql.find(" WITHIN ") != std::string::npos) {
      continue;
    }
    // Same epoch on both sides; an epoch advance in between voids the
    // pair, and it is taken again.
    for (int attempt = 0; attempt < kTransparencyAttempts; ++attempt) {
      TransparencyPair p;
      p.request = &r;
      p.epoch_before = ReadStats(conn).epoch;
      std::string_view body;
      // The second GET is a cache hit whenever the first was not.
      if (conn.RoundTrip(r.wire, &body) != 200 ||
          conn.RoundTrip(r.wire, &body) != 200 ||
          !ParseJson(body, &p.cached) ||
          conn.RoundTrip(r.wire_no_cache, &body) != 200 ||
          !ParseJson(body, &p.fresh)) {
        ++o->malformed_answers;
        break;
      }
      p.epoch_after = ReadStats(conn).epoch;
      if (p.epoch_before == p.epoch_after ||
          attempt + 1 == kTransparencyAttempts) {
        o->pairs.push_back(std::move(p));
        break;
      }
    }
  }
}

RunOutput Run(const Args& args, const Inputs& in) {
  RunOutput out;
  Tracer tracer;
  const int root = tracer.Begin("run." + args.workload_name, -1);
  const bool reads = IsReadWorkload(args.workload);
  const bool no_cache = args.workload == Workload::kReadUncached;

  // --- set-up: spawn, preload, settle -----------------------------------
  const int setup_span = tracer.Begin("setup", root);
  const std::int64_t t_spawn = NowNs();
  ServerProcess server;
  std::string error;
  if (!server.Start(args.server,
                    args.out_dir + "/server-" + args.workload_name + ".log",
                    &error)) {
    out.error = error;
    return out;
  }
  Conn control(server.port());
  std::string_view body;
  if (!control.ok() || control.RoundTrip(GetWire("/healthz", false), &body) !=
                           200) {
    out.error = "server not healthy";
    return out;
  }
  Observed& o = out.observed;
  double preload_values_per_s = 0;
  if (reads) {
    const int span = tracer.Begin("setup.preload", setup_span);
    const std::int64_t t0 = NowNs();
    std::vector<Sample> posts;
    for (std::size_t pass = 0; pass < in.sizes.preload_passes; ++pass) {
      for (const Batch& b : in.preload) {
        const std::int64_t sent = NowNs();
        const int status = control.RoundTrip(b.wire, &body);
        if (status != 200) {
          out.error = "preload /ingest failed";
          return out;
        }
        const std::int64_t done = NowNs();
        posts.push_back(
            {done, done - sent, static_cast<std::int32_t>(b.values.size())});
        o.reply_ingested.push_back(IngestedField(body));
        o.reply_expected.push_back(
            static_cast<std::int32_t>(b.values.size()));
        o.values_sent += static_cast<std::int64_t>(b.values.size());
      }
    }
    preload_values_per_s =
        ByWindow(posts, Split(t0, NowNs(), kPreloadWindowNs)).rate;
    tracer.End(span);
    // Settle: one pass of the mix refreshes every snapshot and fills the
    // response cache.
    const int settle = tracer.Begin("setup.settle", setup_span);
    for (const ReadRequest& r : in.mix) {
      if (control.RoundTrip(r.wire, &body) != 200) {
        out.error = "settle GET failed: " + r.target;
        return out;
      }
    }
    tracer.End(settle);
  }
  const double setup_s = static_cast<double>(NowNs() - t_spawn) / 1e9;
  tracer.End(setup_span);

  // --- timed phase ------------------------------------------------------
  const StatsSnapshot before = ReadStats(control);
  const int timed = tracer.Begin("timed", root);
  const auto span_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  double ingest_values_per_s = preload_values_per_s;
  double requests_per_s = 0;
  Windowed latency;
  std::int64_t timed_values = 0;
  ReadPhase reader;  // closed-loop reads (also carries traced response_ns)
  std::vector<IngestStream> streams;

  if (args.workload == Workload::kIngest ||
      args.workload == Workload::kReadWrite) {
    const bool rw = args.workload == Workload::kReadWrite;
    const std::size_t writers = rw ? 1 : 2;
    streams.resize(writers);
    std::atomic<bool> stop{false};
    const std::int64_t start = NowNs();
    const std::int64_t deadline = start + span_ns;
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < writers; ++w) {
      threads.emplace_back(RunIngestStream, server.port(),
                           std::cref(in.stream), w, writers,
                           rw ? INT64_MAX : deadline, &stop, &streams[w]);
    }
    if (rw) {
      Conn conn(server.port());
      RunReader(conn, in.mix, false, args.trace, deadline, nullptr, &reader);
      stop.store(true);
    }
    for (std::thread& t : threads) t.join();
    std::vector<Sample> posts;
    for (const IngestStream& s : streams) {
      timed_values += s.values;
      out.attempted += s.requests;
      out.failed += s.failed;
      posts.insert(posts.end(), s.samples.begin(), s.samples.end());
      o.reply_ingested.insert(o.reply_ingested.end(), s.ingested.begin(),
                              s.ingested.end());
      o.reply_expected.insert(o.reply_expected.end(), s.expected.begin(),
                              s.expected.end());
    }
    o.values_sent += timed_values;
    const auto windows = Split(start, deadline, rw ? kWindowNs : 2 * kWindowNs);
    const Windowed ingest = ByWindow(posts, windows);
    ingest_values_per_s = ingest.rate;
    if (rw) {
      out.attempted += reader.requests;
      out.failed += reader.failed;
      latency = ByWindow(reader.samples, windows);
      requests_per_s = latency.rate;
      Note(&out, "read_write POST /ingest latency p50 %.1f us p99 %.1f us",
           ingest.p50_us, ingest.p99_us);
    } else {
      // Each POST is one request; its latency is the batch's.
      latency = ingest;
      latency.rate = 0;
      for (Sample& s : posts) s.units = 1;
      requests_per_s = ByWindow(posts, windows).rate;
    }
  } else {
    // The span alternates windows one request in flight (latency) with
    // windows of pipelined bursts, one mix round each (capacity), so both
    // see the same host conditions.
    Conn conn(server.port());
    const std::int64_t start = NowNs();
    const auto windows = Split(start, start + span_ns, kWindowNs);
    std::vector<std::pair<std::int64_t, std::int64_t>> latency_windows;
    std::vector<std::pair<std::int64_t, std::int64_t>> capacity_windows;
    ReadPhase pipelined;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const std::int64_t begin = NowNs();
      if (i % 2 == 0) {
        RunReader(conn, in.mix, no_cache, args.trace, windows[i].second,
                  nullptr, &reader);
        latency_windows.emplace_back(begin, reader.end_ns + 1);
      } else {
        RunPipelined(conn, in.mix, no_cache, windows[i].second, &pipelined);
        capacity_windows.emplace_back(begin, pipelined.end_ns + 1);
      }
    }
    out.attempted = reader.requests + pipelined.requests;
    out.failed = reader.failed + pipelined.failed;
    requests_per_s = ByWindow(pipelined.samples, capacity_windows).rate;
    latency = ByWindow(reader.samples, latency_windows);
    Note(&out, "one-in-flight reads %.0f requests/s", latency.rate);
  }
  tracer.End(timed);
  const StatsSnapshot after = ReadStats(control);
  o.stats_inserts = after.inserts;

  // --- checks (untimed) -------------------------------------------------
  const int checks_span = tracer.Begin("checks", root);
  // Past the default --cache-stale-ms the next GET refreshes every
  // snapshot, so the checks see one settled epoch that holds every value
  // sent; cached bytes rendered while ingest was still arriving are not
  // compared against renders made after it stopped.
  std::this_thread::sleep_for(kSettleWait);
  CheckPhase(control, in, &o, args.trace ? &reader : nullptr);
  const double rss_mb = server.PeakRssMb();
  o.server_exit = server.Stop(20.0);
  tracer.End(checks_span);

  for (const Batch& b : in.preload) {
    out.exact.Add(b.values, static_cast<std::int64_t>(in.sizes.preload_passes));
  }
  for (const IngestStream& s : streams) {
    for (std::size_t i = 0; i < in.stream.size(); ++i) {
      out.exact.Add(in.stream[i].values, s.sends[i]);
    }
  }
  // A POST that failed was still counted in sends; nothing failed when the
  // conservation check passes, which is the only case the model serves.
  out.exact.Finish();

  out.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"ingest_values_per_s", ingest_values_per_s, "values/s"},
      {"requests_per_s", requests_per_s, "requests/s"},
      {"latency_p50_us", latency.p50_us, "us"},
      {"latency_p99_us", latency.p99_us, "us"},
      {"server_peak_rss_mb", rss_mb, "MB"},
  };
  Note(&out, "latency samples %.0f in %.0f windows, at least %.0f beyond "
             "p99 in each",
       static_cast<double>(latency.samples),
       static_cast<double>(latency.windows),
       static_cast<double>(latency.min_beyond_p99));
  if (reads && args.workload != Workload::kReadWrite) {
    Note(&out, "ingest_values_per_s here is the set-up preload rate");
  }

  if (args.trace) {
    const int layers = tracer.Begin("layers", root);
    const auto delta = [](std::int64_t a, std::int64_t b) {
      return static_cast<double>(b - a);
    };
    const double requests = delta(before.requests, after.requests);
    const double hits = delta(before.cache_hits, after.cache_hits);
    const double lookups = hits + delta(before.cache_misses, after.cache_misses);
    out.per_layer.push_back(
        {"server.syscalls_per_request",
         requests > 0 ? delta(before.syscalls, after.syscalls) / requests : 0,
         "count"});
    out.per_layer.push_back({"server.cache_hit_ratio",
                             lookups > 0 ? hits / lookups : 0, "ratio"});
    for (const char* kind : {"hotlist", "frequency", "count_where", "quantile",
                             "distinct", "query"}) {
      const auto it = reader.response_ns.find(kind);
      out.per_layer.push_back(
          {std::string("server.handler_ns.") + kind,
           it == reader.response_ns.end() ? 0 : Median(it->second), "ns"});
    }
    out.per_layer.push_back(
        {"concurrency.refreshes_per_mvalue",
         after.inserts > 0 ? static_cast<double>(after.refreshes) * 1e6 /
                                 static_cast<double>(after.inserts)
                           : 0,
         "count"});
    Note(&out, "timed phase: %.0f values ingested, %.0f snapshot refreshes",
         static_cast<double>(timed_values),
         delta(before.refreshes, after.refreshes));
    for (Metric& m : ReplayLayers(args.workload, in, &tracer, layers)) {
      out.per_layer.push_back(std::move(m));
    }
    tracer.End(layers);
  }
  tracer.End(root);
  if (args.trace) {
    tracer.Write(args.out_dir + "/trace-" + args.workload_name + "-" +
                 std::to_string(args.seed) + ".json");
  }
  return out;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perf_client --server PATH --out DIR --workload "
                 "ingest|read_cached|read_uncached|read_write --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--selftest]\n");
    return 2;
  }
  const Inputs inputs = GenerateInputs(
      args.workload, args.seed, args.smoke ? Sizes::Smoke() : Sizes::Full());
  RunOutput out = Run(args, inputs);
  if (!out.error.empty()) {
    std::fprintf(stderr, "perf_client: %s\n", out.error.c_str());
    return 1;
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const Metric& m : out.end_to_end) {
    std::printf("%s%-34s %14.4f %s\n", args.trace ? "traced " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : out.per_layer) {
    std::printf("layer %-44s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& n : out.notes) std::printf("note %s\n", n.c_str());
  std::printf("attempted %lld failed %lld\n",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));

  const std::vector<CheckResult> results =
      RunChecks(out.observed, out.exact);
  bool correct = true;
  for (const CheckResult& c : results) {
    correct = correct && c.passed;
    std::printf("check %-24s %s  %s\n", c.name.c_str(),
                c.passed ? "PASS" : "FAIL", c.detail.c_str());
  }

  if (args.selftest) {
    // Every check must fail on answers made wrong in the way it guards.
    bool selftest_ok = correct;
    for (const std::string& name : CheckNames()) {
      Observed corrupted = out.observed;
      if (!Corrupt(name, &corrupted, out.exact)) {
        std::printf("selftest %-24s n/a (no answer of this kind)\n",
                    name.c_str());
        continue;
      }
      bool caught = false;
      for (const CheckResult& c : RunChecks(corrupted, out.exact)) {
        if (c.name == name) caught = !c.passed;
      }
      selftest_ok = selftest_ok && caught;
      std::printf("selftest %-24s %s\n", name.c_str(),
                  caught ? "caught" : "MISSED");
    }
    std::printf("selftest %s\n", selftest_ok ? "ok" : "FAILED");
    return selftest_ok ? 0 : 1;
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  const std::vector<Metric>& metrics =
      args.trace ? out.per_layer : out.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
