#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <thread>

#include "core/concise_sample.h"
#include "core/counting_sample.h"
#include "load.h"
#include "plan/planner.h"
#include "plan/sql_frontend.h"
#include "sample/reservoir_sample.h"
#include "server/http.h"
#include "server/json.h"
#include "server/response_cache.h"
#include "server/serving_engine.h"
#include "sketch/flajolet_martin.h"

namespace perfbench {
namespace {

/// Each replay repeats its calls until it has run this long, so one slow
/// call cannot dominate.
constexpr std::int64_t kMinReplayNs = 100'000'000;
/// Per-call replays (one call is a few hundred ns to a few µs).
constexpr std::int64_t kMinCallReplayNs = 20'000'000;
/// The serving footprint: ServingEngineOptions' per-synopsis default.
constexpr aqua::Words kFootprint = 4096;
constexpr int kSketchMaps = 64;
/// Staleness steps timed for concurrency.settle_ns.
constexpr std::size_t kSettleSteps = 48;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Runs `round` until kMinReplayNs has passed; returns ns per unit of work,
/// where each round does `units_per_round` units.
template <typename F>
double NsPerUnit(F&& round, double units_per_round) {
  std::int64_t rounds = 0;
  const std::int64_t start = NowNs();
  std::int64_t now = start;
  do {
    round();
    ++rounds;
    now = NowNs();
  } while (now - start < kMinReplayNs);
  return static_cast<double>(now - start) /
         (static_cast<double>(rounds) * units_per_round);
}

/// Median of per-call times of `call`, repeated for kMinCallReplayNs.
template <typename F>
double MedianCallNs(F&& call) {
  std::vector<double> samples;
  const std::int64_t start = NowNs();
  while (NowNs() - start < kMinCallReplayNs) {
    const std::int64_t t0 = NowNs();
    call();
    samples.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(std::move(samples));
}

std::size_t TotalValues(const std::vector<Batch>& batches) {
  std::size_t n = 0;
  for (const Batch& b : batches) n += b.values.size();
  return n;
}

/// ns per value for inserting `data` batch by batch into a fresh
/// instance from `make` (a unique_ptr factory), construction included.
template <typename Make, typename Insert>
double InsertNsPerValue(Make&& make, Insert&& insert,
                        const std::vector<Batch>& data) {
  return NsPerUnit(
      [&] {
        auto synopsis = make();
        for (const Batch& b : data) insert(*synopsis, b.values);
      },
      static_cast<double>(TotalValues(data)));
}

std::unique_ptr<aqua::ServingEngine> NewEngine() {
  return std::make_unique<aqua::ServingEngine>(aqua::ServingEngineOptions{});
}

}  // namespace

int Tracer::Begin(std::string name, int parent) {
  spans_.push_back(Span{std::move(name), NowNs(), 0, parent});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) { spans_[static_cast<std::size_t>(id)].end_ns = NowNs(); }

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::vector<Metric> ReplayLayers(Workload workload, const Inputs& in,
                                 Tracer* tracer, int parent) {
  std::vector<Metric> out;
  // The values the server ingested most: the timed stream when there is
  // one, else the preload.
  const std::vector<Batch>& data = in.stream.empty() ? in.preload : in.stream;
  const std::vector<Batch>& served =
      IsReadWorkload(workload) ? in.preload : in.stream;
  const double data_values = static_cast<double>(TotalValues(data));
  auto layer = [&](const char* name, auto&& body) {
    const int id = tracer->Begin(name, parent);
    body();
    tracer->End(id);
  };

  layer("server.parse_values", [&] {
    std::size_t sink = 0;
    out.push_back({"server.parse_values_ns_per_value",
                   NsPerUnit(
                       [&] {
                         for (const Batch& b : data) {
                           sink += aqua::ParseValueArray(b.body)
                                       .ValueOrDie()
                                       .size();
                         }
                       },
                       data_values),
                   "ns/value"});
    if (sink == 0) std::fprintf(stderr, "empty parse\n");
  });

  // Parsed GET requests of the mix; each parser owns its request's bytes.
  std::vector<aqua::HttpRequestParser> parsers(in.mix.size());
  std::vector<aqua::HttpRequest> requests;
  layer("server.http_parse", [&] {
    aqua::HttpRequestParser parser;
    out.push_back({"server.http_parse_ns",
                   NsPerUnit(
                       [&] {
                         for (const ReadRequest& r : in.mix) {
                           parser.Feed(r.wire);
                           parser.TakeRequest();
                         }
                       },
                       static_cast<double>(in.mix.size())),
                   "ns/request"});
    for (std::size_t i = 0; i < in.mix.size(); ++i) {
      parsers[i].Feed(in.mix[i].wire);
      requests.push_back(parsers[i].TakeRequest());
    }
  });

  layer("server.cache_hit", [&] {
    aqua::ResponseCache cache;
    for (const aqua::HttpRequest& r : requests) {
      const std::string key(cache.BuildKey(r));
      cache.Store("stream", 1, key, "HTTP/1.1 200 OK\r\n\r\n{}");
    }
    std::size_t hits = 0;
    out.push_back({"server.cache_hit_ns",
                   NsPerUnit(
                       [&] {
                         for (const aqua::HttpRequest& r : requests) {
                           hits += cache.Lookup("stream", 1,
                                                cache.BuildKey(r)) != nullptr;
                         }
                       },
                       static_cast<double>(requests.size())),
                   "ns/request"});
    if (hits == 0) std::fprintf(stderr, "response cache never hit\n");
  });

  // The engine as the server holds it once the served values are in.
  aqua::ServingEngine engine{aqua::ServingEngineOptions{}};
  layer("registry.load", [&] {
    for (const Batch& b : served) engine.InsertBatch(b.values);
    engine.SettleCaches();
  });

  layer("plan", [&] {
    std::vector<aqua::ParsedSqlQuery> parsed;
    for (const ReadRequest& r : in.mix) {
      if (r.route != "query") continue;
      aqua::ParsedSqlQuery p;
      if (aqua::ParseSqlQuery(r.sql, &p).ok()) parsed.push_back(p);
    }
    std::vector<double> parse_ns;
    std::vector<double> plan_ns;
    const aqua::QueryContext ctx{engine.observed_inserts()};
    for (const ReadRequest& r : in.mix) {
      if (r.route != "query") continue;
      aqua::ParsedSqlQuery p;
      parse_ns.push_back(
          MedianCallNs([&] { (void)aqua::ParseSqlQuery(r.sql, &p); }));
    }
    for (const aqua::ParsedSqlQuery& p : parsed) {
      plan_ns.push_back(MedianCallNs([&] {
        (void)aqua::PlanQuery(engine.registry(), p.query.kind, p.query.bound,
                              ctx);
      }));
    }
    out.push_back({"plan.parse_ns", Median(parse_ns), "ns"});
    out.push_back({"plan.plan_ns", Median(plan_ns), "ns"});
  });

  layer("registry.answer", [&] {
    std::vector<double> hotlist, frequency, count_where, quantile, distinct;
    aqua::QueryResponse<aqua::HotList> scratch;
    for (const ReadRequest& r : in.mix) {
      if (r.route == "hotlist") {
        aqua::HotListQuery q;
        q.k = r.k;
        q.beta = r.beta;
        hotlist.push_back(
            MedianCallNs([&] { engine.HotListAnswerInto(q, &scratch); }));
      } else if (r.route == "frequency") {
        frequency.push_back(
            MedianCallNs([&] { (void)engine.FrequencyAnswer(r.value); }));
      } else if (r.route == "count_where") {
        const aqua::ValueRange range{r.low, r.high};
        count_where.push_back(
            MedianCallNs([&] { (void)engine.CountWhereAnswer(range); }));
      } else if (r.route == "quantile") {
        quantile.push_back(
            MedianCallNs([&] { (void)engine.QuantileAnswer(r.q); }));
      } else if (r.route == "distinct") {
        distinct.push_back(
            MedianCallNs([&] { (void)engine.DistinctValuesAnswer(); }));
      }
    }
    out.push_back({"registry.answer_ns.hotlist", Median(hotlist), "ns"});
    out.push_back({"registry.answer_ns.frequency", Median(frequency), "ns"});
    out.push_back(
        {"registry.answer_ns.count_where", Median(count_where), "ns"});
    out.push_back({"registry.answer_ns.quantile", Median(quantile), "ns"});
    out.push_back({"registry.answer_ns.distinct", Median(distinct), "ns"});
  });

  const auto batch_insert = [](auto& synopsis,
                                std::span<const aqua::Value> values) {
    synopsis.InsertBatch(values);
  };
  layer("registry.insert_batch", [&] {
    out.push_back({"registry.insert_batch_ns_per_value",
                   InsertNsPerValue(NewEngine, batch_insert, data),
                   "ns/value"});
  });

  layer("registry.insert_batch_2p", [&] {
    // Two producers share one engine, each taking every other batch, as
    // the ingest workload's two connections do.
    out.push_back(
        {"registry.insert_batch_ns_per_value_2p",
         NsPerUnit(
             [&] {
               const auto engine2 = NewEngine();
               std::atomic<bool> go{false};
               auto producer = [&](std::size_t first) {
                 while (!go.load(std::memory_order_acquire)) {
                 }
                 for (std::size_t i = first; i < data.size(); i += 2) {
                   engine2->InsertBatch(data[i].values);
                 }
               };
               std::thread a(producer, 0);
               std::thread b(producer, 1);
               go.store(true, std::memory_order_release);
               a.join();
               b.join();
             },
             data_values),
         "ns/value"});
  });

  layer("core.insert", [&] {
    out.push_back(
        {"core.concise.insert_ns_per_value",
         InsertNsPerValue(
             [] {
               aqua::ConciseSampleOptions o;
               o.footprint_bound = kFootprint;
               return std::make_unique<aqua::ConciseSample>(o);
             },
             batch_insert, data),
         "ns/value"});
    out.push_back(
        {"core.counting.insert_ns_per_value",
         InsertNsPerValue(
             [] {
               aqua::CountingSampleOptions o;
               o.footprint_bound = kFootprint;
               return std::make_unique<aqua::CountingSample>(o);
             },
             batch_insert, data),
         "ns/value"});
    out.push_back(
        {"sample.traditional.insert_ns_per_value",
         InsertNsPerValue(
             [] {
               return std::make_unique<aqua::ReservoirSample>(kFootprint,
                                                              0x5eedULL);
             },
             batch_insert, data),
         "ns/value"});
    out.push_back(
        {"sketch.fm.insert_ns_per_value",
         InsertNsPerValue(
             [] { return std::make_unique<aqua::FlajoletMartin>(kSketchMaps); },
             [](aqua::FlajoletMartin& fm, std::span<const aqua::Value> values) {
               for (const aqua::Value v : values) fm.Insert(v);
             },
             data),
         "ns/value"});
  });

  layer("concurrency.settle", [&] {
    // One refresh per staleness step: the default --cache-stale-ops is
    // 8192 values, two batches.
    const auto engine2 = NewEngine();
    engine2->SettleCaches();
    std::vector<double> settle;
    for (std::size_t i = 0; i + 1 < data.size() && settle.size() < kSettleSteps;
         i += 2) {
      engine2->InsertBatch(data[i].values);
      engine2->InsertBatch(data[i + 1].values);
      const std::int64_t t0 = NowNs();
      engine2->SettleCaches();
      settle.push_back(static_cast<double>(NowNs() - t0));
    }
    out.push_back({"concurrency.settle_ns", Median(settle), "ns"});
  });

  return out;
}

}  // namespace perfbench
