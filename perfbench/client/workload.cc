#include "workload.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "load.h"

namespace perfbench {
namespace {

/// splitmix64: the benchmark's own generator, so inputs do not change when
/// the program's random module does.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

/// Zipf(alpha) ranks 1..domain by inverse-CDF lookup, and a seeded
/// bijection from rank to value so the hot values differ per seed.
class ZipfValues {
 public:
  ZipfValues(std::uint64_t domain, double alpha, std::uint64_t seed)
      : domain_(domain), cdf_(domain) {
    double sum = 0.0;
    for (std::uint64_t i = 0; i < domain; ++i) {
      sum += std::pow(static_cast<double>(i + 1), -alpha);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
    Rng rng(seed ^ 0x5a5a5a5aULL);
    multiplier_ = rng.Next() | 1;  // odd: a bijection mod a power of two
    offset_ = rng.Next();
  }

  std::uint64_t SampleRank(Rng& rng) const {
    const double u = rng.Uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint64_t>(
               std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                        static_cast<std::ptrdiff_t>(
                                            domain_ - 1))) +
           1;
  }

  Value ValueOf(std::uint64_t rank) const {
    return static_cast<Value>(
        1 + (((rank - 1) * multiplier_ + offset_) & (domain_ - 1)));
  }

 private:
  std::uint64_t domain_;
  std::vector<double> cdf_;
  std::uint64_t multiplier_ = 1;
  std::uint64_t offset_ = 0;
};

std::vector<Batch> MakeBatches(const ZipfValues& zipf, Rng& rng,
                               std::size_t batches, std::size_t per_batch) {
  std::vector<Batch> out(batches);
  for (Batch& b : out) {
    b.values.resize(per_batch);
    b.body.reserve(per_batch * 8 + 2);
    b.body.push_back('[');
    for (std::size_t i = 0; i < per_batch; ++i) {
      b.values[i] = zipf.ValueOf(zipf.SampleRank(rng));
      if (i > 0) b.body.push_back(',');
      b.body.append(std::to_string(b.values[i]));
    }
    b.body.push_back(']');
    b.wire = PostWire("/ingest", b.body);
  }
  return out;
}

std::string PercentEncode(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
        c == '_' || c == '.' || c == '(' || c == ')' || c == '*') {
      out.push_back(c);
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned char>(c));
      out.append(buf);
    }
  }
  return out;
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

ReadRequest Finish(ReadRequest r) {
  if (r.route == "query") r.target = "/query?q=" + PercentEncode(r.sql);
  r.wire = GetWire(r.target, false);
  r.wire_no_cache = GetWire(r.target, true);
  return r;
}

ReadRequest HotList(std::int64_t k, double beta) {
  ReadRequest r;
  r.route = "hotlist";
  r.k = k;
  r.beta = beta;
  r.target = "/hotlist?k=" + std::to_string(k) + "&beta=" + Fmt(beta);
  return Finish(r);
}

ReadRequest Frequency(Value v) {
  ReadRequest r;
  r.route = "frequency";
  r.value = v;
  r.target = "/frequency?value=" + std::to_string(v);
  return Finish(r);
}

ReadRequest CountWhere(Value low, Value high) {
  ReadRequest r;
  r.route = "count_where";
  r.low = low;
  r.high = high;
  r.target = "/count_where?low=" + std::to_string(low) +
             "&high=" + std::to_string(high);
  return Finish(r);
}

ReadRequest Quantile(double q) {
  ReadRequest r;
  r.route = "quantile";
  r.q = q;
  r.target = "/quantile?q=" + Fmt(q);
  return Finish(r);
}

ReadRequest Distinct() {
  ReadRequest r;
  r.route = "distinct";
  r.target = "/distinct";
  return Finish(r);
}

ReadRequest Query(std::string sql) {
  ReadRequest r;
  r.route = "query";
  r.sql = std::move(sql);
  return Finish(r);
}

/// A range [low, high] with a log-uniform width between 16 values and a
/// quarter of the domain.
std::pair<Value, Value> RandomRange(Rng& rng, std::uint64_t domain) {
  const double lo = std::log(16.0);
  const double hi = std::log(static_cast<double>(domain) / 4.0);
  const auto width = static_cast<std::uint64_t>(
      std::exp(lo + (hi - lo) * rng.Uniform()));
  const std::uint64_t low = 1 + rng.Below(domain - width);
  return {static_cast<Value>(low), static_cast<Value>(low + width - 1)};
}

/// `count` disjoint ranges in [1, domain] with log-uniform widths from 16
/// values to domain / (2 * count), in random positions.  Intervals over
/// disjoint ranges of one sample are close to independent, so their misses
/// can be counted against a binomial.
std::vector<std::pair<Value, Value>> DisjointRanges(Rng& rng,
                                                    std::uint64_t domain,
                                                    std::size_t count) {
  const double lo = std::log(16.0);
  const double hi = std::log(static_cast<double>(domain) /
                             static_cast<double>(2 * count));
  std::vector<std::uint64_t> widths(count);
  std::uint64_t used = 0;
  for (std::uint64_t& w : widths) {
    w = static_cast<std::uint64_t>(std::exp(lo + (hi - lo) * rng.Uniform()));
    used += w;
  }
  // Split the unused part of the domain into count + 1 random gaps.
  std::vector<std::uint64_t> cuts(count);
  for (std::uint64_t& c : cuts) c = rng.Below(domain - used + 1);
  std::sort(cuts.begin(), cuts.end());
  std::vector<std::pair<Value, Value>> out;
  std::uint64_t at = 1;
  std::uint64_t previous_cut = 0;
  for (std::size_t i = 0; i < count; ++i) {
    at += cuts[i] - previous_cut;
    previous_cut = cuts[i];
    out.emplace_back(static_cast<Value>(at),
                     static_cast<Value>(at + widths[i] - 1));
    at += widths[i];
  }
  return out;
}

}  // namespace

Sizes Sizes::Smoke() {
  Sizes s;
  s.stream_batches = 8;
  s.preload_batches = 16;
  s.preload_passes = 1;
  s.read_domain = 1 << 14;
  s.wide_domain = 1 << 18;
  return s;
}

bool IsReadWorkload(Workload w) { return w != Workload::kIngest; }

Inputs GenerateInputs(Workload workload, std::uint64_t seed,
                      const Sizes& sizes) {
  Inputs in;
  in.sizes = sizes;
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 1);
  const bool wide = workload == Workload::kIngest;
  const std::uint64_t domain = wide ? sizes.wide_domain : sizes.read_domain;
  const ZipfValues zipf(domain, wide ? 0.5 : 1.0, rng.Next());

  if (IsReadWorkload(workload)) {
    in.preload = MakeBatches(zipf, rng, sizes.preload_batches,
                             sizes.batch_values);
  }
  if (workload == Workload::kIngest || workload == Workload::kReadWrite) {
    in.stream =
        MakeBatches(zipf, rng, sizes.stream_batches, sizes.batch_values);
  }

  // The timed mix: every read route, bounded and unbounded /query forms.
  const auto hot = [&](std::uint64_t rank) { return zipf.ValueOf(rank); };
  const auto random_value = [&] {
    return zipf.ValueOf(1 + rng.Below(std::min<std::uint64_t>(domain, 4096)));
  };
  in.mix.push_back(HotList(10, 3.0));
  in.mix.push_back(HotList(25, 1.0));
  for (const std::uint64_t rank : {1, 2, 5}) {
    in.mix.push_back(Frequency(hot(rank)));
  }
  for (int i = 0; i < 3; ++i) in.mix.push_back(Frequency(random_value()));
  std::vector<std::pair<Value, Value>> mix_ranges;
  for (int i = 0; i < 6; ++i) {
    mix_ranges.push_back(RandomRange(rng, domain));
    in.mix.push_back(CountWhere(mix_ranges.back().first,
                                mix_ranges.back().second));
  }
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    in.mix.push_back(Quantile(q));
  }
  in.mix.push_back(Distinct());
  const auto between = [](std::pair<Value, Value> r) {
    return " WHERE v BETWEEN " + std::to_string(r.first) + " AND " +
           std::to_string(r.second);
  };
  in.mix.push_back(Query("SELECT APPROX(COUNT(*)) FROM stream" +
                         between(mix_ranges[0])));
  in.mix.push_back(Query("SELECT APPROX(COUNT(*)) FROM stream" +
                         between(mix_ranges[1]) +
                         " ERROR 5% CONFIDENCE 95%"));
  in.mix.push_back(Query("SELECT APPROX(TOP(10)) FROM stream"));
  in.mix.push_back(Query("SELECT APPROX(FREQUENCY(" +
                         std::to_string(hot(3)) + ")) FROM stream ERROR 10%"));
  in.mix.push_back(
      Query("SELECT APPROX(QUANTILE(0.9)) FROM stream WITHIN 10ms"));
  in.mix.push_back(Query("SELECT APPROX(MEDIAN) FROM stream"));
  in.mix.push_back(Query("SELECT APPROX(COUNT(DISTINCT v)) FROM stream"));
  for (ReadRequest& r : in.mix) {
    if (r.route == "query") {
      // Parameters for the checks, mirrored from the statement.
      if (r.sql.find("COUNT(*)") != std::string::npos) {
        const auto& range = r.sql.find("ERROR") == std::string::npos
                                ? mix_ranges[0]
                                : mix_ranges[1];
        r.low = range.first;
        r.high = range.second;
      } else if (r.sql.find("FREQUENCY") != std::string::npos) {
        r.value = hot(3);
      } else if (r.sql.find("QUANTILE(0.9)") != std::string::npos) {
        r.q = 0.9;
      } else if (r.sql.find("TOP(10)") != std::string::npos) {
        r.k = 10;
      }
    }
  }

  // Check-phase requests: enough answers per kind for a coverage rate.
  for (const auto& [low, high] :
       DisjointRanges(rng, domain, sizes.coverage_ranges)) {
    in.coverage.push_back(CountWhere(low, high));
  }
  for (std::size_t i = 0; i < sizes.coverage_values; ++i) {
    const std::uint64_t rank =
        i % 2 == 0 ? 1 + i / 2
                   : 1 + rng.Below(std::min<std::uint64_t>(domain, 4096));
    in.coverage.push_back(Frequency(zipf.ValueOf(rank)));
  }
  for (int i = 1; i <= 19; ++i) in.coverage.push_back(Quantile(i * 0.05));
  in.coverage.push_back(HotList(20, 3.0));
  in.coverage.push_back(HotList(0, 3.0));
  return in;
}

void ExactModel::Add(std::span<const Value> values, std::int64_t times) {
  if (times <= 0) return;
  for (const Value v : values) acc_[v] += times;
  total_ += static_cast<std::int64_t>(values.size()) * times;
}

void ExactModel::Finish() {
  std::vector<std::pair<Value, std::int64_t>> sorted(acc_.begin(),
                                                     acc_.end());
  acc_.clear();
  std::sort(sorted.begin(), sorted.end());
  values_.resize(sorted.size());
  prefix_.assign(sorted.size() + 1, 0);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    values_[i] = sorted[i].first;
    prefix_[i + 1] = prefix_[i] + sorted[i].second;
  }
  by_count_.resize(sorted.size());
  for (std::size_t i = 0; i < by_count_.size(); ++i) by_count_[i] = i;
  std::sort(by_count_.begin(), by_count_.end(),
            [&](std::size_t a, std::size_t b) {
              const std::int64_t ca = prefix_[a + 1] - prefix_[a];
              const std::int64_t cb = prefix_[b + 1] - prefix_[b];
              return ca != cb ? ca > cb : values_[a] < values_[b];
            });
}

std::int64_t ExactModel::Count(Value v) const {
  const auto it = std::lower_bound(values_.begin(), values_.end(), v);
  if (it == values_.end() || *it != v) return 0;
  const std::size_t i = static_cast<std::size_t>(it - values_.begin());
  return prefix_[i + 1] - prefix_[i];
}

std::int64_t ExactModel::CountRange(Value low, Value high) const {
  if (high < low) return 0;
  const auto a = std::lower_bound(values_.begin(), values_.end(), low);
  const auto b = std::upper_bound(values_.begin(), values_.end(), high);
  return prefix_[static_cast<std::size_t>(b - values_.begin())] -
         prefix_[static_cast<std::size_t>(a - values_.begin())];
}

Value ExactModel::Quantile(double q) const {
  if (values_.empty()) return 0;
  const double target = std::max(1.0, std::ceil(q * static_cast<double>(total_)));
  const auto it = std::lower_bound(prefix_.begin() + 1, prefix_.end(),
                                   static_cast<std::int64_t>(target));
  const std::size_t i = std::min<std::size_t>(
      static_cast<std::size_t>(it - (prefix_.begin() + 1)),
      values_.size() - 1);
  return values_[i];
}

std::vector<std::pair<Value, std::int64_t>> ExactModel::Top(
    std::size_t n) const {
  std::vector<std::pair<Value, std::int64_t>> out;
  for (std::size_t i = 0; i < n && i < by_count_.size(); ++i) {
    const std::size_t j = by_count_[i];
    out.emplace_back(values_[j], prefix_[j + 1] - prefix_[j]);
  }
  return out;
}

}  // namespace perfbench
