#include "checks.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {
namespace {

constexpr std::string_view kWellFormed = "answers.wellformed";
constexpr std::string_view kConservationInserts = "conservation.inserts";
constexpr std::string_view kConservationReplies = "conservation.replies";
constexpr std::string_view kTheorem6 = "hotlist.theorem6";
constexpr std::string_view kTheorem8 = "hotlist.theorem8";
constexpr std::string_view kOrder = "hotlist.order";
constexpr std::string_view kCoverageCount = "coverage.count_where";
constexpr std::string_view kCoverageFrequency = "coverage.frequency";
constexpr std::string_view kCoverageQuantile = "coverage.quantile";
constexpr std::string_view kCoverageDistinct = "coverage.distinct";
constexpr std::string_view kTransparency = "cache.transparency";
constexpr std::string_view kServerExit = "server.exit";

/// Counting-sample compensation ĉ = τ(1 − 2/e)/(1 − 1/e) − 1 (§5.2), so
/// τ = (ĉ + 1) / 0.41802.
constexpr double kCompensationSlope = 0.41802329;
/// A value's uncounted occurrences before it entered the counting sample
/// are geometric with mean about τ (Theorem 6): more than 10τ has
/// probability below e^-10.  Exact counts further apart than that must be
/// reported in order.
constexpr double kSeparationTaus = 10.0;
constexpr std::size_t kOrderRanks = 64;
/// Coverage misses are allowed up to the 99.9th percentile of
/// Binomial(n, 1 - confidence): a correct method fails this about once in
/// a thousand runs.
constexpr double kCoverageTail = 1e-3;
/// Kinds without enough independent answers for a rate: every quantile of
/// one run comes from one sample, and there is one distinct count.  The
/// exact value must then lie within the answer's 95% interval widened to
/// twice its half-width, a z of 3.9 (two-sided 1e-4).
constexpr std::size_t kMinAnswersForRate = 20;
constexpr double kHalfWidthFactor = 2.0;
/// The normal approximation behind the uniform samples' count intervals
/// claims coverage only with enough hits; the usual condition is np >= 10.
constexpr double kMinSupportHits = 10.0;
/// Fields that time the render rather than describe the answer.
constexpr std::string_view kTimingFields[] = {"response_ns", "predicted_ns",
                                              "met_deadline"};

std::string Format(const char* fmt, double a = 0, double b = 0,
                   double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

/// The kind of estimate an answer holds.
std::string_view KindOf(const Answer& a) {
  if (a.request->route != "query") return a.request->route;
  const Json* kind = a.doc.Get("kind");
  return kind != nullptr ? std::string_view(kind->text) : "";
}

bool IsCountingHotList(const Answer& a) {
  const Json* method = a.doc.Get("method");
  return KindOf(a) == "hotlist" && method != nullptr &&
         method->text == "counting-sample" && a.doc.Get("items") != nullptr;
}

double ExactFor(std::string_view kind, const ReadRequest& r,
                const ExactModel& exact) {
  if (kind == "frequency") return static_cast<double>(exact.Count(r.value));
  if (kind == "count_where") {
    return static_cast<double>(exact.CountRange(r.low, r.high));
  }
  if (kind == "quantile") return static_cast<double>(exact.Quantile(r.q));
  return static_cast<double>(exact.distinct());
}

/// Smallest a with P(Binomial(n, p) > a) <= tail.
std::size_t AllowedMisses(std::size_t n, double p, double tail) {
  double pmf = std::pow(1.0 - p, static_cast<double>(n));
  double cdf = pmf;
  std::size_t a = 0;
  while (1.0 - cdf > tail && a < n) {
    pmf *= static_cast<double>(n - a) / static_cast<double>(a + 1) * p /
           (1.0 - p);
    ++a;
    cdf += pmf;
  }
  return a;
}

CheckResult WellFormed(const Observed& o) {
  CheckResult r{std::string(kWellFormed), false, ""};
  r.passed = !o.answers.empty() && o.malformed_answers == 0;
  r.detail = Format("%.0f check-phase answers, %.0f malformed",
                    static_cast<double>(o.answers.size()),
                    static_cast<double>(o.malformed_answers));
  return r;
}

CheckResult Conservation(const Observed& o) {
  CheckResult r{std::string(kConservationInserts), false, ""};
  r.passed = o.stats_inserts == o.values_sent && o.values_sent > 0;
  r.detail = Format("/stats inserts %.0f, values sent %.0f",
                    static_cast<double>(o.stats_inserts),
                    static_cast<double>(o.values_sent));
  return r;
}

CheckResult Replies(const Observed& o) {
  CheckResult r{std::string(kConservationReplies), false, ""};
  std::size_t bad = 0;
  for (std::size_t i = 0; i < o.reply_ingested.size(); ++i) {
    if (o.reply_ingested[i] != o.reply_expected[i]) ++bad;
  }
  r.passed = !o.reply_ingested.empty() && bad == 0;
  r.detail = Format("%.0f of %.0f /ingest replies disagree with the batch "
                    "length",
                    static_cast<double>(bad),
                    static_cast<double>(o.reply_ingested.size()));
  return r;
}

CheckResult Theorem6(const Observed& o, const ExactModel& exact) {
  CheckResult r{std::string(kTheorem6), false, ""};
  std::size_t items = 0;
  std::size_t bad = 0;
  for (const Answer& a : o.answers) {
    if (!IsCountingHotList(a)) continue;
    for (const Json& item : a.doc.Get("items")->items) {
      ++items;
      const double synopsis = item.Num("synopsis_count", -1);
      const auto value = static_cast<Value>(item.Num("value"));
      if (synopsis < 0 ||
          synopsis > static_cast<double>(exact.Count(value))) {
        ++bad;
      }
    }
  }
  // Vacuous when the counting sample reports nothing, as on a flat stream
  // whose top counts stay below its threshold.
  r.passed = bad == 0;
  r.detail = Format("%.0f of %.0f reported items have synopsis_count above "
                    "the exact count",
                    static_cast<double>(bad), static_cast<double>(items));
  return r;
}

CheckResult Theorem8(const Observed& o) {
  CheckResult r{std::string(kTheorem8), false, ""};
  std::size_t lists = 0;
  std::size_t bad = 0;
  for (const Answer& a : o.answers) {
    if (!IsCountingHotList(a)) continue;
    const auto& items = a.doc.Get("items")->items;
    if (items.empty()) continue;
    ++lists;
    double lo = INFINITY;
    double hi = -INFINITY;
    double scale = 1.0;
    for (const Json& item : items) {
      const double c = item.Num("estimated_count") -
                       item.Num("synopsis_count");
      lo = std::min(lo, c);
      hi = std::max(hi, c);
      scale = std::max(scale, std::fabs(item.Num("estimated_count")));
    }
    if (hi - lo > 1e-9 * scale || lo < 0) ++bad;
  }
  r.passed = bad == 0;
  r.detail = Format("%.0f of %.0f hot lists lack one constant c-hat",
                    static_cast<double>(bad), static_cast<double>(lists));
  return r;
}

/// How many leading exact ranks `a` must report in exact order: those whose
/// counts are more than kSeparationTaus·τ above the next rank's.
std::size_t SeparatedPrefix(
    const Answer& a, const std::vector<std::pair<Value, std::int64_t>>& top) {
  const auto& items = a.doc.Get("items")->items;
  if (items.empty()) return 0;
  const double c_hat =
      items[0].Num("estimated_count") - items[0].Num("synopsis_count");
  const double tau = std::max(1.0, (c_hat + 1.0) / kCompensationSlope);
  std::size_t separated = 0;
  while (separated + 1 < top.size() &&
         static_cast<double>(top[separated].second -
                             top[separated + 1].second) >
             kSeparationTaus * tau) {
    ++separated;
  }
  return std::min(separated, items.size());
}

CheckResult Order(const Observed& o, const ExactModel& exact) {
  CheckResult r{std::string(kOrder), false, ""};
  const auto top = exact.Top(kOrderRanks);
  std::size_t checked = 0;
  std::size_t bad = 0;
  for (const Answer& a : o.answers) {
    if (!IsCountingHotList(a)) continue;
    const auto& items = a.doc.Get("items")->items;
    const std::size_t n = SeparatedPrefix(a, top);
    for (std::size_t i = 0; i < n; ++i) {
      ++checked;
      if (static_cast<Value>(items[i].Num("value")) != top[i].first) ++bad;
    }
  }
  // Vacuous when no counts are separated (a flat stream); the read
  // workloads' Zipf(1.0) streams always separate their top ranks.
  r.passed = bad == 0;
  r.detail = Format("%.0f of %.0f well-separated top positions out of "
                    "exact order",
                    static_cast<double>(bad), static_cast<double>(checked));
  return r;
}

/// True when the answer's interval is the normal approximation to a
/// uniform sample's hit count with fewer than kMinSupportHits hits in the
/// predicate, where that approximation makes no coverage claim.
bool LowSupport(std::string_view kind, const Answer& a,
                const ExactModel& exact) {
  const Json* method = a.doc.Get("method");
  if (method == nullptr || exact.total() == 0 ||
      (kind != "count_where" && kind != "frequency") ||
      (method->text != "concise-sample" &&
       method->text != "traditional-sample")) {
    return false;
  }
  const double hits = a.doc.Num("estimate") /
                      static_cast<double>(exact.total()) *
                      a.doc.Num("sample_points");
  return hits < kMinSupportHits;
}

/// The rule for kinds without a rate: the interval, widened by its own
/// half-width on each side, holds the exact value.  Quantile intervals are
/// measured in rank, where a quantile's error lives: [lo, hi] spans the
/// exact ranks (cum(< lo), cum(<= hi)], so an interval pinned on one heavy
/// value still has the width of that value's run of ranks.
bool WithinWidenedInterval(std::string_view kind, const Answer& a,
                           const ExactModel& exact, double truth) {
  const double lo = a.doc.Num("ci_low");
  const double hi = a.doc.Num("ci_high");
  double low = lo, high = hi, target = truth;
  if (kind == "quantile") {
    const double n = static_cast<double>(std::max<std::int64_t>(1, exact.total()));
    constexpr Value kMin = std::numeric_limits<Value>::min();
    low = static_cast<double>(exact.CountRange(kMin, static_cast<Value>(std::ceil(lo)) - 1)) / n;
    high = static_cast<double>(exact.CountRange(kMin, static_cast<Value>(std::floor(hi)))) / n;
    target = a.request->q;
  }
  const double half = (high - low) / 2;
  const double slack = 1e-9 * std::max(1.0, std::fabs(target));
  return target >= low - (kHalfWidthFactor - 1) * half - slack &&
         target <= high + (kHalfWidthFactor - 1) * half + slack;
}

CheckResult Coverage(std::string_view kind, std::string_view name,
                     const Observed& o, const ExactModel& exact) {
  CheckResult r{std::string(name), false, ""};
  std::size_t n = 0;
  std::size_t misses = 0;
  std::size_t wide_misses = 0;
  std::size_t low_support = 0;
  std::size_t low_support_misses = 0;
  double confidence = 0.95;
  std::string first_miss;
  for (const Answer& a : o.answers) {
    if (KindOf(a) != kind || !a.doc.Has("ci_low")) continue;
    const double truth = ExactFor(kind, *a.request, exact);
    const double lo = a.doc.Num("ci_low");
    const double hi = a.doc.Num("ci_high");
    const double slack = 1e-9 * std::max(1.0, std::fabs(truth));
    const bool miss = truth < lo - slack || truth > hi + slack;
    if (LowSupport(kind, a, exact)) {
      ++low_support;
      low_support_misses += miss;
      continue;
    }
    ++n;
    confidence = a.doc.Num("confidence", 0.95);
    if (miss) {
      if (misses == 0) {
        first_miss = "; first miss " + a.request->target + ": exact " +
                     Format("%.0f outside [%.1f, %.1f]", truth, lo, hi);
      }
      ++misses;
    }
    if (!WithinWidenedInterval(kind, a, exact, truth)) {
      if (wide_misses == 0 && first_miss.empty()) {
        first_miss = "; first miss " + a.request->target + ": exact " +
                     Format("%.0f against [%.1f, %.1f]", truth, lo, hi);
      }
      ++wide_misses;
    }
  }
  const bool rate = (kind == "count_where" || kind == "frequency") &&
                    n >= kMinAnswersForRate;
  if (rate) {
    const std::size_t allowed =
        AllowedMisses(n, 1.0 - confidence, kCoverageTail);
    r.passed = misses <= allowed;
    r.detail = Format("%.0f of %.0f intervals hold the exact value "
                      "(at most %.0f misses allowed)",
                      static_cast<double>(n - misses),
                      static_cast<double>(n), static_cast<double>(allowed)) +
               first_miss;
  } else {
    r.passed = n > 0 && wide_misses == 0;
    r.detail = Format("%.0f of %.0f answers within twice their half-width "
                      "of the exact value",
                      static_cast<double>(n - wide_misses),
                      static_cast<double>(n)) +
               first_miss;
  }
  if (low_support > 0) {
    r.detail += Format("; not gated: %.0f of %.0f low-support intervals "
                       "(under %.0f sample hits) hold the exact value",
                       static_cast<double>(low_support - low_support_misses),
                       static_cast<double>(low_support), kMinSupportHits);
  }
  return r;
}

Json WithoutTiming(const Json& doc) {
  Json out = doc;
  std::erase_if(out.fields, [](const auto& field) {
    for (const std::string_view t : kTimingFields) {
      if (field.first == t) return true;
    }
    return false;
  });
  return out;
}

CheckResult Transparency(const Observed& o) {
  CheckResult r{std::string(kTransparency), false, ""};
  std::size_t bad = 0;
  std::string first;
  for (const TransparencyPair& p : o.pairs) {
    const std::string cached = DumpJson(WithoutTiming(p.cached));
    const std::string fresh = DumpJson(WithoutTiming(p.fresh));
    if (p.epoch_before != p.epoch_after || cached != fresh) {
      if (bad == 0) {
        first = "; first " + p.request->target +
                Format(" epochs %.0f/%.0f", static_cast<double>(p.epoch_before),
                       static_cast<double>(p.epoch_after)) +
                ": cached " +
                cached.substr(0, 400) + " fresh " + fresh.substr(0, 400);
      }
      ++bad;
    }
  }
  r.passed = !o.pairs.empty() && bad == 0;
  r.detail = Format("%.0f of %.0f cached answers differ from a fresh render",
                    static_cast<double>(bad),
                    static_cast<double>(o.pairs.size())) +
             first;
  return r;
}

CheckResult ServerExit(const Observed& o) {
  CheckResult r{std::string(kServerExit), o.server_exit == 0, ""};
  r.detail = Format("exit code %.0f after SIGTERM", o.server_exit);
  return r;
}

/// Moves every interval of `kind` clear of the exact value.
bool ShiftIntervals(std::string_view kind, Observed* o,
                    const ExactModel& exact) {
  bool any = false;
  for (Answer& a : o->answers) {
    if (KindOf(a) != kind || !a.doc.Has("ci_low")) continue;
    const double truth = ExactFor(kind, *a.request, exact);
    const double width = a.doc.Num("ci_high") - a.doc.Num("ci_low");
    const double shift = 3.0 * width + 0.5 * std::fabs(truth) + 10.0;
    a.doc.GetMutable("ci_low")->number = truth + shift;
    a.doc.GetMutable("ci_high")->number = truth + shift + width;
    a.doc.GetMutable("estimate")->number = truth + shift + width / 2;
    any = true;
  }
  return any;
}

}  // namespace

const std::vector<std::string>& CheckNames() {
  static const std::vector<std::string> names = {
      std::string(kWellFormed),          std::string(kConservationInserts), std::string(kConservationReplies),
      std::string(kTheorem6),           std::string(kTheorem8),
      std::string(kOrder),              std::string(kCoverageCount),
      std::string(kCoverageFrequency),  std::string(kCoverageQuantile),
      std::string(kCoverageDistinct),   std::string(kTransparency),
      std::string(kServerExit)};
  return names;
}

std::vector<CheckResult> RunChecks(const Observed& observed,
                                   const ExactModel& exact) {
  return {WellFormed(observed),
          Conservation(observed),
          Replies(observed),
          Theorem6(observed, exact),
          Theorem8(observed),
          Order(observed, exact),
          Coverage("count_where", kCoverageCount, observed, exact),
          Coverage("frequency", kCoverageFrequency, observed, exact),
          Coverage("quantile", kCoverageQuantile, observed, exact),
          Coverage("distinct", kCoverageDistinct, observed, exact),
          Transparency(observed),
          ServerExit(observed)};
}

bool Corrupt(std::string_view check, Observed* o, const ExactModel& exact) {
  if (check == kWellFormed) {
    o->malformed_answers += 1;
    return true;
  }
  if (check == kConservationInserts) {
    o->stats_inserts += 1;
    return true;
  }
  if (check == kConservationReplies) {
    if (o->reply_ingested.empty()) return false;
    o->reply_ingested[o->reply_ingested.size() / 2] -= 1;
    return true;
  }
  if (check == kTheorem6 || check == kTheorem8 || check == kOrder) {
    const auto top = exact.Top(kOrderRanks);
    bool any = false;
    for (Answer& a : o->answers) {
      if (!IsCountingHotList(a)) continue;
      if (check == kOrder && SeparatedPrefix(a, top) < 2) continue;
      auto& items = a.doc.GetMutable("items")->items;
      if (items.size() < 2) continue;
      if (check == kTheorem6) {
        // Claim one more occurrence than the stream held.
        const auto value = static_cast<Value>(items[0].Num("value"));
        const double c_hat = items[0].Num("estimated_count") -
                             items[0].Num("synopsis_count");
        const double count = static_cast<double>(exact.Count(value)) + 1;
        items[0].GetMutable("synopsis_count")->number = count;
        items[0].GetMutable("estimated_count")->number = count + c_hat;
      } else if (check == kTheorem8) {
        items[1].GetMutable("estimated_count")->number += 0.5;
      } else {
        std::swap(items[0], items[1]);
      }
      any = true;
    }
    return any;
  }
  if (check == kCoverageCount) return ShiftIntervals("count_where", o, exact);
  if (check == kCoverageFrequency) return ShiftIntervals("frequency", o, exact);
  if (check == kCoverageQuantile) return ShiftIntervals("quantile", o, exact);
  if (check == kCoverageDistinct) return ShiftIntervals("distinct", o, exact);
  if (check == kTransparency) {
    for (TransparencyPair& p : o->pairs) {
      Json* estimate = p.cached.GetMutable("estimate");
      if (estimate == nullptr) continue;
      estimate->number = estimate->number * 1.001 + 1;
      return true;
    }
    return false;
  }
  if (check == kServerExit) {
    o->server_exit = 1;
    return true;
  }
  return false;
}

std::int32_t IngestedField(std::string_view body) {
  constexpr std::string_view kKey = "\"ingested\":";
  const std::size_t at = body.find(kKey);
  if (at == std::string_view::npos) return -1;
  std::int32_t n = -1;
  const char* begin = body.data() + at + kKey.size();
  std::from_chars(begin, body.data() + body.size(), n);
  return n;
}

}  // namespace perfbench
