// Correctness checks on what the server answered, against the exact model
// of the stream the benchmark sent.  They run after the timed spans.
#ifndef AQUA_PERFBENCH_CHECKS_H_
#define AQUA_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "json_lite.h"
#include "workload.h"

namespace perfbench {

struct Answer {
  const ReadRequest* request = nullptr;
  Json doc;
};

/// One request answered from the response cache and rendered afresh
/// (Cache-Control: no-cache) at the same serving epoch.
struct TransparencyPair {
  const ReadRequest* request = nullptr;
  Json cached;
  Json fresh;
  std::int64_t epoch_before = 0;
  std::int64_t epoch_after = 0;
};

/// Everything the checks look at.
struct Observed {
  std::int64_t values_sent = 0;
  /// `inserts` from /stats once every /ingest reply is in.
  std::int64_t stats_inserts = -1;
  /// Per /ingest reply: the `ingested` field and the batch length sent.
  std::vector<std::int32_t> reply_ingested;
  std::vector<std::int32_t> reply_expected;
  std::vector<Answer> answers;
  /// Check-phase GETs that did not answer 200 with a JSON document.
  std::size_t malformed_answers = 0;
  std::vector<TransparencyPair> pairs;
  int server_exit = -1;
};

struct CheckResult {
  std::string name;
  bool passed = false;
  std::string detail;
};

/// Names of every check, in the order RunChecks reports them.
const std::vector<std::string>& CheckNames();

std::vector<CheckResult> RunChecks(const Observed& observed,
                                   const ExactModel& exact);

/// Makes the answers in `observed` wrong in the way `check` is meant to
/// catch (the self-test).  Returns false when the run has no answer that
/// check looks at.
bool Corrupt(std::string_view check, Observed* observed,
             const ExactModel& exact);

/// The `ingested` field of an /ingest reply, or -1.
std::int32_t IngestedField(std::string_view body);

}  // namespace perfbench

#endif  // AQUA_PERFBENCH_CHECKS_H_
