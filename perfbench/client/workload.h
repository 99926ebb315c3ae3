// Inputs the benchmark generates from its seed, and the exact model of the
// stream it sent, against which the checks compare the server's answers.
#ifndef AQUA_PERFBENCH_WORKLOAD_H_
#define AQUA_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

using Value = std::int64_t;

enum class Workload { kIngest, kReadCached, kReadUncached, kReadWrite };

/// Sizes of one run.  `Full` is what the benchmark measures; `Smoke` runs
/// the same code paths on tiny inputs.
struct Sizes {
  std::size_t batch_values = 4096;
  /// Distinct 4096-value batches cycled by the ingest streams.
  std::size_t stream_batches = 256;
  /// Distinct batches POSTed before a read workload's timed phase, each
  /// `preload_passes` times: a preload of several seconds, so its rate
  /// spans the host's speed spells (see README).
  std::size_t preload_batches = 512;
  std::size_t preload_passes = 4;
  std::uint64_t read_domain = 1 << 17;
  std::uint64_t wide_domain = 1 << 22;
  /// Check-phase request counts for the error-bar coverage rates.
  std::size_t coverage_ranges = 64;
  std::size_t coverage_values = 64;

  static Sizes Full() { return Sizes(); }
  static Sizes Smoke();
};

/// One GET the benchmark sends, with the parameters the checks and the
/// in-process replays need.
struct ReadRequest {
  /// hotlist | frequency | count_where | quantile | distinct | query
  std::string route;
  std::string target;  // path + query string, percent-encoded
  std::string sql;     // the statement, for route == "query"
  std::int64_t k = 10;
  double beta = 3.0;
  Value value = 0;
  Value low = 0;
  Value high = 0;
  double q = 0.5;
  std::string wire;
  std::string wire_no_cache;
};

struct Batch {
  std::vector<Value> values;
  std::string body;  // JSON array
  std::string wire;  // POST /ingest
};

struct Inputs {
  Sizes sizes;
  /// Zipf(1.0) over the read domain; read workloads POST it during setup.
  std::vector<Batch> preload;
  /// Batches cycled by the timed ingest streams: Zipf(0.5) over the wide
  /// domain for `ingest`, more Zipf(1.0) over the read domain for
  /// `read_write`.
  std::vector<Batch> stream;
  /// The timed read mix: a fixed set of distinct GETs.
  std::vector<ReadRequest> mix;
  /// Extra GETs sent only in the check phase, for coverage rates.
  std::vector<ReadRequest> coverage;
};

Inputs GenerateInputs(Workload workload, std::uint64_t seed,
                      const Sizes& sizes);

bool IsReadWorkload(Workload w);

/// Exact statistics of everything the benchmark sent.
class ExactModel {
 public:
  void Add(std::span<const Value> values, std::int64_t times);
  /// Freezes the model; queries are valid afterwards.
  void Finish();

  std::int64_t total() const { return total_; }
  std::int64_t distinct() const {
    return static_cast<std::int64_t>(values_.size());
  }
  std::int64_t Count(Value v) const;
  std::int64_t CountRange(Value low, Value high) const;
  /// Smallest value whose cumulative count reaches q * total.
  Value Quantile(double q) const;
  /// The `n` most frequent values, most frequent first.
  std::vector<std::pair<Value, std::int64_t>> Top(std::size_t n) const;

 private:
  std::unordered_map<Value, std::int64_t> acc_;
  std::vector<Value> values_;           // sorted
  std::vector<std::int64_t> prefix_;    // prefix_[i] = sum counts [0, i)
  std::vector<std::size_t> by_count_;   // indices into values_, by count
  std::int64_t total_ = 0;
};

}  // namespace perfbench

#endif  // AQUA_PERFBENCH_WORKLOAD_H_
