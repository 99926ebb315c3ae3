// The traced run's in-process half: replays the run's generated inputs
// through each layer's public functions, timing every call from outside,
// and keeps the spans in memory until the run writes them out.
#ifndef AQUA_PERFBENCH_LAYERS_H_
#define AQUA_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Spans at the benchmark's layer boundaries: each names the span that
/// caused it (-1 for a root).
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  int Begin(std::string name, int parent);
  void End(int id);
  /// Writes every span as one JSON document.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Per-layer metrics measured in process on the run's inputs.
std::vector<Metric> ReplayLayers(Workload workload, const Inputs& inputs,
                                 Tracer* tracer, int parent);

}  // namespace perfbench

#endif  // AQUA_PERFBENCH_LAYERS_H_
