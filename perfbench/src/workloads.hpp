// The benchmark workloads. Each runs the same pipeline — generate → build →
// save → load → prep → query batches → daemon with chained RELOADs — on its
// own graph, with the measured time split so that one layer carries the
// cost: build-road the hopset build, query-geo the dense query kernels. See
// perfbench/README.md for the rationale and sizing.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 16;
  bool trace = false;
  bool smoke = false;  ///< tiny graphs, for the benchmark's own tests
  std::filesystem::path workdir;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::size_t samples = 1;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed gate
};

const std::vector<std::string>& workload_names();

/// Runs one workload. In trace mode `tracer` is non-null and the outcome
/// holds the per-layer metrics; otherwise it holds the end-to-end metrics.
Outcome run_workload(const Options& opt, Tracer* tracer);

}  // namespace perfbench
