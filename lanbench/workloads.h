#ifndef LANBENCH_WORKLOADS_H_
#define LANBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness.h"

namespace lanbench {

struct BenchParams {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the set-up writes its .lansnap (removed again after opening).
  std::string work_dir = ".";
  /// A tiny database and few searches, so that tests of the benchmark run
  /// in seconds. The committed benchmark always runs the full size.
  bool small = false;
};

struct RunReport {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (diagnostics, the first
  /// failure reasons).
  std::vector<std::string> notes;
};

/// Sets up, warms up, measures and checks one workload. With `trace` off the
/// report holds the end-to-end metrics, with it on the per-layer metrics.
/// Fails only when the run cannot produce a report at all (set-up error,
/// too few samples for a percentile); failed operations are counted in the
/// report instead.
lan::Result<RunReport> RunWorkload(const BenchParams& params);

}  // namespace lanbench

#endif  // LANBENCH_WORKLOADS_H_
