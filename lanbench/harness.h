#ifndef LANBENCH_HARNESS_H_
#define LANBENCH_HARNESS_H_

// The benchmark's own arithmetic, kept apart from the workloads so that
// harness_test.cc can pin it down: percentiles with a tail-sample rule,
// recall against a live set, result-list checks, failure accounting, the
// host-speed probe and the result JSON.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lan/ground_truth.h"

namespace lanbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr int64_t kMinTailSamples = 10;

/// Nearest-rank percentile (the smallest sample with at least `pct` percent
/// of the samples at or below it). `samples` must be non-empty.
double NearestRank(std::vector<double> samples, double pct);

/// The `pct` percentile, or nothing when fewer than kMinTailSamples samples
/// rank above it (so a p90 needs at least 100 samples).
std::optional<double> TailPercentile(const std::vector<double>& samples,
                                     double pct);

/// The k nearest graphs among those with `live[id] != 0`, by exact
/// distance `dist` (index = graph id), ascending, ties by id. Fewer than k
/// when fewer graphs are live.
lan::KnnList LiveTruth(const std::vector<double>& dist,
                       const std::vector<uint8_t>& live, int k);

/// lan::RecallAtK of the live answers in `result` against LiveTruth, with
/// the denominator min(k, number of live graphs). An answer that is not
/// live earns nothing.
double RecallAgainstLive(const lan::KnnList& result,
                         const std::vector<double>& dist,
                         const std::vector<uint8_t>& live, int k);

/// Checks one search answer: at most k entries, ascending by distance (ties
/// by id), distinct ids, every id live in `live`. Returns the first violation
/// or an empty string.
std::string CheckResultList(const lan::KnnList& result, int k,
                            const std::vector<uint8_t>& live);

/// Operations attempted in a measured window and which of them failed. An
/// operation fails at most once, however many of its checks fail.
class OpLedger {
 public:
  /// Registers the next operation and returns its index.
  int64_t Attempt();
  /// Marks operation `op` failed, keeping the first reason for the log.
  void Fail(int64_t op, const std::string& reason);

  int64_t attempted() const { return static_cast<int64_t>(failed_.size()); }
  int64_t failed() const { return num_failed_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::vector<uint8_t> failed_;
  int64_t num_failed_ = 0;
  std::vector<std::string> reasons_;
};

/// Milliseconds taken by a fixed integer loop owned by the benchmark. Timed
/// before and after the measured window to tell a slow host from a slow
/// program; reported, never gated on.
double HostLoopMillis();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// A pure function of the seed (counts, ratios of counts, recall), as
  /// opposed to a time or a size that depends on the host.
  bool deterministic = false;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
/// with every value printed with all its digits.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace lanbench

#endif  // LANBENCH_HARNESS_H_
