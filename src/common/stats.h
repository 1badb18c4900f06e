#ifndef LAN_COMMON_STATS_H_
#define LAN_COMMON_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/profile.h"

namespace lan {

/// \brief Online summary statistics (count / mean / min / max / stddev).
class SummaryStats {
 public:
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  void Merge(const SummaryStats& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const double delta = other.mean_ - mean_;
    const int64_t n = count_ + other.count_;
    m2_ += other.m2_ + delta * delta *
                           (static_cast<double>(count_) * other.count_ / n);
    mean_ += delta * other.count_ / static_cast<double>(n);
    count_ = n;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// \brief Exact percentile of a sample (copies + sorts; fine at our scales).
double Percentile(std::vector<double> values, double pct);

/// \brief Per-query search statistics reported by every index in this repo.
struct SearchStats {
  /// Number of graph-distance (GED) computations: the paper's key metric.
  int64_t ndc = 0;
  /// Number of routing steps (nodes explored on the PG).
  int64_t routing_steps = 0;
  /// Number of rows scored by the learned models' heads (M_rk: one per
  /// (routing node, neighbor) pair; M_nh: one per member; M_c: one per
  /// cluster).
  int64_t model_inferences = 0;
  /// Number of cross-graph embeddings h_{G,Q} actually encoded: M_rk's
  /// per-query memo misses plus M_nh's rows. At most model_inferences.
  int64_t cross_encodings = 0;
  /// 1 when the answer cache served this query's whole answer (then ndc,
  /// routing_steps and model_inferences are 0: nothing ran), else 0.
  int64_t cache_hits = 0;
  /// Per-stage self-time breakdown, the only per-query latency record
  /// (Fig. 11's split is derived from it); populated only when the query
  /// ran with SearchOptions::profile (all-zero otherwise).
  StageBreakdown stages;

  void Merge(const SearchStats& o) {
    ndc += o.ndc;
    routing_steps += o.routing_steps;
    model_inferences += o.model_inferences;
    cross_encodings += o.cross_encodings;
    cache_hits += o.cache_hits;
    stages.Merge(o.stages);
  }
};

}  // namespace lan

#endif  // LAN_COMMON_STATS_H_
