#ifndef LAN_COMMON_PROFILE_H_
#define LAN_COMMON_PROFILE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/metrics.h"

namespace lan {

struct SearchStats;

/// \brief Fixed stage vocabulary for the per-query latency breakdown — the
/// serving-time analogue of the paper's Fig. 11 stage decomposition.
///
/// Stages are exclusive (self-time): when a nested span opens (GED inside
/// routing, model inference inside rerank), the parent's clock pauses, so
/// the per-query stage seconds sum to the span-covered wall time without
/// double counting. The vocabulary is closed on purpose — dashboards and
/// the Prometheus exposition depend on the `stage.<name>_seconds` series
/// being a stable, enumerable set.
enum class Stage : uint8_t {
  /// Initial candidate selection (LAN M_c-guided, HNSW, or random).
  kInitSelection = 0,
  /// NP-routing proper: the learned/oracle-ranked graph walk.
  kRouting = 1,
  /// Baseline best-first beam traversal (kBaselineRoute, HNSW layers).
  kBeamSearch = 2,
  /// Neighbor re-ranking via M_rk inside a routing step.
  kRerank = 3,
  /// Exact/approximate GED evaluations (the distance oracle hot path).
  kGed = 4,
  /// Model forward passes: query encoding, M_c, M_nh, M_rk inference.
  kModelInference = 5,
  /// Answer-cache probes and stores.
  kCacheLookup = 6,
  /// Pinning the immutable IndexSnapshot at query start.
  kSnapshotPin = 7,
};

inline constexpr int kNumStages = 8;

/// Lower-snake-case stage name ("init_selection", "routing", ...).
const char* StageName(Stage stage);

/// Registry/histogram name for a stage: "stage.<name>_seconds".
const char* StageMetricName(Stage stage);

/// \brief Per-query stage timing totals, POD so it rides inside SearchStats
/// without breaking the zero-allocation query path.
struct StageBreakdown {
  std::array<double, kNumStages> seconds{};
  std::array<int64_t, kNumStages> counts{};

  double SecondsOf(Stage stage) const {
    return seconds[static_cast<size_t>(stage)];
  }
  int64_t CountOf(Stage stage) const {
    return counts[static_cast<size_t>(stage)];
  }
  /// Sum of all stage self-times ≈ span-covered wall time of the query.
  double TotalSeconds() const {
    double total = 0.0;
    for (double s : seconds) total += s;
    return total;
  }
  bool Empty() const {
    for (int64_t c : counts) {
      if (c != 0) return false;
    }
    return true;
  }
  void Merge(const StageBreakdown& other) {
    for (int i = 0; i < kNumStages; ++i) {
      seconds[static_cast<size_t>(i)] += other.seconds[static_cast<size_t>(i)];
      counts[static_cast<size_t>(i)] += other.counts[static_cast<size_t>(i)];
    }
  }
  /// `{"init_selection":{"seconds":...,"count":...}, ...}` — every stage
  /// emitted (stable schema), used by the slow-query JSON lines.
  std::string ToJson() const;
};

/// \brief One query's stage clock: a fixed-depth span stack charging
/// elapsed time to the innermost open stage.
///
/// Exactly one steady_clock read per Enter/Exit transition; no allocation,
/// no locking (one profile per query, owned by that query's thread). Spans
/// deeper than the fixed stack are counted but not timed — with the
/// current wiring nesting never exceeds three.
class StageProfile {
 public:
  StageProfile() = default;
  StageProfile(const StageProfile&) = delete;
  StageProfile& operator=(const StageProfile&) = delete;

  void Enter(Stage stage) {
    if (depth_ >= kMaxDepth) {
      ++overflow_;
      return;
    }
    const int64_t now = NowNanos();
    if (depth_ > 0) ChargeTop(now);
    stack_[depth_++] = stage;
    mark_ns_ = now;
    ++breakdown_.counts[static_cast<size_t>(stage)];
  }

  void Exit() {
    if (overflow_ > 0) {
      --overflow_;
      return;
    }
    if (depth_ == 0) return;
    const int64_t now = NowNanos();
    ChargeTop(now);
    --depth_;
    mark_ns_ = now;  // The parent span (if any) resumes from here.
  }

  /// Valid once every span has closed (depth back to zero).
  const StageBreakdown& breakdown() const { return breakdown_; }

  void Reset() {
    breakdown_ = StageBreakdown{};
    depth_ = 0;
    overflow_ = 0;
  }

 private:
  static constexpr int kMaxDepth = 16;

  static int64_t NowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void ChargeTop(int64_t now) {
    breakdown_.seconds[static_cast<size_t>(stack_[depth_ - 1])] +=
        static_cast<double>(now - mark_ns_) * 1e-9;
  }

  StageBreakdown breakdown_;
  Stage stack_[kMaxDepth] = {};
  int depth_ = 0;
  int overflow_ = 0;
  int64_t mark_ns_ = 0;
};

/// \brief RAII span. The disabled path is a null-pointer check, exactly
/// like TraceRecord: `StageSpan span(profile, Stage::kGed);` costs one
/// branch when `profile == nullptr`.
class StageSpan {
 public:
  StageSpan(StageProfile* profile, Stage stage) : profile_(profile) {
    if (profile != nullptr) profile->Enter(stage);
  }
  ~StageSpan() {
    if (profile_ != nullptr) profile_->Exit();
  }
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  StageProfile* profile_;
};

/// \brief The eight `stage.<name>_seconds` histograms over one registry.
///
/// Registering up front (rather than lazily on first observation) keeps
/// the full stage vocabulary visible in /metrics from the first scrape,
/// even for stages the current routing mode never enters.
class StageHistograms {
 public:
  StageHistograms() = default;
  explicit StageHistograms(MetricsRegistry* registry) { Register(registry); }

  void Register(MetricsRegistry* registry);

  /// Observes each stage the query actually entered (count > 0); untouched
  /// stages contribute no sample, so their histograms reflect per-visit
  /// latency rather than a flood of zeros.
  void Observe(const StageBreakdown& breakdown) const;

 private:
  MetricsRegistry* registry_ = nullptr;
  std::array<HistogramId, kNumStages> ids_{};
};

}  // namespace lan

#endif  // LAN_COMMON_PROFILE_H_
