#ifndef LAN_COMMON_METRICS_H_
#define LAN_COMMON_METRICS_H_

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace lan {

/// \brief Handle to a registered counter (cheap to copy; see
/// MetricsRegistry::Counter).
struct CounterId {
  int32_t slot = -1;
  bool valid() const { return slot >= 0; }
};

/// \brief Handle to a registered histogram.
struct HistogramId {
  int32_t slot = -1;
  bool valid() const { return slot >= 0; }
};

/// \brief Handle to a registered gauge (a last-written point-in-time value:
/// index live size, tombstone count, serving epoch).
struct GaugeId {
  int32_t slot = -1;
  bool valid() const { return slot >= 0; }
};

/// \brief Point-in-time state of one histogram: per-bucket counts plus the
/// usual summary moments. Buckets are [<=bounds[0]], (bounds[0], bounds[1]],
/// ..., (bounds[n-1], inf) — `bucket_counts` has bounds.size() + 1 entries.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<int64_t> bucket_counts;
  int64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  /// Bucket-interpolated quantile estimate (`pct` in [0, 100]), clamped to
  /// the observed [min, max]. Exact when a bucket holds a single value.
  double Percentile(double pct) const;
};

/// \brief Point-in-time state of a whole registry; rendered as one JSON
/// object ({"counters": {...}, "histograms": {...}}) with p50/p95/p99
/// attached to every histogram.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  std::vector<std::pair<std::string, double>> gauges;

  const int64_t* FindCounter(const std::string& name) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
  const double* FindGauge(const std::string& name) const;
  std::string ToJson() const;

  /// Accumulates another snapshot of the same registry layout (used when a
  /// caller scrapes several registries into one report). Counters and
  /// histogram cells add; gauges are point-in-time, so the incoming value
  /// wins.
  void Merge(const MetricsSnapshot& other);
};

/// \brief Query-serving metrics: named counters, fixed-bucket histograms
/// and gauges behind one mutex.
///
/// Queries are recorded by one thread per registry: `lan_tool serve`'s
/// loop, or SearchBatch's calling thread once its workers joined. The
/// stats server's thread adds scrapes (Snapshot) and cache counters, so
/// one lock over flat arrays is uncontended in steady state. Registration
/// returns stable ids; Increment/Observe/SetGauge with an id index the
/// arrays directly.
///
/// Thread-safe. One registry typically lives per server/process; benches
/// and SearchBatch create short-lived private registries.
///
/// Naming convention: the query-serving metrics registered by SearchBatch
/// (`queries`, `query_latency_seconds`, ...) own the bare namespace;
/// every other subsystem prefixes its metrics with a dotted subsystem name
/// (`cache.hits`, `cache.bytes`, ...). The prefix keeps the flat
/// MetricsSnapshot JSON export collision-free as subsystems are added —
/// observability_test asserts names stay unique across counters,
/// histograms, and gauges.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) a counter by name.
  CounterId Counter(const std::string& name);
  /// Registers (or finds) a histogram by name. `bounds` must be strictly
  /// increasing. If `name` already exists the registered bounds win; a
  /// re-registration with *different* bounds logs a warning (once per
  /// registry) and bumps the `metrics.bounds_conflicts` counter exported by
  /// Snapshot(), so a subsystem silently observing into someone else's
  /// buckets is visible instead of a latent mis-aggregation.
  HistogramId Histogram(const std::string& name, std::vector<double> bounds);
  /// Registers (or finds) a gauge by name.
  GaugeId Gauge(const std::string& name);

  void Increment(CounterId id, int64_t delta = 1);
  void Observe(HistogramId id, double value);
  /// Overwrites the gauge.
  void SetGauge(GaugeId id, double value);

  /// Copies every series into one consistent snapshot.
  MetricsSnapshot Snapshot() const;

  /// Exponential seconds buckets (10us .. 10s) for latency histograms.
  static std::vector<double> LatencyBounds();
  /// 1-2-5 series (1 .. 100k) for count-valued histograms (NDC, steps).
  static std::vector<double> CountBounds();

 private:
  mutable std::mutex mu_;
  /// Every series in registration order; a handle's slot indexes its
  /// array.
  MetricsSnapshot series_;
  /// Histogram re-registrations whose bounds disagreed with the first
  /// registration (exported as `metrics.bounds_conflicts` when non-zero).
  int64_t bounds_conflicts_ = 0;
  bool bounds_conflict_warned_ = false;
};

}  // namespace lan

#endif  // LAN_COMMON_METRICS_H_
