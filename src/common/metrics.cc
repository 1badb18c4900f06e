#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"

namespace lan {
namespace {

/// Slot of the series called `name`, or -1.
template <typename Series>
int32_t FindSlot(const Series& series, const std::string& name) {
  for (size_t i = 0; i < series.size(); ++i) {
    if (series[i].first == name) return static_cast<int32_t>(i);
  }
  return -1;
}

void AppendJsonString(std::ostringstream* out, const std::string& s) {
  *out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') *out << '\\';
    *out << c;
  }
  *out << '"';
}

void AppendJsonDouble(std::ostringstream* out, double v) {
  // JSON has no inf/nan; empty histograms report min/max as null.
  if (std::isfinite(v)) {
    *out << v;
  } else {
    *out << "null";
  }
}

}  // namespace

CounterId MetricsRegistry::Counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  CounterId id{FindSlot(series_.counters, name)};
  if (!id.valid()) {
    id.slot = static_cast<int32_t>(series_.counters.size());
    series_.counters.emplace_back(name, 0);
  }
  return id;
}

HistogramId MetricsRegistry::Histogram(const std::string& name,
                                       std::vector<double> bounds) {
  LAN_CHECK(!bounds.empty());
  for (size_t i = 1; i < bounds.size(); ++i) {
    LAN_CHECK_LT(bounds[i - 1], bounds[i]);
  }
  std::lock_guard<std::mutex> lock(mu_);
  HistogramId id{FindSlot(series_.histograms, name)};
  if (id.valid()) {
    if (series_.histograms[static_cast<size_t>(id.slot)].second.bounds !=
        bounds) {
      ++bounds_conflicts_;
      if (!bounds_conflict_warned_) {
        bounds_conflict_warned_ = true;
        LAN_LOG(Warning)
            << "histogram '" << name
            << "' re-registered with different bucket bounds; the first "
               "registration wins (tracked as metrics.bounds_conflicts)";
      }
    }
    return id;
  }
  HistogramSnapshot h;
  h.bucket_counts.assign(bounds.size() + 1, 0);
  h.bounds = std::move(bounds);
  id.slot = static_cast<int32_t>(series_.histograms.size());
  series_.histograms.emplace_back(name, std::move(h));
  return id;
}

GaugeId MetricsRegistry::Gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  GaugeId id{FindSlot(series_.gauges, name)};
  if (!id.valid()) {
    id.slot = static_cast<int32_t>(series_.gauges.size());
    series_.gauges.emplace_back(name, 0.0);
  }
  return id;
}

void MetricsRegistry::Increment(CounterId id, int64_t delta) {
  if (!id.valid()) return;
  std::lock_guard<std::mutex> lock(mu_);
  series_.counters[static_cast<size_t>(id.slot)].second += delta;
}

void MetricsRegistry::Observe(HistogramId id, double value) {
  if (!id.valid()) return;
  std::lock_guard<std::mutex> lock(mu_);
  HistogramSnapshot& h =
      series_.histograms[static_cast<size_t>(id.slot)].second;
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(h.bounds.begin(), h.bounds.end(), value) -
      h.bounds.begin());
  ++h.bucket_counts[bucket];
  ++h.count;
  h.sum += value;
  h.min = std::min(h.min, value);
  h.max = std::max(h.max, value);
}

void MetricsRegistry::SetGauge(GaugeId id, double value) {
  if (!id.valid()) return;
  std::lock_guard<std::mutex> lock(mu_);
  series_.gauges[static_cast<size_t>(id.slot)].second = value;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot = series_;
  // Emitted only when a conflict happened, so unaffected registries keep
  // their exact pre-existing snapshot layout.
  if (bounds_conflicts_ > 0) {
    snapshot.counters.emplace_back("metrics.bounds_conflicts",
                                   bounds_conflicts_);
  }
  return snapshot;
}

std::vector<double> MetricsRegistry::LatencyBounds() {
  return {1e-5,   2.5e-5, 5e-5,  1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3,
          5e-3,   1e-2,   2.5e-2, 5e-2, 1e-1,  2.5e-1, 5e-1, 1.0,
          2.5,    5.0,    10.0};
}

std::vector<double> MetricsRegistry::CountBounds() {
  return {1,    2,    5,     10,    20,    50,     100,   200, 500,
          1000, 2000, 5000, 10000, 20000, 50000, 100000};
}

double HistogramSnapshot::Percentile(double pct) const {
  if (count == 0) return 0.0;
  pct = std::clamp(pct, 0.0, 100.0);
  const double target = pct / 100.0 * static_cast<double>(count);
  int64_t cumulative = 0;
  for (size_t b = 0; b < bucket_counts.size(); ++b) {
    if (bucket_counts[b] == 0) continue;
    const int64_t next = cumulative + bucket_counts[b];
    if (static_cast<double>(next) >= target) {
      // Linear interpolation inside bucket b, clamped to observed range.
      const double lo = b == 0 ? min : bounds[b - 1];
      const double hi = b < bounds.size() ? bounds[b] : max;
      const double within =
          bucket_counts[b] > 0
              ? (target - static_cast<double>(cumulative)) /
                    static_cast<double>(bucket_counts[b])
              : 0.0;
      return std::clamp(lo + within * (hi - lo), min, max);
    }
    cumulative = next;
  }
  return max;
}

const int64_t* MetricsSnapshot::FindCounter(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return &v;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const auto& [n, h] : histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

const double* MetricsSnapshot::FindGauge(const std::string& name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return &v;
  }
  return nullptr;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    const int32_t slot = FindSlot(counters, name);
    if (slot < 0) {
      counters.emplace_back(name, value);
    } else {
      counters[static_cast<size_t>(slot)].second += value;
    }
  }
  for (const auto& [name, h] : other.histograms) {
    const int32_t slot = FindSlot(histograms, name);
    if (slot < 0) {
      histograms.emplace_back(name, h);
      continue;
    }
    HistogramSnapshot& mine = histograms[static_cast<size_t>(slot)].second;
    LAN_CHECK(mine.bounds == h.bounds)
        << "cannot merge histograms with different bucket bounds: " << name;
    for (size_t b = 0; b < h.bucket_counts.size(); ++b) {
      mine.bucket_counts[b] += h.bucket_counts[b];
    }
    mine.count += h.count;
    mine.sum += h.sum;
    mine.min = std::min(mine.min, h.min);
    mine.max = std::max(mine.max, h.max);
  }
  for (const auto& [name, value] : other.gauges) {
    const int32_t slot = FindSlot(gauges, name);
    if (slot < 0) {
      gauges.emplace_back(name, value);
    } else {
      gauges[static_cast<size_t>(slot)].second = value;
    }
  }
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out.precision(12);
  out << "{\"counters\":{";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out << ',';
    AppendJsonString(&out, counters[i].first);
    out << ':' << counters[i].second;
  }
  out << "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    if (i > 0) out << ',';
    const HistogramSnapshot& h = histograms[i].second;
    AppendJsonString(&out, histograms[i].first);
    out << ":{\"count\":" << h.count << ",\"sum\":" << h.sum << ",\"min\":";
    AppendJsonDouble(&out, h.count > 0 ? h.min : 0.0);
    out << ",\"max\":";
    AppendJsonDouble(&out, h.count > 0 ? h.max : 0.0);
    out << ",\"mean\":" << h.mean() << ",\"p50\":" << h.Percentile(50)
        << ",\"p95\":" << h.Percentile(95) << ",\"p99\":" << h.Percentile(99)
        << ",\"bounds\":[";
    for (size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out << ',';
      out << h.bounds[b];
    }
    out << "],\"bucket_counts\":[";
    for (size_t b = 0; b < h.bucket_counts.size(); ++b) {
      if (b > 0) out << ',';
      out << h.bucket_counts[b];
    }
    out << "]}";
  }
  out << "},\"gauges\":{";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out << ',';
    AppendJsonString(&out, gauges[i].first);
    out << ':';
    AppendJsonDouble(&out, gauges[i].second);
  }
  out << "}}";
  return out.str();
}

}  // namespace lan
