#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace lanbench {

namespace {

// Rank (1-based) of the nearest-rank `pct` percentile among n samples.
size_t NearestRankIndex(size_t n, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

// Keeps HostLoopMillis's loop from being folded away.
volatile uint64_t g_host_loop_sink = 0;

}  // namespace

double NearestRank(std::vector<double> samples, double pct) {
  std::sort(samples.begin(), samples.end());
  return samples[NearestRankIndex(samples.size(), pct) - 1];
}

std::optional<double> TailPercentile(const std::vector<double>& samples,
                                     double pct) {
  if (samples.empty()) return std::nullopt;
  const size_t rank = NearestRankIndex(samples.size(), pct);
  if (static_cast<int64_t>(samples.size() - rank) < kMinTailSamples) {
    return std::nullopt;
  }
  return NearestRank(samples, pct);
}

lan::KnnList LiveTruth(const std::vector<double>& dist,
                       const std::vector<uint8_t>& live, int k) {
  lan::KnnList truth;
  for (size_t id = 0; id < live.size() && id < dist.size(); ++id) {
    if (live[id] != 0) {
      truth.emplace_back(static_cast<lan::GraphId>(id), dist[id]);
    }
  }
  const size_t kk = std::min(static_cast<size_t>(k), truth.size());
  std::partial_sort(truth.begin(), truth.begin() + kk, truth.end(),
                    [](const auto& a, const auto& b) {
                      return a.second != b.second ? a.second < b.second
                                                  : a.first < b.first;
                    });
  truth.resize(kk);
  return truth;
}

double RecallAgainstLive(const lan::KnnList& result,
                         const std::vector<double>& dist,
                         const std::vector<uint8_t>& live, int k) {
  const lan::KnnList truth = LiveTruth(dist, live, k);
  lan::KnnList answered;
  for (const auto& entry : result) {
    const auto id = static_cast<size_t>(entry.first);
    if (entry.first >= 0 && id < live.size() && id < dist.size() &&
        live[id] != 0) {
      answered.push_back(entry);
    }
  }
  if (truth.empty()) return answered.empty() ? 1.0 : 0.0;
  return lan::RecallAtK(answered, truth, static_cast<int>(truth.size()));
}

std::string CheckResultList(const lan::KnnList& result, int k,
                            const std::vector<uint8_t>& live) {
  if (static_cast<int64_t>(result.size()) > k) {
    return "more than k results";
  }
  std::unordered_set<int64_t> seen;
  for (size_t i = 0; i < result.size(); ++i) {
    const auto& [id, d] = result[i];
    if (id < 0 || static_cast<size_t>(id) >= live.size()) {
      return "result id " + std::to_string(id) + " out of range";
    }
    if (live[static_cast<size_t>(id)] == 0) {
      return "result id " + std::to_string(id) + " not live at its epoch";
    }
    if (!seen.insert(id).second) {
      return "duplicate result id " + std::to_string(id);
    }
    if (i > 0) {
      const auto& [prev_id, prev_d] = result[i - 1];
      if (d < prev_d || (d == prev_d && id < prev_id)) {
        return "results not sorted at position " + std::to_string(i);
      }
    }
  }
  return "";
}

int64_t OpLedger::Attempt() {
  failed_.push_back(0);
  return attempted() - 1;
}

void OpLedger::Fail(int64_t op, const std::string& reason) {
  if (op < 0 || op >= attempted()) return;
  if (failed_[static_cast<size_t>(op)] != 0) return;
  failed_[static_cast<size_t>(op)] = 1;
  ++num_failed_;
  reasons_.push_back("op " + std::to_string(op) + ": " + reason);
}

double HostLoopMillis() {
  const auto start = std::chrono::steady_clock::now();
  // xorshift64 over a fixed iteration count.
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_host_loop_sink = x;
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN/inf; a non-finite value is reported as 0 and the run
    // is marked incorrect by the caller's checks.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace lanbench
