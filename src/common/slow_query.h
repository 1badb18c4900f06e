#ifndef LAN_COMMON_SLOW_QUERY_H_
#define LAN_COMMON_SLOW_QUERY_H_

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "common/stats.h"
#include "common/trace.h"

namespace lan {

/// \brief Everything retained about one slow query: identity, latency, the
/// stage breakdown (inside `stats.stages`), and the full event trace when
/// the query was sampled (empty otherwise).
struct SlowQueryRecord {
  int64_t query_id = -1;
  double latency_seconds = 0.0;
  uint64_t epoch = 0;
  SearchStats stats;
  QueryTrace trace;
};

/// \brief Retention of the top-K slowest queries since the last drain.
///
/// Offer() keeps the record only if it beats the current floor (one
/// min-heap of up to `capacity` records), so a fast query costs one
/// try-beat-the-floor comparison. Drain() returns the retained records
/// sorted slowest-first (ties by query id) and resets the ring — the
/// /slowz endpoint is therefore a consuming read, like a counter delta:
/// each scrape reports the slowest queries since the previous scrape.
///
/// Thread-safe: one mutex, taken by the serving loop's Offer and a
/// scrape's Drain.
class SlowQueryRing {
 public:
  explicit SlowQueryRing(size_t capacity) : capacity_(capacity) {}

  /// Keeps `record` if it ranks among the slowest; drops it (and frees its
  /// trace) otherwise.
  void Offer(SlowQueryRecord record);

  /// The top-`capacity()` slowest-first; empties the ring.
  std::vector<SlowQueryRecord> Drain();

  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  std::mutex mu_;
  /// Min-heap by latency (heap top = fastest retained record).
  std::vector<SlowQueryRecord> records_;
};

/// Writes records as JSON lines: for each record one
/// `{"type":"slow_query",...}` header line (latency, ndc, stage
/// breakdown) followed by the query's trace events, all carrying the
/// record's query_id.
void WriteSlowQueryJsonLines(const std::vector<SlowQueryRecord>& records,
                             std::ostream& out);

}  // namespace lan

#endif  // LAN_COMMON_SLOW_QUERY_H_
