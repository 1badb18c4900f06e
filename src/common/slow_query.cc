#include "common/slow_query.h"

#include <algorithm>
#include <ostream>

namespace lan {
namespace {

/// Heap comparator making the *fastest* retained record the heap top, so
/// replacing the floor is pop/push of the front.
bool Slower(const SlowQueryRecord& a, const SlowQueryRecord& b) {
  return a.latency_seconds > b.latency_seconds;
}

}  // namespace

void SlowQueryRing::Offer(SlowQueryRecord record) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() < capacity_) {
    records_.push_back(std::move(record));
    std::push_heap(records_.begin(), records_.end(), Slower);
    return;
  }
  if (record.latency_seconds <= records_.front().latency_seconds) return;
  std::pop_heap(records_.begin(), records_.end(), Slower);
  records_.back() = std::move(record);
  std::push_heap(records_.begin(), records_.end(), Slower);
}

std::vector<SlowQueryRecord> SlowQueryRing::Drain() {
  std::vector<SlowQueryRecord> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all.swap(records_);
  }
  std::sort(all.begin(), all.end(),
            [](const SlowQueryRecord& a, const SlowQueryRecord& b) {
              if (a.latency_seconds != b.latency_seconds) {
                return a.latency_seconds > b.latency_seconds;
              }
              return a.query_id < b.query_id;  // deterministic tie-break
            });
  return all;
}

void WriteSlowQueryJsonLines(const std::vector<SlowQueryRecord>& records,
                             std::ostream& out) {
  for (const SlowQueryRecord& record : records) {
    out.precision(9);
    out << "{\"type\":\"slow_query\",\"query_id\":" << record.query_id
        << ",\"latency_seconds\":" << record.latency_seconds
        << ",\"epoch\":" << record.epoch << ",\"ndc\":" << record.stats.ndc
        << ",\"routing_steps\":" << record.stats.routing_steps
        << ",\"cache_hits\":" << record.stats.cache_hits
        << ",\"trace_events\":" << record.trace.events().size()
        << ",\"stages\":" << record.stats.stages.ToJson() << "}\n";
    record.trace.WriteJsonLines(out, record.query_id);
  }
}

}  // namespace lan
