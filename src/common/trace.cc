#include "common/trace.h"

#include <ostream>
#include <sstream>

namespace lan {

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kQueryBegin:
      return "query_begin";
    case TraceEventType::kClusterScore:
      return "cluster_score";
    case TraceEventType::kClusterPrune:
      return "cluster_prune";
    case TraceEventType::kInitCandidate:
      return "init_candidate";
    case TraceEventType::kInitSelect:
      return "init_select";
    case TraceEventType::kRouteStep:
      return "route_step";
    case TraceEventType::kBatchOpen:
      return "batch_open";
    case TraceEventType::kGammaPrune:
      return "gamma_prune";
    case TraceEventType::kDistance:
      return "distance";
    case TraceEventType::kModelInference:
      return "model_inference";
    case TraceEventType::kEpochPinned:
      return "epoch_pinned";
    case TraceEventType::kCacheHit:
      return "cache_hit";
    case TraceEventType::kQueryEnd:
      return "query_end";
  }
  return "?";
}

TraceSink::~TraceSink() = default;

void NullTraceSink::Record(const TraceEvent& event) { (void)event; }

TraceSink* NullTrace() {
  static NullTraceSink sink;
  return &sink;
}

int64_t QueryTrace::CountOf(TraceEventType type) const {
  int64_t count = 0;
  for (const TraceEvent& e : events_) {
    if (e.type == type) ++count;
  }
  return count;
}

std::string QueryTrace::EventToJson(const TraceEvent& event,
                                    int64_t query_id) {
  std::ostringstream out;
  out.precision(12);
  out << "{\"type\":\"" << TraceEventTypeName(event.type) << '"';
  if (query_id >= 0) out << ",\"query_id\":" << query_id;
  if (event.id >= 0) out << ",\"id\":" << event.id;
  if (event.step >= 0) out << ",\"step\":" << event.step;
  if (event.value != 0.0) out << ",\"value\":" << event.value;
  if (event.aux != 0.0) out << ",\"aux\":" << event.aux;
  if (event.detail != nullptr) out << ",\"detail\":\"" << event.detail << '"';
  if (event.detail2 != nullptr) {
    out << ",\"detail2\":\"" << event.detail2 << '"';
  }
  out << '}';
  return out.str();
}

void QueryTrace::WriteJsonLines(std::ostream& out, int64_t query_id) const {
  for (const TraceEvent& e : events_) {
    out << EventToJson(e, query_id) << '\n';
  }
}

SamplingTraceSink::SamplingTraceSink(int64_t every)
    : every_(every < 1 ? 1 : every) {}

QueryTrace* SamplingTraceSink::Begin(int64_t query_id) {
  if (!Sampled(query_id)) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (pool_.empty()) return new QueryTrace();
  QueryTrace* trace = pool_.back().release();
  pool_.pop_back();
  return trace;
}

void SamplingTraceSink::End(QueryTrace* trace) {
  if (trace == nullptr) return;
  trace->Clear();
  std::lock_guard<std::mutex> lock(mu_);
  pool_.emplace_back(trace);
}

}  // namespace lan
