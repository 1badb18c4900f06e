#include "common/trace.h"

#include <ostream>
#include <sstream>

#include "common/logging.h"

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

SamplingTraceSink::SamplingTraceSink(int64_t every) : every_(every) {
  LAN_CHECK_GE(every, 1) << "trace sampling rate";
}

}  // namespace lan
