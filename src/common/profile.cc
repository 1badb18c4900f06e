#include "common/profile.h"

#include <sstream>

#include "common/stats.h"

namespace lan {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kInitSelection:
      return "init_selection";
    case Stage::kRouting:
      return "routing";
    case Stage::kBeamSearch:
      return "beam_search";
    case Stage::kRerank:
      return "rerank";
    case Stage::kGed:
      return "ged";
    case Stage::kModelInference:
      return "model_inference";
    case Stage::kCacheLookup:
      return "cache_lookup";
    case Stage::kSnapshotPin:
      return "snapshot_pin";
  }
  return "unknown";
}

const char* StageMetricName(Stage stage) {
  switch (stage) {
    case Stage::kInitSelection:
      return "stage.init_selection_seconds";
    case Stage::kRouting:
      return "stage.routing_seconds";
    case Stage::kBeamSearch:
      return "stage.beam_search_seconds";
    case Stage::kRerank:
      return "stage.rerank_seconds";
    case Stage::kGed:
      return "stage.ged_seconds";
    case Stage::kModelInference:
      return "stage.model_inference_seconds";
    case Stage::kCacheLookup:
      return "stage.cache_lookup_seconds";
    case Stage::kSnapshotPin:
      return "stage.snapshot_pin_seconds";
  }
  return "stage.unknown_seconds";
}

std::string StageBreakdown::ToJson() const {
  std::ostringstream out;
  out.precision(9);
  out << '{';
  for (int i = 0; i < kNumStages; ++i) {
    if (i > 0) out << ',';
    const Stage stage = static_cast<Stage>(i);
    out << '"' << StageName(stage) << "\":{\"seconds\":"
        << seconds[static_cast<size_t>(i)]
        << ",\"count\":" << counts[static_cast<size_t>(i)] << '}';
  }
  out << '}';
  return out.str();
}

void StageHistograms::Register(MetricsRegistry* registry) {
  registry_ = registry;
  if (registry == nullptr) return;
  for (int i = 0; i < kNumStages; ++i) {
    ids_[static_cast<size_t>(i)] = registry->Histogram(
        StageMetricName(static_cast<Stage>(i)), MetricsRegistry::LatencyBounds());
  }
}

void StageHistograms::Observe(const StageBreakdown& breakdown) const {
  if (registry_ == nullptr) return;
  for (int i = 0; i < kNumStages; ++i) {
    if (breakdown.counts[static_cast<size_t>(i)] == 0) continue;
    registry_->Observe(ids_[static_cast<size_t>(i)],
                       breakdown.seconds[static_cast<size_t>(i)]);
  }
}

}  // namespace lan
