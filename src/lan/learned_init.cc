#include "lan/learned_init.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace lan {

GraphId LanInitialSelector::Select(DistanceOracle* oracle, Rng* rng) {
  SearchStats* stats = oracle->stats();
  TraceSink* sink = oracle->trace();
  predicted_.clear();

  // 1) Cluster-level pruning with M_c.
  std::vector<float> counts;
  {
    StageSpan span(oracle->profile(), Stage::kModelInference);
    const std::vector<float> query_embedding =
        EmbedGraph(oracle->query(), *embedding_options_);
    counts = cluster_model_->PredictCounts(query_embedding,
                                           clusters_->centroids, sink);
  }
  std::vector<size_t> local_order;
  std::vector<size_t>& cluster_order =
      scratch_ != nullptr ? scratch_->order_buffer : local_order;
  cluster_order.resize(counts.size());
  std::iota(cluster_order.begin(), cluster_order.end(), 0);
  std::stable_sort(cluster_order.begin(), cluster_order.end(),
                   [&](size_t a, size_t b) { return counts[a] > counts[b]; });
  const size_t scan = std::min(cluster_order.size(),
                               static_cast<size_t>(options_.max_clusters));
  if (sink != nullptr) {
    // Which clusters M_c kept (members get scored by M_nh) vs discarded.
    for (size_t i = 0; i < cluster_order.size(); ++i) {
      const size_t c = cluster_order[i];
      TraceEvent event;
      event.type = i < scan ? TraceEventType::kClusterScore
                            : TraceEventType::kClusterPrune;
      event.id = static_cast<int64_t>(c);
      event.value = static_cast<double>(counts[c]);
      event.aux = static_cast<double>(clusters_->members[c].size());
      sink->Record(event);
    }
  }

  // 2) Member-level prediction with M_nh.
  const int64_t nh_rows = PredictKeptSet(
      oracle, std::span<const size_t>(cluster_order.data(), scan));
  if (stats != nullptr) {
    stats->model_inferences += nh_rows + static_cast<int64_t>(counts.size());
    stats->cross_encodings += nh_rows;
  }

  // 3) Sample s candidates and take the closest (true distances; counted).
  if (predicted_.empty()) {
    // Bounded by the clustering's coverage, not the database size: under a
    // concurrent insert the database may already hold graphs this query's
    // pinned snapshot does not index.
    const GraphId fallback = static_cast<GraphId>(rng->NextBounded(
        static_cast<uint64_t>(clusters_->assignment.size())));
    if (sink != nullptr) {
      TraceEvent event;
      event.type = TraceEventType::kInitSelect;
      event.id = fallback;
      event.aux = 0.0;  // empty predicted neighborhood: random fallback
      event.detail = "random_fallback";
      sink->Record(event);
    }
    return fallback;
  }
  const size_t s =
      std::min(predicted_.size(), static_cast<size_t>(options_.samples));
  std::vector<size_t> picks =
      rng->SampleWithoutReplacement(predicted_.size(), s);
  GraphId best = kInvalidGraphId;
  double best_d = 0.0;
  for (size_t pick : picks) {
    const GraphId id = predicted_[pick];
    const double d = oracle->Distance(id);
    if (sink != nullptr) {
      TraceEvent event;
      event.type = TraceEventType::kInitCandidate;
      event.id = id;
      event.value = d;
      sink->Record(event);
    }
    if (best == kInvalidGraphId || d < best_d ||
        (d == best_d && id < best)) {
      best = id;
      best_d = d;
    }
  }
  if (sink != nullptr) {
    TraceEvent event;
    event.type = TraceEventType::kInitSelect;
    event.id = best;
    event.value = best_d;
    event.aux = static_cast<double>(predicted_.size());
    sink->Record(event);
  }
  return best;
}

int64_t LanInitialSelector::PredictKeptSet(DistanceOracle* oracle,
                                           std::span<const size_t> scanned) {
  // Gather every member of the scanned clusters (in scan order) and score
  // them in one batched inference pass against the query encoded once.
  std::vector<GraphId> local_candidates;
  std::vector<GraphId>& candidates =
      scratch_ != nullptr ? scratch_->init_candidates : local_candidates;
  candidates.clear();
  for (size_t c : scanned) {
    for (int32_t member : clusters_->members[c]) {
      candidates.push_back(static_cast<GraphId>(member));
    }
  }
  if (candidates.empty()) return 0;
  if (TraceSink* sink = oracle->trace(); sink != nullptr) {
    TraceEvent event;
    event.type = TraceEventType::kModelInference;
    event.detail = "M_nh";
    event.value = static_cast<double>(candidates.size());  // encodings
    event.aux = static_cast<double>(candidates.size());
    sink->Record(event);
  }
  {
    StageSpan span(oracle->profile(), Stage::kModelInference);
    const PairScorer& scorer = nh_model_->scorer();
    const QueryEncodingCache& query_encoding =
        scorer.EncodeQuery(query_cg_, use_compressed_);
    if (use_compressed_) {
      cg_batch_.clear();
      for (GraphId id : candidates) {
        cg_batch_.push_back(&(*db_cgs_)[static_cast<size_t>(id)]);
      }
      scorer.InferCross(cg_batch_, query_encoding, &cross_, oracle->pool());
    } else {
      raw_batch_.clear();
      for (GraphId id : candidates) raw_batch_.push_back(&oracle->db().Get(id));
      scorer.InferCross(raw_batch_, query_encoding, &cross_, oracle->pool());
    }
    nh_model_->PredictProbs(cross_, &probs_);
  }
  const float threshold = nh_model_->calibrated_threshold();
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (probs_[i] >= threshold) predicted_.push_back(candidates[i]);
  }
  return static_cast<int64_t>(candidates.size());
}

}  // namespace lan
