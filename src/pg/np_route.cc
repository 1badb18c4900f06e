#include "pg/np_route.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/logging.h"
#include "pg/candidate_pool.h"

namespace lan {
namespace {

class NpRouter {
 public:
  NpRouter(const ProximityGraph& pg, DistanceOracle* oracle,
           NeighborRanker* ranker, const NpRouteOptions& options,
           SearchScratch* scratch)
      : pg_(pg), oracle_(oracle), ranker_(ranker), options_(options),
        scratch_(scratch), states_(&scratch->route_states),
        pool_(&scratch->route_states, &scratch->pool_entries),
        batches_(&scratch->batches), batch_states_(&scratch->batch_states),
        sink_(oracle->trace()) {
    batches_->Clear();
    batch_states_->clear();
    scratch->batch_slots.Reset(pg.NumNodes());
  }

  void Run(GraphId init, RoutingResult* out) {
    // Distances spent before routing (init selection) are not charged to
    // the first route step's per-step NDC.
    ndc_at_last_step_ = CurrentNdc();
    out->results.clear();
    out->routing_steps = 0;
    pool_.Add(init, oracle_->Distance(init));

    // ---- Stage 1 (Algorithm 2, lines 5-11): greedy descent. ----
    GraphId current = pool_.Best();
    while (current != kInvalidGraphId && !Explored(current)) {
      RankExplore(current, pool_.DistanceOf(current));
      MarkExplored(current);
      pool_.Resize(options_.beam_size);
      current = pool_.Best();
    }

    // ---- Stage 2 (lines 13-29): backtracking under growing gamma. ----
    const GraphId first_local_opt = pool_.Best();
    double gamma = pool_.DistanceOf(first_local_opt) + options_.step_size;
    for (;;) {
      for (GraphId g : ExploredNodesSorted()) {
        AllQualifiedNeighbors(g, gamma);
      }
      pool_.Resize(options_.beam_size);
      if (pool_.AllExplored()) break;
      for (;;) {
        const GraphId next = pool_.BestUnexploredWithin(gamma);
        if (next == kInvalidGraphId) break;
        RankExplore(next, gamma);
        MarkExplored(next);
        pool_.Resize(options_.beam_size);
      }
      gamma += options_.step_size;
    }

    pool_.TopKInto(options_.k, options_.live, &scratch_->pool_sort,
                   &out->results);
    out->routing_steps = routing_steps_;
    if (oracle_->stats() != nullptr) {
      oracle_->stats()->routing_steps += routing_steps_;
    }
  }

 private:
  bool Explored(GraphId id) const { return states_->Explored(id); }

  void MarkExplored(GraphId id) {
    states_->MarkExplored(id, clock_++);
    if (sink_ != nullptr) {
      TraceEvent event;
      event.type = TraceEventType::kRouteStep;
      event.id = id;
      event.step = routing_steps_;
      const double* d = oracle_->FindCached(id);
      event.value = d != nullptr ? *d : 0.0;
      event.aux = static_cast<double>(CurrentNdc() - ndc_at_last_step_);
      ndc_at_last_step_ = CurrentNdc();
      sink_->Record(event);
    }
    ++routing_steps_;
  }

  /// NDC so far (0 when the caller passed no stats block).
  int64_t CurrentNdc() const {
    SearchStats* stats = oracle_->stats();
    return stats != nullptr ? stats->ndc : 0;
  }

  const std::vector<GraphId>& ExploredNodesSorted() const {
    std::vector<GraphId>& out = scratch_->id_buffer;
    out.assign(states_->explored_ids().begin(),
               states_->explored_ids().end());
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Slot of `node`'s BatchState, ranking its neighbors into the arena on
  /// the first visit. The slot stays valid for the query; a reference to
  /// the state does not outlive the next call, which may grow the arena.
  uint32_t BatchSlot(GraphId node) {
    StampedDenseMap<uint32_t>& slots = scratch_->batch_slots;
    if (const uint32_t* slot = slots.Find(node)) return *slot;
    // The ranker is about to scan this node's adjacency row.
    pg_.PrefetchNeighbors(node);
    BatchState st;
    st.first_batch = static_cast<uint32_t>(batches_->num_batches());
    ranker_->RankNeighbors(pg_, node, oracle_->query(), batches_);
    st.num_batches =
        static_cast<uint32_t>(batches_->num_batches()) - st.first_batch;
    const uint32_t slot = static_cast<uint32_t>(batch_states_->size());
    batch_states_->push_back(st);
    slots.Insert(node, slot);
    return slot;
  }

  /// Members of batch j of the node whose state is `st`.
  std::span<const GraphId> Batch(const BatchState& st, uint32_t j) const {
    return batches_->Batch(st.first_batch + j);
  }

  /// Opens batch j of `node`: computes distances and adds every member to
  /// W. Returns the largest member distance.
  double OpenBatch(GraphId node, BatchState* st, uint32_t j) {
    double farthest = -1.0;
    const std::span<const GraphId> members = Batch(*st, j);
    for (GraphId member : members) {
      const double d = oracle_->Distance(member);
      pool_.Add(member, d);
      farthest = std::max(farthest, d);
    }
    st->opened = j + 1;
    st->farthest_opened = std::max(st->farthest_opened, farthest);
    if (sink_ != nullptr) {
      TraceEvent event;
      event.type = TraceEventType::kBatchOpen;
      event.id = node;
      event.step = static_cast<int64_t>(j);
      event.value = farthest;
      event.aux = static_cast<double>(members.size());
      sink_->Record(event);
    }
    return farthest;
  }

  /// Records that the remaining batches of `node` were pruned under
  /// threshold `gamma` (the prune that makes np_route beat Algorithm 1).
  void RecordGammaPrune(GraphId node, const BatchState& st, double gamma) {
    if (sink_ == nullptr || st.opened >= st.num_batches) return;
    TraceEvent event;
    event.type = TraceEventType::kGammaPrune;
    event.id = node;
    event.step = static_cast<int64_t>(st.opened);
    event.value = gamma;
    event.aux = static_cast<double>(st.num_batches - st.opened);
    sink_->Record(event);
  }

  /// Algorithm 4.
  void RankExplore(GraphId node, double gamma) {
    // Nothing below grows the arena, so the reference stays valid.
    BatchState& st = (*batch_states_)[BatchSlot(node)];
    if (st.opened > 0 && st.farthest_opened >= gamma) {
      RecordGammaPrune(node, st, gamma);
      return;
    }
    for (uint32_t j = st.opened; j < st.num_batches; ++j) {
      const double farthest = OpenBatch(node, &st, j);
      if (farthest >= gamma) {
        RecordGammaPrune(node, st, gamma);
        return;
      }
    }
  }

  /// Algorithm 3.
  void AllQualifiedNeighbors(GraphId node, double gamma) {
    BatchState& st = (*batch_states_)[BatchSlot(node)];
    // Lines 3-10: re-add unexplored members of already-opened batches.
    for (uint32_t j = 0; j < st.opened; ++j) {
      bool added_far = false;
      for (GraphId member : Batch(st, j)) {
        if (Explored(member)) continue;
        const double d = oracle_->Distance(member);  // cached
        pool_.Add(member, d);
        if (d >= gamma) added_far = true;
      }
      if (added_far) {
        RecordGammaPrune(node, st, gamma);
        return;
      }
    }
    // Lines 11-18: open further batches.
    for (uint32_t j = st.opened; j < st.num_batches; ++j) {
      const double farthest = OpenBatch(node, &st, j);
      if (farthest >= gamma) {
        RecordGammaPrune(node, st, gamma);
        return;
      }
    }
  }

  const ProximityGraph& pg_;
  DistanceOracle* oracle_;
  NeighborRanker* ranker_;
  const NpRouteOptions& options_;
  SearchScratch* scratch_;
  RouteStateArray* states_;
  CandidatePool pool_;
  RankedBatches* batches_;
  std::vector<BatchState>* batch_states_;
  int64_t clock_ = 0;
  int64_t routing_steps_ = 0;
  TraceSink* sink_;
  int64_t ndc_at_last_step_ = 0;
};

}  // namespace

void NpRouteInto(const ProximityGraph& pg, DistanceOracle* oracle,
                 NeighborRanker* ranker, GraphId init,
                 const NpRouteOptions& options, SearchScratch* scratch,
                 RoutingResult* out) {
  LAN_CHECK_GE(init, 0);
  LAN_CHECK_LT(init, pg.NumNodes());
  LAN_CHECK_GT(options.step_size, 0.0);
  // Nested GED / rerank / model-inference spans pause this one, so the
  // routing stage reports the walk's own bookkeeping time.
  StageSpan span(oracle->profile(), Stage::kRouting);
  ScratchLease lease(scratch);
  lease.get()->route_states.Reset(pg.NumNodes());
  NpRouter router(pg, oracle, ranker, options, lease.get());
  router.Run(init, out);
}

RoutingResult NpRoute(const ProximityGraph& pg, DistanceOracle* oracle,
                      NeighborRanker* ranker, GraphId init,
                      const NpRouteOptions& options, SearchScratch* scratch) {
  RoutingResult out;
  NpRouteInto(pg, oracle, ranker, init, options, scratch, &out);
  return out;
}

}  // namespace lan
