#include "ged/ged_exact.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "ged/ged_scratch.h"

namespace lan {
namespace {

/// An attempt whose state arena or open list grew past this many entries
/// gives the storage back when it ends, so a thread that once ran a long
/// (typically capped) attempt does not keep its high-water mark: a 10,000
/// expansion AIDS attempt peaks near 57k states (1.4 MB) plus a 1 MB heap.
constexpr size_t kRetainedEntries = size_t{1} << 14;

enum class Outcome { kProven, kExpansionBudget, kExhausted };

struct Attempt {
  Outcome outcome = Outcome::kProven;
  double distance = 0.0;
  int64_t expansions = 0;
  /// Arena index of the goal state; -1 when no goal was reached (the bound
  /// was proven optimal, or one graph is empty).
  int32_t goal = -1;
};

/// Open-list order: f ascending, deeper states first on ties. The heap
/// operations are a function of these comparison outcomes alone.
bool PopsAfter(const AStarOpenEntry& a, const AStarOpenEntry& b) {
  if (a.f != b.f) return a.f > b.f;
  return a.depth < b.depth;
}

/// A* over node maps of g1 (n1 <= n2) into g2, in the states and buffers of
/// `s`. Nodes of g1 are mapped in a fixed order (degree descending); a state
/// at depth d maps the first d of them. Children of a state are generated
/// v ascending over the unused g2 nodes, then ε, and enter the heap in that
/// order.
class AStarSearch {
 public:
  AStarSearch(const Graph& g1, const Graph& g2, const ExactGedOptions& options,
              GedScratch* s)
      : g1_(g1),
        g2_(g2),
        options_(options),
        costs_(options.costs),
        s_(*s),
        n1_(g1.NumNodes()),
        n2_(g2.NumNodes()),
        edges2_(g2.NumEdges()) {
    BuildOrder();
    BuildLabelTables();
  }

  Attempt Run() {
    std::vector<AStarState>& states = s_.astar_states;
    std::vector<AStarOpenEntry>& open = s_.astar_open;
    states.clear();
    open.clear();
    states.push_back(AStarState{0.0, 0, -1, kEpsilon});
    {
      // The root: every g2 node unused.
      std::vector<int32_t>& unused = s_.astar_unused_hist;
      std::fill(unused.begin(), unused.end(), 0);
      for (NodeId v = 0; v < n2_; ++v) {
        ++unused[static_cast<size_t>(s_.astar_dense2[static_cast<size_t>(v)])];
      }
      const double h = Heuristic(n1_, n2_, CommonLabels(0),
                                 s_.astar_suffix_edges1[0], edges2_);
      open.push_back(AStarOpenEntry{h, 0, 0});
      std::push_heap(open.begin(), open.end(), PopsAfter);
    }

    Attempt attempt;
    const double bound = options_.upper_bound;
    while (!open.empty()) {
      std::pop_heap(open.begin(), open.end(), PopsAfter);
      const AStarOpenEntry top = open.back();
      open.pop_back();
      if (bound >= 0.0 && top.f > bound + 1e-9) {
        // Every remaining completion costs more than the known achievable
        // upper bound, so the optimum is exactly that bound.
        attempt.distance = bound;
        attempt.expansions = expansions_;
        return attempt;
      }
      if (top.depth == n1_) {
        attempt.distance = states[static_cast<size_t>(top.state)].g;
        attempt.expansions = expansions_;
        attempt.goal = top.state;
        return attempt;
      }
      ++expansions_;
      if (options_.max_expansions > 0 &&
          expansions_ > options_.max_expansions) {
        attempt.outcome = Outcome::kExpansionBudget;
        return attempt;
      }
      Expand(top);
    }
    if (bound >= 0.0) {
      // All states were pruned against the bound: the optimum equals it.
      attempt.distance = bound;
      attempt.expansions = expansions_;
      return attempt;
    }
    attempt.outcome = Outcome::kExhausted;
    return attempt;
  }

 private:
  void BuildOrder() {
    // Process high-degree nodes first: their edge costs resolve earlier,
    // which tightens g and prunes faster. Ties keep node order.
    std::vector<NodeId>& order = s_.astar_order;
    order.resize(static_cast<size_t>(n1_));
    for (NodeId v = 0; v < n1_; ++v) order[static_cast<size_t>(v)] = v;
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      const int32_t da = g1_.Degree(a);
      const int32_t db = g1_.Degree(b);
      return da != db ? da > db : a < b;
    });
    s_.astar_depth_of.resize(static_cast<size_t>(n1_));
    for (int32_t d = 0; d < n1_; ++d) {
      s_.astar_depth_of[static_cast<size_t>(order[static_cast<size_t>(d)])] = d;
    }
    // suffix_edges1[d] = #g1 edges with >=1 endpoint at depth >= d: an edge
    // counts for every d up to its later endpoint's depth.
    std::vector<int64_t>& suffix = s_.astar_suffix_edges1;
    suffix.assign(static_cast<size_t>(n1_) + 1, 0);
    for (NodeId a = 0; a < n1_; ++a) {
      for (NodeId b : g1_.Neighbors(a)) {
        if (b < a) continue;
        const int32_t latest = std::max(DepthOf(a), DepthOf(b));
        ++suffix[0];
        --suffix[static_cast<size_t>(latest) + 1];
      }
    }
    for (int32_t d = 1; d <= n1_; ++d) {
      suffix[static_cast<size_t>(d)] += suffix[static_cast<size_t>(d) - 1];
    }
  }

  void BuildLabelTables() {
    std::vector<Label>& labels = s_.astar_labels;
    labels.assign(g1_.labels().begin(), g1_.labels().end());
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
    num_label_ids_ = labels.size() + 1;
    const auto dense = [&](Label l) -> int32_t {
      const auto it = std::lower_bound(labels.begin(), labels.end(), l);
      return it != labels.end() && *it == l
                 ? static_cast<int32_t>(it - labels.begin()) + 1
                 : 0;
    };
    s_.astar_dense2.resize(static_cast<size_t>(n2_));
    for (NodeId v = 0; v < n2_; ++v) {
      s_.astar_dense2[static_cast<size_t>(v)] = dense(g2_.label(v));
    }
    // Row d = row d + 1 plus order[d]'s label; row n1 is empty.
    std::vector<int32_t>& hist = s_.astar_suffix_hist;
    hist.assign((static_cast<size_t>(n1_) + 1) * num_label_ids_, 0);
    for (int32_t d = n1_ - 1; d >= 0; --d) {
      int32_t* row = hist.data() + static_cast<size_t>(d) * num_label_ids_;
      std::copy(row + num_label_ids_, row + 2 * num_label_ids_, row);
      ++row[dense(g1_.label(s_.astar_order[static_cast<size_t>(d)]))];
    }
    s_.astar_unused_hist.resize(num_label_ids_);
    s_.astar_images.resize(static_cast<size_t>(n1_));
    s_.astar_used_by.resize(static_cast<size_t>(n2_));
    s_.astar_mark.assign(static_cast<size_t>(n2_), 0);
  }

  int32_t DepthOf(NodeId v) const {
    return s_.astar_depth_of[static_cast<size_t>(v)];
  }

  const int32_t* SuffixHist(int32_t depth) const {
    return s_.astar_suffix_hist.data() +
           static_cast<size_t>(depth) * num_label_ids_;
  }

  /// Σ_l min(suffix[depth][l], unused[l]): the g1 nodes at depth >= `depth`
  /// that an unused g2 node with the same label could take.
  int64_t CommonLabels(int32_t depth) const {
    const int32_t* suffix = SuffixHist(depth);
    const int32_t* unused = s_.astar_unused_hist.data();
    int64_t common = 0;
    for (size_t l = 0; l < num_label_ids_; ++l) {
      common += std::min(suffix[l], unused[l]);
    }
    return common;
  }

  /// Weighted admissible bound on the unmapped remainder: each mismatched
  /// pair costs at least min(relabel, delete+insert); each surplus node at
  /// least one insert/delete; each surplus edge at least one edge op.
  double Heuristic(int32_t remaining1, int32_t remaining2, int64_t common,
                   int64_t rem_edges1, int64_t rem_edges2) const {
    const int64_t mismatched =
        std::min(remaining1, remaining2) >= common
            ? std::min(remaining1, remaining2) - common
            : 0;
    double h = static_cast<double>(mismatched) * costs_.MinMismatchCost();
    if (remaining1 > remaining2) {
      h += (remaining1 - remaining2) * costs_.node_delete;
    } else {
      h += (remaining2 - remaining1) * costs_.node_insert;
    }
    if (rem_edges1 > rem_edges2) {
      h += (rem_edges1 - rem_edges2) * costs_.edge_delete;
    } else {
      h += (rem_edges2 - rem_edges1) * costs_.edge_insert;
    }
    return h;
  }

  /// Pushes every child of `entry` that the bound does not prune. A child's
  /// g is its parent's plus the edits the new pair resolves: the node
  /// substitution or deletion, the edges from u to already-mapped g1 nodes
  /// without an image edge (deletions), and the edges from v to already-used
  /// g2 nodes that are no image of such an edge (insertions). Each delta is
  /// summed in the order relabel, deletions, insertions, one addend at a
  /// time.
  void Expand(const AStarOpenEntry& entry) {
    const int32_t depth = entry.depth;
    // A copy: pushing children may move the arena.
    const AStarState parent = s_.astar_states[static_cast<size_t>(entry.state)];
    NodeId* images = s_.astar_images.data();
    int32_t* used_by = s_.astar_used_by.data();
    uint8_t* mark = s_.astar_mark.data();

    // The parent's map, from its chain of images.
    std::fill(s_.astar_used_by.begin(), s_.astar_used_by.end(), -1);
    int32_t at = entry.state;
    for (int32_t d = depth - 1; d >= 0; --d) {
      const AStarState& state = s_.astar_states[static_cast<size_t>(at)];
      images[d] = state.image;
      if (state.image != kEpsilon) used_by[state.image] = d;
      at = state.parent;
    }
    std::vector<int32_t>& unused = s_.astar_unused_hist;
    std::fill(unused.begin(), unused.end(), 0);
    int32_t remaining2 = 0;
    for (NodeId v = 0; v < n2_; ++v) {
      if (used_by[v] >= 0) continue;
      ++unused[static_cast<size_t>(s_.astar_dense2[static_cast<size_t>(v)])];
      ++remaining2;
    }

    // Every child sits at depth + 1. Mapping u to v takes one unused node of
    // v's label away, which lowers the label overlap by one iff that label's
    // unused count does not exceed its suffix count; ε keeps it.
    const int32_t child_depth = depth + 1;
    const bool goal = child_depth == n1_;
    const int32_t* child_suffix = SuffixHist(child_depth);
    const int64_t common_all = CommonLabels(child_depth);
    const int32_t remaining1 = n1_ - child_depth;
    const int64_t rem_edges1 =
        s_.astar_suffix_edges1[static_cast<size_t>(child_depth)];

    const NodeId u = s_.astar_order[static_cast<size_t>(depth)];
    const Label label_u = g1_.label(u);
    // u's mapped neighbors, and their images marked in g2.
    int32_t back = 0;
    for (NodeId t : g1_.Neighbors(u)) {
      const int32_t dt = DepthOf(t);
      if (dt >= depth) continue;
      ++back;
      if (images[dt] != kEpsilon) mark[images[dt]] = 1;
    }

    for (NodeId v = 0; v <= n2_; ++v) {
      const bool is_epsilon = (v == n2_);
      if (!is_epsilon && used_by[v] >= 0) continue;
      double delta = 0.0;
      int64_t fully_used_edges2 = parent.fully_used_edges2;
      int32_t child_remaining2 = remaining2;
      int64_t common = common_all;
      if (is_epsilon) {
        delta += costs_.node_delete;
        for (int32_t i = 0; i < back; ++i) delta += costs_.edge_delete;
      } else {
        // An edge {t, u} survives iff v is adjacent to t's (marked) image;
        // an edge {w, v} to a used w is inserted iff w is not marked.
        int32_t kept = 0;
        int32_t inserted = 0;
        for (NodeId w : g2_.Neighbors(v)) {
          if (mark[w]) {
            ++kept;
          } else if (used_by[w] >= 0) {
            ++inserted;
          }
        }
        if (label_u != g2_.label(v)) delta += costs_.node_relabel;
        for (int32_t i = kept; i < back; ++i) delta += costs_.edge_delete;
        for (int32_t i = 0; i < inserted; ++i) delta += costs_.edge_insert;
        fully_used_edges2 += kept + inserted;
        --child_remaining2;
        const size_t lv =
            static_cast<size_t>(s_.astar_dense2[static_cast<size_t>(v)]);
        if (unused[lv] <= child_suffix[lv]) --common;
      }
      double g = parent.g + delta;
      double f;
      if (goal) {
        // Goal completion: charge insertions for everything never used.
        g += child_remaining2 * costs_.node_insert;
        g += static_cast<double>(edges2_ - fully_used_edges2) *
             costs_.edge_insert;
        f = g;
      } else {
        f = g + Heuristic(remaining1, child_remaining2, common, rem_edges1,
                          edges2_ - fully_used_edges2);
      }
      if (options_.upper_bound >= 0.0 && f > options_.upper_bound + 1e-9) {
        continue;
      }
      s_.astar_states.push_back(AStarState{g, fully_used_edges2, entry.state,
                                           is_epsilon ? kEpsilon : v});
      s_.astar_open.push_back(AStarOpenEntry{
          f, child_depth, static_cast<int32_t>(s_.astar_states.size() - 1)});
      std::push_heap(s_.astar_open.begin(), s_.astar_open.end(), PopsAfter);
    }

    for (NodeId t : g1_.Neighbors(u)) {
      const int32_t dt = DepthOf(t);
      if (dt < depth && images[dt] != kEpsilon) mark[images[dt]] = 0;
    }
  }

  const Graph& g1_;
  const Graph& g2_;
  const ExactGedOptions& options_;
  const GedCosts& costs_;
  GedScratch& s_;
  const int32_t n1_;
  const int32_t n2_;
  const int64_t edges2_;
  size_t num_label_ids_ = 0;
  int64_t expansions_ = 0;
};

/// The search ExactGed runs: the closed form when g1 is empty, else A* from
/// the smaller graph (shallower tree, same optimum; the reversed problem
/// trades deletions for insertions).
Attempt RunAttempt(const Graph& g1, const Graph& g2,
                   const ExactGedOptions& options, GedScratch* s) {
  if (g1.NumNodes() == 0) {
    // The only edit path inserts all of g2 (the root state would otherwise
    // be a goal without the completion charge).
    Attempt attempt;
    attempt.distance = g2.NumNodes() * options.costs.node_insert +
                       g2.NumEdges() * options.costs.edge_insert;
    return attempt;
  }
  if (g1.NumNodes() > g2.NumNodes()) {
    ExactGedOptions swapped_options = options;
    swapped_options.costs = options.costs.Swapped();
    return RunAttempt(g2, g1, swapped_options, s);
  }
  return AStarSearch(g1, g2, options, s).Run();
}

/// The retained-capacity rule (see kRetainedEntries).
void ReleaseLargeArena(GedScratch* s) {
  if (s->astar_states.capacity() > kRetainedEntries) {
    std::vector<AStarState>().swap(s->astar_states);
  }
  if (s->astar_open.capacity() > kRetainedEntries) {
    std::vector<AStarOpenEntry>().swap(s->astar_open);
  }
}

}  // namespace

bool ExactGedDistance(const Graph& g1, const Graph& g2,
                      const ExactGedOptions& options, GedScratch* scratch,
                      double* distance) {
  const Attempt attempt = RunAttempt(g1, g2, options, scratch);
  ReleaseLargeArena(scratch);
  if (attempt.outcome != Outcome::kProven) return false;
  *distance = attempt.distance;
  return true;
}

Result<ExactGedResult> ExactGed(const Graph& g1, const Graph& g2,
                                const ExactGedOptions& options) {
  GedScratch& s = ThreadGedScratch();
  const Attempt attempt = RunAttempt(g1, g2, options, &s);
  ExactGedResult result;
  result.distance = attempt.distance;
  result.expansions = attempt.expansions;
  const bool swapped = g1.NumNodes() > g2.NumNodes();
  if (attempt.goal >= 0 || std::min(g1.NumNodes(), g2.NumNodes()) == 0) {
    // The goal's chain holds one pair per depth of the searched (smaller)
    // graph's order; a swapped search maps g2 nodes into g1, so invert.
    result.mapping.image.assign(static_cast<size_t>(g1.NumNodes()), kEpsilon);
    int32_t at = attempt.goal;
    for (int32_t d = std::min(g1.NumNodes(), g2.NumNodes()) - 1; d >= 0;
         --d) {
      const AStarState& state = s.astar_states[static_cast<size_t>(at)];
      const NodeId x = s.astar_order[static_cast<size_t>(d)];
      if (!swapped) {
        result.mapping.image[static_cast<size_t>(x)] = state.image;
      } else if (state.image != kEpsilon) {
        result.mapping.image[static_cast<size_t>(state.image)] = x;
      }
      at = state.parent;
    }
  }
  ReleaseLargeArena(&s);
  switch (attempt.outcome) {
    case Outcome::kProven:
      return result;
    case Outcome::kExpansionBudget:
      return Status::Timeout("A* GED: expansion budget exhausted");
    case Outcome::kExhausted:
      break;
  }
  return Status::Internal("A* GED: search space exhausted without goal");
}

}  // namespace lan
