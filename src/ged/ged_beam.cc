#include "ged/ged_beam.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/logging.h"
#include "ged/ged_scratch.h"
#include "ged/node_mapping.h"

namespace lan {

// g1 nodes are mapped in natural order; level u extends every surviving
// state by u -> v for each unused g2 node v (ascending), then u -> ε. A
// child's cost is its parent's plus the edits the new pair resolves
// (mirroring the A* expansion in ged_exact.cc): the node substitution or
// deletion, the edges from u to already-mapped g1 nodes that have no image
// edge (deletions), and the edges from v to already-used g2 nodes that are
// no image of such an edge (insertions). Each delta is summed in the fixed
// order relabel, deletions, insertions, one addend at a time, so costs are
// the same bits whatever way the edits are counted.
void BeamGedInto(const Graph& g1, const Graph& g2, int beam_width,
                 const GedCosts& costs, ApproxGedResult* out) {
  LAN_CHECK_GE(beam_width, 1);
  const int32_t n1 = g1.NumNodes();
  const int32_t n2 = g2.NumNodes();
  const size_t s1 = static_cast<size_t>(n1);
  const size_t s2 = static_cast<size_t>(n2);
  GedScratch& s = ThreadGedScratch();
  std::vector<NodeId>& images = s.beam_images;
  std::vector<NodeId>& preimages = s.beam_preimages;
  std::vector<NodeId>& next_images = s.beam_next_images;
  std::vector<NodeId>& next_preimages = s.beam_next_preimages;
  std::vector<double>& g = s.beam_g;
  std::vector<BeamCandidate>& candidates = s.beam_candidates;
  std::vector<uint8_t>& mark = s.beam_mark;

  // The root: the empty map.
  images.resize(s1);
  preimages.assign(s2, kEpsilon);
  g.assign(1, 0.0);
  mark.assign(s2, 0);
  for (NodeId u = 0; u < n1; ++u) {
    // Neighbors are sorted, so u's already-mapped neighbors are a prefix.
    const std::span<const NodeId> nbrs = g1.Neighbors(u);
    const std::span<const NodeId> back = nbrs.first(static_cast<size_t>(
        std::lower_bound(nbrs.begin(), nbrs.end(), u) - nbrs.begin()));
    // u -> ε deletes u and every edge to a mapped node, in any state.
    double epsilon_delta = 0.0;
    epsilon_delta += costs.node_delete;
    for (size_t i = 0; i < back.size(); ++i) epsilon_delta += costs.edge_delete;

    candidates.clear();
    for (size_t p = 0; p < g.size(); ++p) {
      const NodeId* image = images.data() + p * s1;
      const NodeId* preimage = preimages.data() + p * s2;
      for (NodeId t : back) {
        if (image[t] != kEpsilon) mark[static_cast<size_t>(image[t])] = 1;
      }
      for (NodeId v = 0; v < n2; ++v) {
        if (preimage[v] != kEpsilon) continue;
        // An edge {t, u} survives iff image[t] is marked and adjacent to v;
        // an edge {w, v} to a used w is inserted iff w is not marked.
        size_t kept = 0;
        size_t inserted = 0;
        for (NodeId w : g2.Neighbors(v)) {
          if (mark[static_cast<size_t>(w)]) {
            ++kept;
          } else if (preimage[w] != kEpsilon) {
            ++inserted;
          }
        }
        double delta = 0.0;
        if (g1.label(u) != g2.label(v)) delta += costs.node_relabel;
        for (size_t i = kept; i < back.size(); ++i) delta += costs.edge_delete;
        for (size_t i = 0; i < inserted; ++i) delta += costs.edge_insert;
        candidates.push_back(
            BeamCandidate{g[p] + delta, static_cast<int32_t>(p), v});
      }
      candidates.push_back(
          BeamCandidate{g[p] + epsilon_delta, static_cast<int32_t>(p),
                        kEpsilon});
      for (NodeId t : back) {
        if (image[t] != kEpsilon) mark[static_cast<size_t>(image[t])] = 0;
      }
    }
    if (candidates.size() > static_cast<size_t>(beam_width)) {
      std::partial_sort(candidates.begin(), candidates.begin() + beam_width,
                        candidates.end(),
                        [](const BeamCandidate& a, const BeamCandidate& b) {
                          return a.g < b.g;
                        });
      candidates.resize(static_cast<size_t>(beam_width));
    }

    // The survivors become the next level's states, in candidate order.
    next_images.resize(candidates.size() * s1);
    next_preimages.resize(candidates.size() * s2);
    g.resize(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const BeamCandidate& c = candidates[i];
      const size_t parent = static_cast<size_t>(c.parent);
      NodeId* image = next_images.data() + i * s1;
      NodeId* preimage = next_preimages.data() + i * s2;
      std::copy_n(images.data() + parent * s1, static_cast<size_t>(u), image);
      std::copy_n(preimages.data() + parent * s2, s2, preimage);
      image[u] = c.v;
      if (c.v != kEpsilon) preimage[c.v] = u;
      g[i] = c.g;
    }
    images.swap(next_images);
    preimages.swap(next_preimages);
  }

  // Complete each surviving map (unmatched g2 nodes are insertions) and
  // keep the first cheapest; MapCost recomputes the exact path cost from
  // scratch. With n1 == 0 the root (insert all of g2) is the only state.
  NodeMapping& map = s.beam_map;
  out->distance = -1.0;
  for (size_t p = 0; p < g.size(); ++p) {
    map.image.assign(images.data() + p * s1, images.data() + (p + 1) * s1);
    const double cost = MapCost(g1, g2, map, costs);
    if (out->distance < 0.0 || cost < out->distance) {
      out->distance = cost;
      out->mapping.image.assign(map.image.begin(), map.image.end());
    }
  }
}

ApproxGedResult BeamGed(const Graph& g1, const Graph& g2, int beam_width,
                        const GedCosts& costs) {
  ApproxGedResult result;
  BeamGedInto(g1, g2, beam_width, costs, &result);
  return result;
}

}  // namespace lan
