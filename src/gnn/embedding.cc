#include "gnn/embedding.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "graph/wl_labeling.h"
#include "nn/kernels.h"

namespace lan {
namespace {

uint64_t HashCombine(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Adds `value` at a pseudo-random position derived from `key` (feature
/// hashing / hash folding).
void FoldIn(std::vector<float>* out, uint64_t key, float value) {
  const size_t pos = HashCombine(0x51ed270b0a1c61d5ULL, key) % out->size();
  // Signed hashing reduces collision bias.
  const float sign = (HashCombine(key, 0xabcdef12345ULL) & 1) ? 1.0f : -1.0f;
  (*out)[pos] += sign * value;
}

}  // namespace

std::vector<float> EmbedGraph(const Graph& g, const EmbeddingOptions& options) {
  LAN_CHECK_GT(options.dim, 0);
  std::vector<float> out(static_cast<size_t>(options.dim), 0.0f);
  if (g.NumNodes() == 0) return out;

  // Size statistics (dominant coordinates: GED correlates strongly with
  // size differences).
  FoldIn(&out, /*key=*/1, static_cast<float>(g.NumNodes()));
  FoldIn(&out, /*key=*/2, static_cast<float>(g.NumEdges()));

  // Raw label histogram.
  for (Label l : g.labels()) {
    FoldIn(&out, HashCombine(100, static_cast<uint64_t>(l)), 1.0f);
  }
  // Degree histogram (capped at 15).
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const int32_t d = std::min(g.Degree(v), 15);
    FoldIn(&out, HashCombine(200, static_cast<uint64_t>(d)), 1.0f);
  }
  // WL label histograms: each refinement-round label contributes to a
  // hashed coordinate. WL ids are graph-local, so we hash the label's
  // *signature path* instead: id alone is not comparable across graphs.
  // We approximate with (round, own raw label, sorted neighbor raw
  // labels) for round 1 and degree-augmented variants beyond.
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    uint64_t sig = HashCombine(300, static_cast<uint64_t>(g.label(v)));
    std::vector<Label> neigh;
    for (NodeId u : g.Neighbors(v)) neigh.push_back(g.label(u));
    std::sort(neigh.begin(), neigh.end());
    for (int round = 1; round <= options.wl_rounds; ++round) {
      for (Label l : neigh) sig = HashCombine(sig, static_cast<uint64_t>(l));
      sig = HashCombine(sig, static_cast<uint64_t>(round));
      FoldIn(&out, sig, 1.0f);
    }
  }
  return out;
}

EmbeddingMatrix EmbedDatabase(const GraphDatabase& db,
                              const EmbeddingOptions& options) {
  EmbeddingMatrix out(0, options.dim);
  out.Reserve(db.size(), options.dim);
  for (GraphId id = 0; id < db.size(); ++id) {
    out.AppendRow(EmbedGraph(db.Get(id), options));
  }
  return out;
}

double SquaredL2(std::span<const float> a, std::span<const float> b) {
  LAN_CHECK_EQ(a.size(), b.size());
  return ActiveKernels().l2sq(a.data(), b.data(),
                              static_cast<int64_t>(a.size()));
}

}  // namespace lan
