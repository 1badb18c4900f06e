#include "gnn/gnn_graph.h"

namespace lan {

SparseMatrix GnnGraph::AggregationOperator() const {
  const Graph& g = *graph_;
  SparseMatrix s;
  s.rows = g.NumNodes();
  s.cols = g.NumNodes();
  s.entries.reserve(static_cast<size_t>(g.NumNodes() + 2 * g.NumEdges()));
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    s.entries.push_back({u, u, 1.0f});
    for (NodeId v : g.Neighbors(u)) s.entries.push_back({u, v, 1.0f});
  }
  return s;
}

void GnnGraph::ApplyAggregation(const float* x, int32_t cols,
                                int32_t src_off, float* out,
                                int32_t dst_off) const {
  const Graph& g = *graph_;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    float* orow = out + static_cast<size_t>(u + dst_off) * cols;
    const float* self = x + static_cast<size_t>(u + src_off) * cols;
    for (int32_t j = 0; j < cols; ++j) orow[j] += 1.0f * self[j];
    for (NodeId v : g.Neighbors(u)) {
      const float* xrow = x + static_cast<size_t>(v + src_off) * cols;
      for (int32_t j = 0; j < cols; ++j) orow[j] += 1.0f * xrow[j];
    }
  }
}

void GnnGraph::ApplyAggregationOneHot(const int32_t* labels,
                                      int32_t cols, int32_t src_off,
                                      float* out, int32_t dst_off) const {
  const Graph& g = *graph_;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    float* orow = out + static_cast<size_t>(u + dst_off) * cols;
    orow[labels[u + src_off]] += 1.0f;
    for (NodeId v : g.Neighbors(u)) orow[labels[v + src_off]] += 1.0f;
  }
}

SparseMatrix SampledAggregationOperator(const Graph& g, int sample_size,
                                        Rng* rng) {
  SparseMatrix s;
  s.rows = g.NumNodes();
  s.cols = g.NumNodes();
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    s.entries.push_back({u, u, 1.0f});
    const auto& neighbors = g.Neighbors(u);
    const int degree = static_cast<int>(neighbors.size());
    if (degree == 0) continue;
    if (degree <= sample_size) {
      for (NodeId v : neighbors) s.entries.push_back({u, v, 1.0f});
      continue;
    }
    // Sample without replacement; reweight by degree / sample_size so the
    // aggregate is unbiased in expectation.
    const float weight =
        static_cast<float>(degree) / static_cast<float>(sample_size);
    for (size_t pick : rng->SampleWithoutReplacement(
             neighbors.size(), static_cast<size_t>(sample_size))) {
      s.entries.push_back({u, neighbors[pick], weight});
    }
  }
  return s;
}

}  // namespace lan
