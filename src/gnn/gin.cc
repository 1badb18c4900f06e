#include "gnn/gin.h"

#include "common/logging.h"
#include "gnn/gnn_graph.h"

namespace lan {

GinEncoder::GinEncoder(int32_t input_dim, std::vector<int32_t> layer_dims,
                       ParamStore* store, Rng* rng)
    : input_dim_(input_dim), layer_dims_(std::move(layer_dims)) {
  LAN_CHECK_GT(input_dim_, 0);
  LAN_CHECK(!layer_dims_.empty());
  int32_t in = input_dim_;
  for (int32_t out : layer_dims_) {
    weights_.push_back(store->Create(Matrix::XavierUniform(in, out, rng)));
    in = out;
  }
}

Matrix GinEncoder::InitialFeatures(const Graph& g) const {
  std::vector<int32_t> ids;
  ids.reserve(static_cast<size_t>(g.NumNodes()));
  for (NodeId v = 0; v < g.NumNodes(); ++v) ids.push_back(g.label(v));
  return Matrix::OneHotRows(ids, input_dim_);
}

Matrix GinEncoder::InitialFeatures(const CompressedGnnGraph& cg) const {
  std::vector<int32_t> ids;
  ids.reserve(cg.level0_group_labels.size());
  for (Label l : cg.level0_group_labels) ids.push_back(l);
  return Matrix::OneHotRows(ids, input_dim_);
}

VarId GinEncoder::ForwardNodes(Tape* tape, const Graph& g) const {
  LAN_CHECK_GT(g.NumNodes(), 0);
  const GnnGraph gnn(g, num_layers());
  const SparseMatrix agg = gnn.AggregationOperator();
  VarId h = tape->Input(InitialFeatures(g));
  for (ParamState* w : weights_) {
    VarId t = tape->SparseApply(agg, h);
    h = tape->Relu(tape->MatMul(t, tape->Param(w)));
  }
  return h;
}

VarId GinEncoder::ForwardGraph(Tape* tape, const Graph& g) const {
  return tape->MeanRows(ForwardNodes(tape, g));
}

VarId GinEncoder::ForwardGraphCompressed(Tape* tape,
                                         const CompressedGnnGraph& cg) const {
  LAN_CHECK_EQ(cg.num_layers, num_layers());
  VarId h = tape->Input(InitialFeatures(cg));
  for (int l = 0; l < num_layers(); ++l) {
    VarId t = tape->SparseApply(cg.aggregation[static_cast<size_t>(l)], h);
    h = tape->Relu(tape->MatMul(t, tape->Param(weights_[static_cast<size_t>(l)])));
  }
  return tape->WeightedMeanRows(h, cg.TopLevelWeights());
}

Matrix GinEncoder::InferGraphEmbeddingCompressed(
    const CompressedGnnGraph& cg) const {
  LAN_CHECK_EQ(cg.num_layers, num_layers());
  Matrix h = InitialFeatures(cg);
  for (int l = 0; l < num_layers(); ++l) {
    const size_t ls = static_cast<size_t>(l);
    h = MatMulValues(cg.aggregation[ls].Apply(h), weights_[ls]->value);
    ReluInPlace(&h);
  }
  const std::vector<float> weights = cg.TopLevelWeights();
  Matrix readout(1, h.cols());
  WeightedMeanRowsInto(h.data(), h.rows(), h.cols(), weights.data(),
                       readout.data());
  return readout;
}

}  // namespace lan
