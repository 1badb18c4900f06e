#include "nn/layers.h"

#include "common/logging.h"

namespace lan {

Linear::Linear(int32_t in_dim, int32_t out_dim, ParamStore* store, Rng* rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  LAN_CHECK_GT(in_dim, 0);
  LAN_CHECK_GT(out_dim, 0);
  weight_ = store->Create(Matrix::XavierUniform(in_dim, out_dim, rng));
  bias_ = store->Create(Matrix::Zeros(1, out_dim));
}

VarId Linear::Forward(Tape* tape, VarId x) const {
  LAN_CHECK(weight_ != nullptr);
  VarId w = tape->Param(weight_);
  VarId b = tape->Param(bias_);
  return tape->AddRowBroadcast(tape->MatMul(x, w), b);
}

void Linear::InferForward(const float* x, int32_t rows, Matrix* y) const {
  LAN_CHECK(weight_ != nullptr);
  y->Reset(rows, out_dim_);
  MatMulAccumulate(x, rows, in_dim_, weight_->value.data(), out_dim_,
                   y->data());
  const float* b = bias_->value.data();
  for (int32_t i = 0; i < rows; ++i) {
    float* row = y->data() + static_cast<size_t>(i) * out_dim_;
    for (int32_t j = 0; j < out_dim_; ++j) row[j] += b[j];
  }
}

Mlp::Mlp(const std::vector<int32_t>& dims, ParamStore* store, Rng* rng) {
  LAN_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], store, rng);
  }
}

VarId Mlp::Forward(Tape* tape, VarId x) const {
  LAN_CHECK(!layers_.empty());
  VarId h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(tape, h);
    if (i + 1 < layers_.size()) h = tape->Relu(h);
  }
  return h;
}

void Mlp::InferForward(const float* x, int32_t rows, Matrix* out,
                       Matrix* tmp) const {
  LAN_CHECK(!layers_.empty());
  // Layer i writes to `out` when an even number of layers follow it, so
  // the last one always lands there.
  const size_t last = layers_.size() - 1;
  const float* h = x;
  for (size_t i = 0; i <= last; ++i) {
    Matrix* y = ((last - i) % 2 == 0) ? out : tmp;
    layers_[i].InferForward(h, rows, y);
    if (i < last) ReluInPlace(y);
    h = y->data();
  }
}

}  // namespace lan
