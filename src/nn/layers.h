#ifndef LAN_NN_LAYERS_H_
#define LAN_NN_LAYERS_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "nn/autograd.h"

namespace lan {

/// \brief Affine layer y = x W + b with W (in x out) and bias (1 x out).
class Linear {
 public:
  Linear() = default;
  Linear(int32_t in_dim, int32_t out_dim, ParamStore* store, Rng* rng);

  /// Forward on a tape; `x` is (n x in_dim), result (n x out_dim).
  VarId Forward(Tape* tape, VarId x) const;

  /// Inference-only forward (no tape, no autograd bookkeeping) of `rows`
  /// row-major inputs of width in_dim: writes rows x out_dim to `y`,
  /// reusing its storage. Matches Forward bit for bit.
  void InferForward(const float* x, int32_t rows, Matrix* y) const;

  int32_t in_dim() const { return in_dim_; }
  int32_t out_dim() const { return out_dim_; }
  ParamState* weight() const { return weight_; }
  ParamState* bias() const { return bias_; }

 private:
  int32_t in_dim_ = 0;
  int32_t out_dim_ = 0;
  ParamState* weight_ = nullptr;
  ParamState* bias_ = nullptr;
};

/// \brief Multilayer perceptron with ReLU hidden activations and a linear
/// output layer (the classifier head of M_rk / M_nh / M_c).
class Mlp {
 public:
  Mlp() = default;
  /// `dims` = {in, hidden..., out}; at least {in, out}.
  Mlp(const std::vector<int32_t>& dims, ParamStore* store, Rng* rng);

  VarId Forward(Tape* tape, VarId x) const;

  /// Inference-only forward (no tape) of `rows` row-major inputs: the
  /// output layer lands in `out`, the hidden layers in `out` and `tmp`
  /// alternately. Both keep their storage, so a warm caller allocates
  /// nothing. Matches Forward bit for bit.
  void InferForward(const float* x, int32_t rows, Matrix* out,
                    Matrix* tmp) const;

  const std::vector<Linear>& layers() const { return layers_; }

 private:
  std::vector<Linear> layers_;
};

}  // namespace lan

#endif  // LAN_NN_LAYERS_H_
