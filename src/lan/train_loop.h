#ifndef LAN_LAN_TRAIN_LOOP_H_
#define LAN_LAN_TRAIN_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "gnn/compressed_gnn_graph.h"
#include "lan/pair_scorer.h"
#include "nn/optimizer.h"

namespace lan {

/// \brief The schedule of one training run; every model's options carry
/// these fields under the same names.
struct EpochLoopOptions {
  int epochs = 10;
  int minibatch_size = 16;
  AdamOptions adam;
  uint64_t seed = 0;
};

/// \brief The training loop of M_rk, M_nh and M_c.
///
/// Each epoch shuffles an index vector in place with Rng(options.seed)
/// (Fisher–Yates, so the permutations depend only on `num_examples`), then
/// per example builds a fresh tape, takes `example_loss(&tape, i)` and
/// backpropagates it. Adam steps every `minibatch_size` examples and after
/// the epoch's last one, then applies its decay schedule. When
/// `validation_loss` is set it runs after every epoch, and the parameters
/// of the epoch with the lowest value are restored at the end (the paper
/// keeps the best model on validation data).
void RunEpochLoop(ParamStore* params, size_t num_examples,
                  const EpochLoopOptions& options,
                  const std::function<VarId(Tape*, size_t)>& example_loss,
                  const std::function<double()>& validation_loss = {});

/// \brief One labeled pair of the cross-graph classifier: the logits of
/// PairScorer::ForwardCompressed(g, q, context) against `labels`, one per
/// head.
struct PairExample {
  const CompressedGnnGraph* g = nullptr;
  const CompressedGnnGraph* q = nullptr;
  const CompressedGnnGraph* context = nullptr;
  std::span<const float> labels;
};

/// The BCE-with-logits loss of one pair on `tape` (M_rk and M_nh training).
VarId PairBceLoss(const PairScorer& scorer, const PairExample& example,
                  Tape* tape);

/// Mean per-head BCE over `num_examples` pairs, forward only: the
/// validation loss of M_rk and M_nh. 0 for an empty set.
double MeanPairBce(const PairScorer& scorer, size_t num_examples,
                   const std::function<PairExample(size_t)>& example);

}  // namespace lan

#endif  // LAN_LAN_TRAIN_LOOP_H_
