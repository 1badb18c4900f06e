#include "lan/train_loop.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/logging.h"
#include "common/random.h"

namespace lan {

void RunEpochLoop(ParamStore* params, size_t num_examples,
                  const EpochLoopOptions& options,
                  const std::function<VarId(Tape*, size_t)>& example_loss,
                  const std::function<double()>& validation_loss) {
  if (num_examples == 0) return;
  Adam adam(params, options.adam);
  Rng rng(options.seed);
  std::vector<size_t> order(num_examples);
  std::iota(order.begin(), order.end(), size_t{0});

  double best_validation = std::numeric_limits<double>::infinity();
  std::vector<Matrix> best_params;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    int in_batch = 0;
    for (size_t idx : order) {
      Tape tape;
      tape.Backward(example_loss(&tape, idx));
      if (++in_batch >= options.minibatch_size) {
        adam.Step();
        in_batch = 0;
      }
    }
    if (in_batch > 0) adam.Step();
    adam.OnEpochEnd();
    if (validation_loss) {
      const double v = validation_loss();
      if (v < best_validation) {
        best_validation = v;
        best_params = params->SnapshotValues();
      }
    }
  }
  if (!best_params.empty()) params->RestoreValues(best_params);
}

namespace {

Matrix Targets(std::span<const float> labels) {
  Matrix targets(1, static_cast<int32_t>(labels.size()));
  for (size_t h = 0; h < labels.size(); ++h) {
    targets.at(0, static_cast<int32_t>(h)) = labels[h];
  }
  return targets;
}

}  // namespace

VarId PairBceLoss(const PairScorer& scorer, const PairExample& example,
                  Tape* tape) {
  LAN_CHECK_EQ(static_cast<int>(example.labels.size()), scorer.num_heads());
  const VarId logits =
      scorer.ForwardCompressed(tape, *example.g, *example.q, example.context);
  return tape->BceWithLogits(logits, Targets(example.labels));
}

double MeanPairBce(const PairScorer& scorer, size_t num_examples,
                   const std::function<PairExample(size_t)>& example) {
  if (num_examples == 0) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < num_examples; ++i) {
    const PairExample ex = example(i);
    Tape tape(/*inference_mode=*/true);
    const Matrix& z = tape.value(
        scorer.ForwardCompressed(&tape, *ex.g, *ex.q, ex.context));
    for (size_t h = 0; h < ex.labels.size(); ++h) {
      const float zi = z.at(0, static_cast<int32_t>(h));
      const float ti = ex.labels[h];
      total += std::max(zi, 0.0f) - zi * ti +
               std::log1p(std::exp(-std::abs(zi)));
    }
  }
  return total /
         (static_cast<double>(num_examples) * scorer.num_heads());
}

}  // namespace lan
