#include "lan/neighborhood_model.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/logging.h"
#include "lan/train_loop.h"

namespace lan {

namespace {

PairExample NeighborhoodPair(const NeighborhoodExample& ex,
                             const std::vector<CompressedGnnGraph>& db_cgs,
                             const std::vector<CompressedGnnGraph>& query_cgs) {
  return {&db_cgs[static_cast<size_t>(ex.graph)],
          &query_cgs[static_cast<size_t>(ex.query_index)], nullptr,
          {&ex.label, 1}};
}

}  // namespace

NeighborhoodModel::NeighborhoodModel(int32_t num_labels,
                                     const PairScorerOptions& scorer,
                                     NeighborhoodModelOptions options)
    : options_(options),
      scorer_(num_labels, scorer, /*num_heads=*/1, /*context=*/false) {}

void NeighborhoodModel::Train(
    const std::vector<CompressedGnnGraph>& db_cgs,
    const std::vector<CompressedGnnGraph>& query_cgs,
    const std::vector<NeighborhoodExample>& examples,
    const std::vector<NeighborhoodExample>& validation) {
  if (examples.empty()) return;
  std::function<double()> validation_loss;
  if (!validation.empty()) {
    validation_loss = [&] {
      return MeanPairBce(scorer_, validation.size(), [&](size_t i) {
        return NeighborhoodPair(validation[i], db_cgs, query_cgs);
      });
    };
  }
  RunEpochLoop(
      scorer_.params(), examples.size(),
      {options_.epochs, options_.minibatch_size, options_.adam,
       options_.seed},
      [&](Tape* tape, size_t i) {
        return PairBceLoss(
            scorer_, NeighborhoodPair(examples[i], db_cgs, query_cgs), tape);
      },
      validation_loss);

  // Calibrate the decision threshold on validation data: maximize F1, so
  // the initial-node selector's predicted neighborhood balances precision
  // (Lemma 2) against not being empty.
  if (!validation.empty()) {
    std::vector<float> probs;
    probs.reserve(validation.size());
    for (const NeighborhoodExample& ex : validation) {
      probs.push_back(TapedProb(db_cgs[static_cast<size_t>(ex.graph)],
                                query_cgs[static_cast<size_t>(ex.query_index)]));
    }
    float best_threshold = 0.5f;
    double best_f1 = -1.0;
    for (float threshold : {0.3f, 0.4f, 0.5f, 0.6f, 0.7f, 0.8f}) {
      int64_t tp = 0, fp = 0, fn = 0;
      for (size_t i = 0; i < validation.size(); ++i) {
        const bool predicted = probs[i] >= threshold;
        const bool actual = validation[i].label > 0.5f;
        tp += predicted && actual;
        fp += predicted && !actual;
        fn += !predicted && actual;
      }
      if (tp == 0) continue;
      const double precision = static_cast<double>(tp) / (tp + fp);
      const double recall = static_cast<double>(tp) / (tp + fn);
      const double f1 = 2 * precision * recall / (precision + recall);
      if (f1 > best_f1) {
        best_f1 = f1;
        best_threshold = threshold;
      }
    }
    calibrated_threshold_ = best_threshold;
  }
}

float NeighborhoodModel::TapedProb(const CompressedGnnGraph& g_cg,
                                   const CompressedGnnGraph& q_cg) const {
  Tape tape(/*inference_mode=*/true);
  const float z =
      tape.value(scorer_.ForwardCompressed(&tape, g_cg, q_cg, nullptr))
          .at(0, 0);
  return 1.0f / (1.0f + std::exp(-z));
}

void NeighborhoodModel::PredictProbs(const Matrix& cross,
                                     std::vector<float>* probs) const {
  // One head, so the |rows| x 1 head output is the probability list.
  scorer_.InferHeads(cross, {}, probs);
}

double NeighborhoodModel::EvaluatePrecision(
    const std::vector<CompressedGnnGraph>& db_cgs,
    const std::vector<CompressedGnnGraph>& query_cgs,
    const std::vector<NeighborhoodExample>& examples, float threshold) const {
  int64_t predicted_positive = 0;
  int64_t true_positive = 0;
  for (const NeighborhoodExample& ex : examples) {
    const float p =
        TapedProb(db_cgs[static_cast<size_t>(ex.graph)],
                  query_cgs[static_cast<size_t>(ex.query_index)]);
    if (p >= threshold) {
      ++predicted_positive;
      if (ex.label > 0.5f) ++true_positive;
    }
  }
  if (predicted_positive == 0) return 0.0;
  return static_cast<double>(true_positive) /
         static_cast<double>(predicted_positive);
}

std::vector<NeighborhoodExample> BuildNeighborhoodExamples(
    const std::vector<std::vector<double>>& query_distances,
    double gamma_star, double negative_ratio, size_t max_examples, Rng* rng) {
  std::vector<NeighborhoodExample> positives;
  std::vector<NeighborhoodExample> negatives;
  for (size_t qi = 0; qi < query_distances.size(); ++qi) {
    const auto& dist = query_distances[qi];
    for (size_t g = 0; g < dist.size(); ++g) {
      NeighborhoodExample ex;
      ex.query_index = static_cast<int32_t>(qi);
      ex.graph = static_cast<GraphId>(g);
      if (dist[g] <= gamma_star) {
        ex.label = 1.0f;
        positives.push_back(ex);
      } else {
        ex.label = 0.0f;
        negatives.push_back(ex);
      }
    }
  }
  // Downsample negatives.
  const size_t keep_negatives = std::min(
      negatives.size(),
      static_cast<size_t>(negative_ratio *
                          static_cast<double>(std::max<size_t>(
                              positives.size(), 1))));
  rng->Shuffle(&negatives);
  negatives.resize(keep_negatives);

  std::vector<NeighborhoodExample> all = std::move(positives);
  all.insert(all.end(), negatives.begin(), negatives.end());
  rng->Shuffle(&all);
  if (all.size() > max_examples) all.resize(max_examples);
  return all;
}

}  // namespace lan
