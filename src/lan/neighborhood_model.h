#ifndef LAN_LAN_NEIGHBORHOOD_MODEL_H_
#define LAN_LAN_NEIGHBORHOOD_MODEL_H_

#include <cstdint>
#include <vector>

#include "lan/pair_scorer.h"
#include "nn/optimizer.h"

namespace lan {

/// \brief One M_nh training pair: is database graph `graph` inside N_Q of
/// training query `query_index`?
struct NeighborhoodExample {
  int32_t query_index = 0;
  GraphId graph = kInvalidGraphId;
  float label = 0.0f;
};

/// \brief M_nh training hyperparameters.
struct NeighborhoodModelOptions {
  int epochs = 10;
  int minibatch_size = 16;
  AdamOptions adam;
  /// Negative class downsampling ratio (negatives kept per positive),
  /// following the practical-lessons recipe cited in Sec. V-B1.
  double negative_ratio = 3.0;
  uint64_t seed = 13;
};

/// \brief The neighborhood prediction model M_nh (Sec. V-B): binary
/// classifier over the cross-graph embedding h_{G,Q} predicting G ∈ N_Q.
class NeighborhoodModel {
 public:
  NeighborhoodModel(int32_t num_labels, const PairScorerOptions& scorer,
                    NeighborhoodModelOptions options = {});

  /// Trains; when `validation` is non-empty the epoch with the lowest
  /// validation loss wins (paper: best model on validation data), and the
  /// decision threshold is calibrated on it.
  void Train(const std::vector<CompressedGnnGraph>& db_cgs,
             const std::vector<CompressedGnnGraph>& query_cgs,
             const std::vector<NeighborhoodExample>& examples,
             const std::vector<NeighborhoodExample>& validation = {});

  /// The query-time entry: P(G in N_Q) per cross row h_{G,Q} (from
  /// PairScorer::InferCross on CGs or raw graphs). The LAN_IS candidate
  /// scan scores every member of the selected clusters this way. Writes
  /// into `probs`, reusing its storage; a warm thread allocates nothing.
  void PredictProbs(const Matrix& cross, std::vector<float>* probs) const;

  /// Threshold chosen on validation data during Train (maximizes F1);
  /// 0.5 when no validation set was provided.
  float calibrated_threshold() const { return calibrated_threshold_; }
  /// For snapshot restore (LanIndex::OpenSnapshot).
  void set_calibrated_threshold(float t) { calibrated_threshold_ = t; }

  /// Precision of thresholded predictions against labels (Fig. 8 metric).
  double EvaluatePrecision(const std::vector<CompressedGnnGraph>& db_cgs,
                           const std::vector<CompressedGnnGraph>& query_cgs,
                           const std::vector<NeighborhoodExample>& examples,
                           float threshold = 0.5f) const;

  const PairScorer& scorer() const { return scorer_; }
  PairScorer* mutable_scorer() { return &scorer_; }

 private:
  /// P(G in N_Q) from the taped forward (calibration and evaluation).
  float TapedProb(const CompressedGnnGraph& g_cg,
                  const CompressedGnnGraph& q_cg) const;

  NeighborhoodModelOptions options_;
  PairScorer scorer_;
  float calibrated_threshold_ = 0.5f;
};

/// \brief Builds M_nh training pairs with negative downsampling from
/// per-query distance tables: positives are graphs with d <= gamma_star.
std::vector<NeighborhoodExample> BuildNeighborhoodExamples(
    const std::vector<std::vector<double>>& query_distances,
    double gamma_star, double negative_ratio, size_t max_examples, Rng* rng);

}  // namespace lan

#endif  // LAN_LAN_NEIGHBORHOOD_MODEL_H_
