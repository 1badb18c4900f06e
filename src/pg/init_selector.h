#ifndef LAN_PG_INIT_SELECTOR_H_
#define LAN_PG_INIT_SELECTOR_H_

#include "common/random.h"
#include "pg/distance.h"

namespace lan {

/// \brief Strategy for choosing the routing start node (Sec. V).
/// Implementations may compute distances through the oracle (counted as
/// query NDC, as the paper does for the s sampled candidates).
class InitialSelector {
 public:
  virtual ~InitialSelector() = default;
  virtual GraphId Select(DistanceOracle* oracle, Rng* rng) = 0;
};

/// \brief Rand_IS: a uniformly random database node.
class RandomInitialSelector : public InitialSelector {
 public:
  explicit RandomInitialSelector(GraphId num_nodes) : num_nodes_(num_nodes) {}

  GraphId Select(DistanceOracle* oracle, Rng* rng) override {
    return static_cast<GraphId>(
        rng->NextBounded(static_cast<uint64_t>(num_nodes_)));
  }

 private:
  GraphId num_nodes_;
};

}  // namespace lan

#endif  // LAN_PG_INIT_SELECTOR_H_
