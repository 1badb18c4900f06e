#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"
#include "graph/graph_generator.h"
#include "lan/ground_truth.h"
#include "pg/beam_search.h"
#include "pg/hnsw.h"
#include "pg/np_route.h"

namespace lan {
namespace {

GedOptions FastGed() {
  GedOptions o;
  o.approximate_only = true;
  o.beam_width = 0;
  return o;
}

std::set<GraphId> Ids(const KnnList& list) {
  std::set<GraphId> ids;
  for (const auto& [id, d] : list) ids.insert(id);
  return ids;
}

std::vector<double> Distances(const KnnList& list) {
  std::vector<double> distances;
  for (const auto& [id, d] : list) distances.push_back(d);
  std::sort(distances.begin(), distances.end());
  return distances;
}

/// Ids strictly closer than the list's largest distance. Which members of
/// a tie at the k-th distance a route keeps is its own choice.
std::set<GraphId> IdsBelowLast(const KnnList& list) {
  std::set<GraphId> ids;
  if (list.empty()) return ids;
  const std::vector<double> distances = Distances(list);
  for (const auto& [id, d] : list) {
    if (d < distances.back()) ids.insert(id);
  }
  return ids;
}

/// Shared fixture data: database + PG + GED evaluator.
struct World {
  GraphDatabase db{4};
  GedComputer ged{FastGed()};
  HnswIndex hnsw;
  uint64_t seed;

  explicit World(uint64_t s, int n = 60) : seed(s) {
    DatasetSpec spec = DatasetSpec::SynLike(n);
    spec.num_labels = 4;
    db = GenerateDatabase(spec, s);
    HnswOptions options;
    options.M = 4;
    options.ef_construction = 16;
    options.seed = s + 1;
    hnsw = HnswIndex::Build(db, ged, options);
  }

  Graph RandomQuery(Rng* rng) {
    Graph base =
        db.Get(static_cast<GraphId>(rng->NextBounded(
            static_cast<uint64_t>(db.size()))));
    return PerturbGraph(base, static_cast<int>(rng->NextInt(0, 3)),
                        db.num_labels(), rng);
  }
};

/// \brief Theorem 1 property: with the same initial node and beam size,
/// np_route with the oracle ranker returns exactly the baseline's result
/// set while spending no more distance computations.
class Theorem1Test : public ::testing::TestWithParam<int> {};

/// Routes with `protocol` as the query distance; the PG is built with the
/// cheap approximate distances either way.
void ExpectOracleNpRouteMatchesBaseline(int seed, const GedOptions& protocol,
                                        bool exact_ids) {
  World world(static_cast<uint64_t>(seed));
  const GedComputer ged(protocol);
  Rng rng(static_cast<uint64_t>(seed) * 7 + 1);

  int64_t total_np_ndc = 0;
  int64_t total_baseline_ndc = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Graph query = world.RandomQuery(&rng);
    const GraphId init = static_cast<GraphId>(
        rng.NextBounded(static_cast<uint64_t>(world.db.size())));
    const int beam = static_cast<int>(rng.NextInt(2, 12));
    const int k = static_cast<int>(rng.NextInt(1, beam));

    SearchStats baseline_stats;
    DistanceOracle baseline_oracle(&world.db, &query, &ged, &baseline_stats);
    RoutingResult baseline = BeamSearchRoute(world.hnsw.BaseLayer(),
                                             &baseline_oracle, init, beam, k);

    for (int y : {10, 20, 30, 50}) {
      SearchStats np_stats;
      DistanceOracle np_oracle(&world.db, &query, &ged, &np_stats);
      OracleRanker ranker(&world.db, &ged, y);
      NpRouteOptions options;
      options.beam_size = beam;
      options.k = k;
      options.step_size = 1.0;
      RoutingResult np = NpRoute(world.hnsw.BaseLayer(), &np_oracle, &ranker,
                                 init, options);

      // Theorem 1 assumes distinct distances. The result distances must
      // match in any case; the ids only where no tie sits at the k-th
      // distance, unless `exact_ids` asks for them outright.
      EXPECT_EQ(Distances(np.results), Distances(baseline.results))
          << "trial " << trial << " y=" << y << " beam=" << beam
          << " k=" << k;
      if (exact_ids) {
        EXPECT_EQ(Ids(np.results), Ids(baseline.results))
            << "trial " << trial << " y=" << y << " beam=" << beam
            << " k=" << k;
      } else {
        EXPECT_EQ(IdsBelowLast(np.results), IdsBelowLast(baseline.results))
            << "trial " << trial << " y=" << y << " beam=" << beam
            << " k=" << k;
      }
      // Theorem 1's NDC inequality assumes distinct distances; integer
      // GED ties let stage 2 re-qualify a few equal-distance nodes the
      // baseline had squeezed out, so we allow a small tie slack per
      // query (see DESIGN.md) and assert the strict inequality in
      // aggregate below.
      EXPECT_LE(np_stats.ndc, baseline_stats.ndc + baseline_stats.ndc / 10 + 5)
          << "trial " << trial << " y=" << y;
      total_np_ndc += np_stats.ndc;
      total_baseline_ndc += baseline_stats.ndc;
    }
  }
  // In aggregate the pruning must win despite tie slack (baseline NDC is
  // accumulated once per y value, so the totals are directly comparable).
  EXPECT_LE(total_np_ndc, total_baseline_ndc);
}

TEST_P(Theorem1Test, OracleNpRouteMatchesBaseline) {
  ExpectOracleNpRouteMatchesBaseline(GetParam(), FastGed(),
                                     /*exact_ids=*/true);
}

/// The same property under the protocol LanIndex queries with by default
/// (VJ, Hungarian, Beam4 and gated, expansion-capped A*). Its distances tie
/// at the k-th result on seed 3 (ids 39 and 43, both at 17), where the two
/// routes keep different members of the tie.
TEST_P(Theorem1Test, OracleNpRouteMatchesBaselineDefaultProtocol) {
  ExpectOracleNpRouteMatchesBaseline(GetParam(), GedOptions{},
                                     /*exact_ids=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Test, ::testing::Range(1, 7));

TEST(NpRouteTest, PrunesDistanceComputations) {
  // Aggregate check: with y=20 the oracle-ranked np_route should save a
  // nontrivial NDC fraction vs the baseline over several queries.
  World world(99, 80);
  Rng rng(100);
  int64_t baseline_ndc = 0, np_ndc = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const Graph query = world.RandomQuery(&rng);
    const GraphId init = static_cast<GraphId>(
        rng.NextBounded(static_cast<uint64_t>(world.db.size())));

    SearchStats bs;
    DistanceOracle bo(&world.db, &query, &world.ged, &bs);
    BeamSearchRoute(world.hnsw.BaseLayer(), &bo, init, 8, 4);
    baseline_ndc += bs.ndc;

    SearchStats ns;
    DistanceOracle no(&world.db, &query, &world.ged, &ns);
    OracleRanker ranker(&world.db, &world.ged, 20);
    NpRouteOptions options;
    options.beam_size = 8;
    options.k = 4;
    RoutingResult np =
        NpRoute(world.hnsw.BaseLayer(), &no, &ranker, init, options);
    np_ndc += ns.ndc;
  }
  EXPECT_LT(np_ndc, baseline_ndc);
}

TEST(NpRouteTest, SingleNodeDatabase) {
  GraphDatabase db(2);
  Graph g;
  g.AddNode(0);
  g.AddNode(1);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(db.Add(g).ok());
  GedComputer ged(FastGed());
  const ProximityGraph pg = ProximityGraph::FromEdges(1, {}).value();
  SearchStats stats;
  Graph query = g;
  DistanceOracle oracle(&db, &query, &ged, &stats);
  OracleRanker ranker(&db, &ged, 20);
  NpRouteOptions options;
  options.beam_size = 2;
  options.k = 1;
  RoutingResult result = NpRoute(pg, &oracle, &ranker, 0, options);
  ASSERT_EQ(result.results.size(), 1u);
  EXPECT_EQ(result.results[0].first, 0);
  EXPECT_DOUBLE_EQ(result.results[0].second, 0.0);
}

TEST(NpRouteTest, LargerBeamNeverHurtsRecallMuch) {
  // Beam-size monotonicity (statistical): recall with beam 16 >= recall
  // with beam 2 - small slack, aggregated over queries.
  World world(123, 60);
  Rng rng(5);
  double recall_small = 0.0, recall_large = 0.0;
  const int kQueries = 6;
  for (int i = 0; i < kQueries; ++i) {
    const Graph query = world.RandomQuery(&rng);
    KnnList truth = ComputeGroundTruth(world.db, query, 5, world.ged);
    for (int beam : {2, 16}) {
      SearchStats stats;
      DistanceOracle oracle(&world.db, &query, &world.ged, &stats);
      OracleRanker ranker(&world.db, &world.ged, 20);
      NpRouteOptions options;
      options.beam_size = beam;
      options.k = 5;
      RoutingResult result =
          NpRoute(world.hnsw.BaseLayer(), &oracle, &ranker, 0, options);
      const double recall = RecallAtK(result.results, truth, 5);
      (beam == 2 ? recall_small : recall_large) += recall;
    }
  }
  EXPECT_GE(recall_large + 0.3, recall_small);
  EXPECT_GE(recall_large / kQueries, 0.5);
}

TEST(NpRouteTest, RoutingStepsReported) {
  World world(7, 40);
  Rng rng(8);
  const Graph query = world.RandomQuery(&rng);
  SearchStats stats;
  DistanceOracle oracle(&world.db, &query, &world.ged, &stats);
  OracleRanker ranker(&world.db, &world.ged, 20);
  NpRouteOptions options;
  options.beam_size = 4;
  options.k = 2;
  RoutingResult result =
      NpRoute(world.hnsw.BaseLayer(), &oracle, &ranker, 3, options);
  EXPECT_GT(result.routing_steps, 0);
  EXPECT_EQ(result.routing_steps, stats.routing_steps);
  EXPECT_GT(stats.ndc, 0);
}

}  // namespace
}  // namespace lan
