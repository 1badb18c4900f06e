#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "common/random.h"
#include "nn/autograd.h"
#include "graph/graph_generator.h"
#include "lan/ground_truth.h"
#include "pg/beam_search.h"
#include "pg/candidate_pool.h"
#include "pg/np_route.h"
#include "pg/hnsw.h"

namespace lan {
namespace {

GedOptions FastGed() {
  GedOptions o;
  o.approximate_only = true;
  o.beam_width = 0;
  return o;
}

// ---------- Failure injection: adversarial neighbor rankers ----------

/// Ranker that orders neighbors RANDOMLY — the worst case a broken M_rk
/// could produce. np_route must still terminate and return k results
/// whose distances are genuine.
class RandomRanker : public NeighborRanker {
 public:
  RandomRanker(uint64_t seed, int batch_percent)
      : rng_(seed), batch_percent_(batch_percent) {}

  std::vector<std::vector<GraphId>> RankNeighbors(const ProximityGraph& pg,
                                                  GraphId node,
                                                  const Graph& query) override {
    const std::span<const GraphId> row = pg.NeighborSpan(node);
    std::vector<GraphId> shuffled(row.begin(), row.end());
    rng_.Shuffle(&shuffled);
    return SplitIntoBatches(shuffled, batch_percent_);
  }

 private:
  Rng rng_;
  int batch_percent_;
};

/// Ranker that REVERSES the oracle order — adversarially wrong.
class InvertedOracleRanker : public NeighborRanker {
 public:
  InvertedOracleRanker(const GraphDatabase* db, const GedComputer* ged,
                       int batch_percent)
      : inner_(db, ged, batch_percent) {}

  std::vector<std::vector<GraphId>> RankNeighbors(const ProximityGraph& pg,
                                                  GraphId node,
                                                  const Graph& query) override {
    auto batches = inner_.RankNeighbors(pg, node, query);
    std::reverse(batches.begin(), batches.end());
    return batches;
  }

 private:
  OracleRanker inner_;
};

struct RoutedWorld {
  GraphDatabase db{4};
  GedComputer ged{FastGed()};
  ProximityGraph pg;
  Graph query;

  RoutedWorld() {
    DatasetSpec spec = DatasetSpec::SynLike(70);
    spec.num_labels = 4;
    db = GenerateDatabase(spec, 71);
    HnswOptions options;
    options.M = 5;
    pg = HnswIndex::Build(db, ged, options).BaseLayer();
    Rng rng(72);
    query = PerturbGraph(db.Get(10), 2, db.num_labels(), &rng);
  }
};

TEST(NpRouteFailureInjectionTest, RandomRankerStillTerminatesAndAnswers) {
  RoutedWorld world;
  for (uint64_t seed : {1u, 2u, 3u}) {
    SearchStats stats;
    DistanceOracle oracle(&world.db, &world.query, &world.ged, &stats);
    RandomRanker ranker(seed, 20);
    NpRouteOptions options;
    options.beam_size = 8;
    options.k = 5;
    RoutingResult result = NpRoute(world.pg, &oracle, &ranker, 0, options);
    ASSERT_EQ(result.results.size(), 5u);
    for (const auto& [id, d] : result.results) {
      EXPECT_NEAR(world.ged.Distance(world.query, world.db.Get(id)), d, 1e-9);
    }
    EXPECT_GT(stats.ndc, 0);
  }
}

TEST(NpRouteFailureInjectionTest, InvertedRankerLosesRecallNotValidity) {
  // A maximally wrong ranker presents the far neighbors first, so the
  // batch-opening threshold trips immediately: it prunes *harder* than the
  // oracle and pays in recall, never in answer validity. Aggregated over
  // queries, the oracle ranker must dominate on recall.
  RoutedWorld world;
  Rng rng(73);
  NpRouteOptions options;
  options.beam_size = 8;
  options.k = 5;

  double oracle_recall = 0.0;
  double inverted_recall = 0.0;
  const int kQueries = 6;
  for (int i = 0; i < kQueries; ++i) {
    const Graph query = PerturbGraph(
        world.db.Get(static_cast<GraphId>(rng.NextBounded(70))), 2,
        world.db.num_labels(), &rng);
    const KnnList truth = ComputeGroundTruth(world.db, query, 5, world.ged);

    SearchStats good_stats;
    DistanceOracle good_oracle(&world.db, &query, &world.ged, &good_stats);
    OracleRanker good(&world.db, &world.ged, 20);
    oracle_recall += RecallAtK(
        NpRoute(world.pg, &good_oracle, &good, 0, options).results, truth, 5);

    SearchStats bad_stats;
    DistanceOracle bad_oracle(&world.db, &query, &world.ged, &bad_stats);
    InvertedOracleRanker bad(&world.db, &world.ged, 20);
    RoutingResult bad_result = NpRoute(world.pg, &bad_oracle, &bad, 0, options);
    inverted_recall += RecallAtK(bad_result.results, truth, 5);
    // Answers always carry genuine distances.
    for (const auto& [id, d] : bad_result.results) {
      EXPECT_NEAR(world.ged.Distance(query, world.db.Get(id)), d, 1e-9);
    }
  }
  EXPECT_GE(oracle_recall + 1e-9, inverted_recall);
  EXPECT_GE(oracle_recall / kQueries, 0.6);
}

TEST(NpRouteFailureInjectionTest, SingleBatchRankerEqualsBaseline) {
  // batch_percent = 100 -> one batch -> np_route degenerates to
  // Algorithm 1 exactly (same results, same NDC).
  RoutedWorld world;
  NpRouteOptions options;
  options.beam_size = 10;
  options.k = 4;

  SearchStats np_stats;
  DistanceOracle np_oracle(&world.db, &world.query, &world.ged, &np_stats);
  OracleRanker ranker(&world.db, &world.ged, 100);
  RoutingResult np = NpRoute(world.pg, &np_oracle, &ranker, 3, options);

  SearchStats bs_stats;
  DistanceOracle bs_oracle(&world.db, &world.query, &world.ged, &bs_stats);
  RoutingResult bs = BeamSearchRoute(world.pg, &bs_oracle, 3, 10, 4);

  std::set<GraphId> np_ids, bs_ids;
  for (const auto& [id, d] : np.results) np_ids.insert(id);
  for (const auto& [id, d] : bs.results) bs_ids.insert(id);
  EXPECT_EQ(np_ids, bs_ids);
  EXPECT_EQ(np_stats.ndc, bs_stats.ndc);
}

// ---------- CandidatePool fuzz vs reference ----------

TEST(CandidatePoolFuzzTest, ResizeMatchesReferenceSort) {
  Rng rng(81);
  for (int trial = 0; trial < 50; ++trial) {
    RouteStateArray states;
    states.Reset(32);
    std::vector<PoolEntry> pool_entries;
    CandidatePool pool(&states, &pool_entries);
    struct Ref {
      GraphId id;
      double d;
    };
    std::vector<Ref> reference;
    const int n = 3 + static_cast<int>(rng.NextBounded(20));
    int64_t clock = 0;
    for (int i = 0; i < n; ++i) {
      const GraphId id = static_cast<GraphId>(i);
      const double d = static_cast<double>(rng.NextBounded(6));  // many ties
      pool.Add(id, d);
      reference.push_back({id, d});
      if (rng.NextBool(0.4)) states.MarkExplored(id, clock++);
    }
    const int b = 1 + static_cast<int>(rng.NextBounded(8));
    pool.Resize(b);

    // Reference: full sort under the documented priority.
    std::stable_sort(reference.begin(), reference.end(),
                     [&](const Ref& a, const Ref& c) {
                       if (a.d != c.d) return a.d < c.d;
                       const bool xa = states.Explored(a.id);
                       const bool xc = states.Explored(c.id);
                       if (xa != xc) return !xa;
                       if (!xa) return a.id < c.id;
                       return states.ExploredAt(a.id) > states.ExploredAt(c.id);
                     });
    const size_t keep = std::min(reference.size(), static_cast<size_t>(b));
    EXPECT_EQ(pool.size(), keep);
    for (size_t i = 0; i < keep; ++i) {
      EXPECT_TRUE(pool.Contains(reference[i].id))
          << "trial " << trial << " missing " << reference[i].id;
    }
  }
}

// ---------- Autograd fuzz: random DAGs vs finite differences ----------

TEST(AutogradFuzzTest, RandomDagGradientsMatchNumeric) {
  Rng rng(91);
  for (int trial = 0; trial < 10; ++trial) {
    ParamStore store;
    ParamState* w = store.Create(Matrix::XavierUniform(3, 3, &rng));
    Matrix x = Matrix::XavierUniform(2, 3, &rng);
    Matrix target(1, 1, rng.NextFloat(-1, 1));
    const uint64_t structure = rng.NextUint64();

    auto build = [&](Tape* tape) {
      VarId h = tape->MatMul(tape->Input(x), tape->Param(w));
      // Randomly composed middle section driven by `structure` bits.
      if (structure & 1) h = tape->Relu(h);
      if (structure & 2) h = tape->Scale(h, 0.5f);
      if (structure & 4) h = tape->Add(h, h);
      if (structure & 8) h = tape->ConcatCols(h, h);
      if (structure & 16) h = tape->SoftmaxRows(h);
      if (structure & 32) h = tape->Sigmoid(h);
      VarId pooled = tape->MeanRows(h);
      return tape->MseLoss(tape->SumAll(pooled), target);
    };

    store.ZeroGrads();
    {
      Tape tape;
      tape.Backward(build(&tape));
    }
    Matrix analytic = w->grad;
    const float eps = 1e-2f;
    for (int64_t i = 0; i < w->value.size(); i += 3) {
      const float saved = w->value.data()[i];
      w->value.data()[i] = saved + eps;
      float plus;
      {
        Tape tape;
        plus = tape.value(build(&tape)).at(0, 0);
      }
      w->value.data()[i] = saved - eps;
      float minus;
      {
        Tape tape;
        minus = tape.value(build(&tape)).at(0, 0);
      }
      w->value.data()[i] = saved;
      const float numeric = (plus - minus) / (2 * eps);
      EXPECT_NEAR(analytic.data()[i], numeric, 5e-2f)
          << "trial " << trial << " structure " << (structure & 63)
          << " coord " << i;
    }
  }
}

}  // namespace
}  // namespace lan
