#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
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

  void RankNeighbors(const ProximityGraph& pg, GraphId node,
                     const Graph& query, RankedBatches* out) override {
    const std::span<const GraphId> row = pg.NeighborSpan(node);
    std::vector<GraphId> shuffled(row.begin(), row.end());
    rng_.Shuffle(&shuffled);
    SplitIntoBatches(shuffled, batch_percent_, out);
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

  void RankNeighbors(const ProximityGraph& pg, GraphId node,
                     const Graph& query, RankedBatches* out) override {
    RankedBatches batches;
    inner_.RankNeighbors(pg, node, query, &batches);
    for (size_t j = batches.num_batches(); j-- > 0;) {
      out->AppendBatch(batches.Batch(j));
    }
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

/// Linear reference for CandidatePool: a plain vector scanned on every
/// query, fully sorted on every Resize, under the documented priority
/// order. Shares the RouteStateArray (explored flags and timestamps) with
/// the pool under test.
class ReferencePool {
 public:
  explicit ReferencePool(const RouteStateArray* states) : states_(states) {}

  void Clear() { entries_.clear(); }

  void Add(GraphId id, double d) {
    if (Find(id) == nullptr) entries_.push_back({id, d});
  }

  void Resize(int b) {
    std::stable_sort(entries_.begin(), entries_.end(),
                     [this](const PoolEntry& a, const PoolEntry& c) {
                       return Before(a, c);
                     });
    if (entries_.size() > static_cast<size_t>(b)) {
      entries_.resize(static_cast<size_t>(b));
    }
  }

  const PoolEntry* Find(GraphId id) const {
    for (const PoolEntry& e : entries_) {
      if (e.id == id) return &e;
    }
    return nullptr;
  }

  GraphId Best() const {
    const PoolEntry* best = nullptr;
    for (const PoolEntry& e : entries_) {
      if (best == nullptr || Before(e, *best)) best = &e;
    }
    return best == nullptr ? kInvalidGraphId : best->id;
  }

  GraphId BestUnexploredWithin(double gamma) const {
    const PoolEntry* best = nullptr;
    for (const PoolEntry& e : entries_) {
      if (e.distance > gamma || states_->Explored(e.id)) continue;
      if (best == nullptr || e.distance < best->distance ||
          (e.distance == best->distance && e.id < best->id)) {
        best = &e;
      }
    }
    return best == nullptr ? kInvalidGraphId : best->id;
  }

  bool AllExplored() const {
    for (const PoolEntry& e : entries_) {
      if (!states_->Explored(e.id)) return false;
    }
    return true;
  }

  std::vector<std::pair<GraphId, double>> TopK(int k) const {
    std::vector<PoolEntry> sorted = entries_;
    std::sort(sorted.begin(), sorted.end(),
              [](const PoolEntry& a, const PoolEntry& c) {
                if (a.distance != c.distance) return a.distance < c.distance;
                return a.id < c.id;
              });
    std::vector<std::pair<GraphId, double>> out;
    for (size_t i = 0; i < sorted.size() && i < static_cast<size_t>(k); ++i) {
      out.emplace_back(sorted[i].id, sorted[i].distance);
    }
    return out;
  }

  size_t size() const { return entries_.size(); }

 private:
  bool Before(const PoolEntry& a, const PoolEntry& c) const {
    if (a.distance != c.distance) return a.distance < c.distance;
    const bool xa = states_->Explored(a.id);
    const bool xc = states_->Explored(c.id);
    if (xa != xc) return !xa;
    if (!xa) return a.id < c.id;
    return states_->ExploredAt(a.id) > states_->ExploredAt(c.id);
  }

  const RouteStateArray* states_;
  std::vector<PoolEntry> entries_;
};

/// Bit-level equality, so +0.0 and -0.0 count as different.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(CandidatePoolFuzzTest, MultiRoundSequencesMatchLinearReference) {
  constexpr GraphId kIds = 24;
  // Few distinct values, both zeros among them: most comparisons tie.
  const double kDistances[] = {-0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 7.5};
  Rng rng(83);
  // One states array and entry buffer for every trial, as a search thread
  // reuses its scratch: the epochs must isolate the trials.
  RouteStateArray states;
  std::vector<PoolEntry> entries;
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    states.Reset(kIds);
    auto pool = std::make_unique<CandidatePool>(&states, &entries);
    ReferencePool reference(&states);
    int64_t clock = 0;
    const int steps = 10 + static_cast<int>(rng.NextBounded(60));
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      const uint64_t op = rng.NextBounded(100);
      if (op < 55) {
        // Add, often an id that an earlier Resize evicted.
        const GraphId id = static_cast<GraphId>(rng.NextBounded(kIds));
        const double d = kDistances[rng.NextBounded(std::size(kDistances))];
        pool->Add(id, d);
        reference.Add(id, d);
      } else if (op < 75) {
        const GraphId id = static_cast<GraphId>(rng.NextBounded(kIds));
        states.MarkExplored(id, clock++);
      } else if (op < 97) {
        const int b = 1 + static_cast<int>(rng.NextBounded(10));
        pool->Resize(b);
        reference.Resize(b);
      } else {
        // A new pool over the same states starts empty; exploration stays.
        pool = std::make_unique<CandidatePool>(&states, &entries);
        reference.Clear();
      }

      ASSERT_EQ(pool->size(), reference.size());
      for (GraphId id = 0; id < kIds; ++id) {
        const PoolEntry* ref = reference.Find(id);
        ASSERT_EQ(pool->Contains(id), ref != nullptr) << "id " << id;
        if (ref != nullptr) {
          EXPECT_TRUE(SameBits(pool->DistanceOf(id), ref->distance))
              << "id " << id;
        }
      }
      EXPECT_EQ(pool->Best(), reference.Best());
      EXPECT_EQ(pool->BestUnexplored(),
                reference.BestUnexploredWithin(
                    std::numeric_limits<double>::infinity()));
      const double gamma = kDistances[rng.NextBounded(std::size(kDistances))];
      EXPECT_EQ(pool->BestUnexploredWithin(gamma),
                reference.BestUnexploredWithin(gamma))
          << "gamma " << gamma;
      EXPECT_EQ(pool->AllExplored(), reference.AllExplored());
      const int k = 1 + static_cast<int>(rng.NextBounded(8));
      const auto got = pool->TopK(k);
      const auto want = reference.TopK(k);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, want[i].first) << "rank " << i;
        EXPECT_TRUE(SameBits(got[i].second, want[i].second)) << "rank " << i;
      }
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
