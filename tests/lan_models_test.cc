#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/graph_generator.h"
#include "lan/cluster_model.h"
#include "lan/ground_truth.h"
#include "lan/kmeans.h"
#include "lan/neighborhood_model.h"
#include "lan/pair_scorer.h"
#include "lan/rank_model.h"
#include "pg/distance.h"
#include "pg/proximity_graph.h"
#include "lan/workload.h"
#include "taped_reference.h"

namespace lan {
namespace {

GedOptions FastGed() {
  GedOptions o;
  o.approximate_only = true;
  o.beam_width = 0;
  return o;
}

/// The path 0 - 1 - ... - (n-1).
ProximityGraph PathGraph(GraphId n) {
  std::vector<std::pair<GraphId, GraphId>> edges;
  for (GraphId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return ProximityGraph::FromEdges(n, edges).value();
}

PairScorerOptions TinyScorer() {
  PairScorerOptions o;
  o.gnn_dims = {8, 8};
  o.mlp_hidden = 8;
  return o;
}

// ---------- Workload ----------

TEST(WorkloadTest, SplitsSixTwoTwo) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(30), 1);
  WorkloadOptions options;
  options.num_queries = 20;
  QueryWorkload w = SampleWorkload(db, options, 2);
  EXPECT_EQ(w.train.size(), 12u);
  EXPECT_EQ(w.validation.size(), 4u);
  EXPECT_EQ(w.test.size(), 4u);
  EXPECT_EQ(w.TotalSize(), 20u);
}

TEST(WorkloadTest, DeterministicUnderSeed) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(30), 1);
  WorkloadOptions options;
  options.num_queries = 10;
  QueryWorkload a = SampleWorkload(db, options, 3);
  QueryWorkload b = SampleWorkload(db, options, 3);
  for (size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_TRUE(a.train[i] == b.train[i]);
  }
}

// ---------- Ground truth & recall ----------

TEST(GroundTruthTest, SelfQueryRanksItselfFirst) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(25), 4);
  GedComputer ged(FastGed());
  KnnList truth = ComputeGroundTruth(db, db.Get(7), 3, ged);
  ASSERT_EQ(truth.size(), 3u);
  EXPECT_EQ(truth[0].first, 7);
  EXPECT_DOUBLE_EQ(truth[0].second, 0.0);
  // Ascending distances.
  EXPECT_LE(truth[0].second, truth[1].second);
  EXPECT_LE(truth[1].second, truth[2].second);
}

TEST(GroundTruthTest, ParallelMatchesSequential) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(40), 5);
  GedComputer ged(FastGed());
  ThreadPool pool(4);
  Graph q = db.Get(3);
  KnnList a = ComputeGroundTruth(db, q, 5, ged);
  KnnList b = ComputeGroundTruth(db, q, 5, ged, &pool);
  EXPECT_EQ(a, b);
}

TEST(RecallTest, PerfectAndPartial) {
  KnnList truth = {{0, 1.0}, {1, 2.0}, {2, 3.0}};
  KnnList perfect = truth;
  EXPECT_DOUBLE_EQ(RecallAtK(perfect, truth, 3), 1.0);
  KnnList partial = {{0, 1.0}, {9, 9.0}, {8, 8.0}};
  EXPECT_DOUBLE_EQ(RecallAtK(partial, truth, 3), 1.0 / 3.0);
  KnnList empty;
  EXPECT_DOUBLE_EQ(RecallAtK(empty, truth, 3), 0.0);
}

TEST(RecallTest, TiesCredited) {
  // Returned id differs but has the same distance as the kth true one.
  KnnList truth = {{0, 1.0}, {1, 2.0}};
  KnnList result = {{0, 1.0}, {7, 2.0}};
  EXPECT_DOUBLE_EQ(RecallAtK(result, truth, 2), 1.0);
}

// ---------- KMeans ----------

TEST(KMeansTest, SeparatesObviousClusters) {
  Rng rng(6);
  std::vector<std::vector<float>> points;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 20; ++i) {
      points.push_back({static_cast<float>(c) * 10.0f + rng.NextFloat(-0.5, 0.5),
                        rng.NextFloat(-0.5, 0.5)});
    }
  }
  KMeansResult result =
      KMeans(EmbeddingMatrix::FromRows(points), 3, 20, &rng);
  ASSERT_EQ(result.centroids.rows(), 3);
  // Every true cluster maps to exactly one learned cluster.
  for (int c = 0; c < 3; ++c) {
    const int32_t rep = result.assignment[static_cast<size_t>(c) * 20];
    for (int i = 1; i < 20; ++i) {
      EXPECT_EQ(result.assignment[static_cast<size_t>(c) * 20 + i], rep);
    }
  }
  EXPECT_LT(result.inertia / points.size(), 1.0);
}

TEST(KMeansTest, MembersPartitionInput) {
  Rng rng(7);
  std::vector<std::vector<float>> points;
  for (int i = 0; i < 37; ++i) {
    points.push_back({rng.NextFloat(0, 1), rng.NextFloat(0, 1)});
  }
  KMeansResult result =
      KMeans(EmbeddingMatrix::FromRows(points), 5, 10, &rng);
  size_t total = 0;
  for (const auto& m : result.members) total += m.size();
  EXPECT_EQ(total, points.size());
}

TEST(KMeansTest, MoreClustersThanPointsClamped) {
  Rng rng(8);
  std::vector<std::vector<float>> points = {{0.f}, {1.f}};
  KMeansResult result =
      KMeans(EmbeddingMatrix::FromRows(points), 10, 5, &rng);
  EXPECT_EQ(result.centroids.rows(), 2);
}

// ---------- PairScorer ----------

TEST(PairScorerTest, HeadsShapeAndCgRawAgreement) {
  Rng rng(9);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  Graph g = GenerateGraph(spec, &rng);
  Graph q = GenerateGraph(spec, &rng);
  PairScorer scorer(spec.num_labels, TinyScorer(), /*num_heads=*/3,
                    /*context=*/false);
  auto raw = TapedProbs(scorer, g, q);
  auto cg = TapedProbs(scorer, BuildCompressedGnnGraph(g, 2),
                       BuildCompressedGnnGraph(q, 2));
  ASSERT_EQ(raw.size(), 3u);
  ASSERT_EQ(cg.size(), 3u);
  for (size_t h = 0; h < 3; ++h) EXPECT_NEAR(raw[h], cg[h], 1e-4f);
}

TEST(PairScorerTest, ContextChangesPrediction) {
  Rng rng(10);
  DatasetSpec spec = DatasetSpec::SynLike(1);
  Graph g = GenerateGraph(spec, &rng);
  Graph q = GenerateGraph(spec, &rng);
  Graph c1 = GenerateGraph(spec, &rng);
  Graph c2 = GenerateGraph(spec, &rng);
  PairScorer scorer(spec.num_labels, TinyScorer(), /*num_heads=*/1,
                    /*context=*/true);
  auto p1 = TapedProbs(scorer, g, q, &c1);
  auto p2 = TapedProbs(scorer, g, q, &c2);
  EXPECT_NE(p1[0], p2[0]);
}

// ---------- Rank model ----------

TEST(RankModelTest, BuildExamplesLabelsMonotone) {
  // Per head h, labels must be monotone: in top 20% implies in top 40%...
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(30), 11);
  GedComputer ged(FastGed());
  std::vector<std::pair<GraphId, GraphId>> edges;
  Rng rng(11);
  for (GraphId i = 0; i < db.size(); ++i) {
    for (int e = 0; e < 5; ++e) {
      GraphId j = static_cast<GraphId>(rng.NextBounded(30));
      if (i != j) edges.emplace_back(i, j);
    }
  }
  const ProximityGraph pg = ProximityGraph::FromEdges(db.size(), edges).value();
  Graph query = db.Get(0);
  std::vector<std::vector<double>> distances = {
      ComputeAllDistances(db, query, ged)};
  auto examples = BuildRankExamples(pg, distances, /*gamma_star=*/1e9,
                                    /*batch_percent=*/20,
                                    /*max_examples=*/100000, &rng);
  ASSERT_FALSE(examples.empty());
  for (const auto& ex : examples) {
    ASSERT_EQ(ex.labels.size(), 4u);
    for (size_t h = 1; h < ex.labels.size(); ++h) {
      EXPECT_GE(ex.labels[h], ex.labels[h - 1]);  // monotone
    }
  }
  // The first-ranked neighbor of any node must be labeled positive by
  // every head.
  int all_positive = 0;
  for (const auto& ex : examples) {
    bool all = true;
    for (float l : ex.labels) all = all && (l > 0.5f);
    all_positive += all;
  }
  EXPECT_GT(all_positive, 0);
}

TEST(RankModelTest, GammaStarFiltersNodes) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(20), 12);
  GedComputer ged(FastGed());
  const ProximityGraph pg = PathGraph(db.size());
  Graph query = db.Get(0);
  std::vector<std::vector<double>> distances = {
      ComputeAllDistances(db, query, ged)};
  Rng rng(12);
  auto all = BuildRankExamples(pg, distances, 1e9, 20, 100000, &rng);
  auto none = BuildRankExamples(pg, distances, -1.0, 20, 100000, &rng);
  EXPECT_GT(all.size(), none.size());
  EXPECT_TRUE(none.empty());
}

TEST(RankModelTest, TrainingReducesLoss) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(25), 13);
  GedComputer ged(FastGed());
  std::vector<std::pair<GraphId, GraphId>> edges;
  Rng rng(13);
  for (GraphId i = 0; i < db.size(); ++i) {
    for (int e = 0; e < 4; ++e) {
      GraphId j = static_cast<GraphId>(rng.NextBounded(25));
      if (i != j) edges.emplace_back(i, j);
    }
  }
  const ProximityGraph pg = ProximityGraph::FromEdges(db.size(), edges).value();
  std::vector<Graph> queries = {db.Get(1), db.Get(2)};
  std::vector<std::vector<double>> distances;
  for (const Graph& q : queries) {
    distances.push_back(ComputeAllDistances(db, q, ged));
  }
  auto examples = BuildRankExamples(pg, distances, 1e9, 20, 400, &rng);
  ASSERT_FALSE(examples.empty());

  std::vector<CompressedGnnGraph> db_cgs;
  for (GraphId i = 0; i < db.size(); ++i) {
    db_cgs.push_back(BuildCompressedGnnGraph(db.Get(i), 2));
  }
  std::vector<CompressedGnnGraph> query_cgs;
  for (const Graph& q : queries) {
    query_cgs.push_back(BuildCompressedGnnGraph(q, 2));
  }

  RankModelOptions options;
  options.epochs = 0;
  NeighborRankModel untrained(db.num_labels(), TinyScorer(),
                              /*batch_percent=*/20, options);
  const double loss_before =
      untrained.EvaluateLoss(db_cgs, query_cgs, examples);

  options.epochs = 6;
  NeighborRankModel trained(db.num_labels(), TinyScorer(),
                            /*batch_percent=*/20, options);
  trained.Train(db_cgs, query_cgs, examples);
  const double loss_after = trained.EvaluateLoss(db_cgs, query_cgs, examples);
  EXPECT_LT(loss_after, loss_before);
}

TEST(RankModelTest, PredictBatchesCoverAllNeighbors) {
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(12), 14);
  NeighborRankModel model(db.num_labels(), TinyScorer(),
                          /*batch_percent=*/20);
  EXPECT_EQ(model.num_heads(), 4);

  std::vector<CompressedGnnGraph> db_cgs;
  for (GraphId i = 0; i < db.size(); ++i) {
    db_cgs.push_back(BuildCompressedGnnGraph(db.Get(i), 2));
  }
  std::vector<GraphId> neighbors = {1, 3, 5, 7, 9};
  int64_t inferences = 0;
  RankedBatches batches;
  model.PredictBatches(neighbors, db_cgs, /*node=*/0,
                       model.scorer().EncodeQuery(db_cgs[2]), &inferences,
                       &batches);
  EXPECT_EQ(inferences, 5);
  std::set<GraphId> seen;
  for (size_t j = 0; j < batches.num_batches(); ++j) {
    EXPECT_FALSE(batches.Batch(j).empty());
    for (GraphId id : batches.Batch(j)) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(seen.size(), neighbors.size());
}

// ---------- Neighborhood model ----------

TEST(NeighborhoodModelTest, DownsamplingRespectsRatio) {
  std::vector<std::vector<double>> distances = {
      {0.0, 1.0, 2.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0}};
  Rng rng(15);
  auto examples =
      BuildNeighborhoodExamples(distances, /*gamma_star=*/2.5,
                                /*negative_ratio=*/2.0, 1000, &rng);
  int64_t pos = 0, neg = 0;
  for (const auto& ex : examples) (ex.label > 0.5f ? pos : neg) += 1;
  EXPECT_EQ(pos, 3);
  EXPECT_EQ(neg, 6);  // 2x positives, 7 available
}

TEST(NeighborhoodModelTest, LearnsSeparableNeighborhoods) {
  // Database of two structural families; queries from family A. The model
  // should achieve decent precision on the training distribution.
  GraphDatabase db(6);
  Rng rng(16);
  DatasetSpec a = DatasetSpec::SynLike(1);
  a.num_labels = 6;
  a.avg_nodes = 6;
  a.avg_edges = 6;
  DatasetSpec b = a;
  b.avg_nodes = 14;
  b.avg_edges = 20;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(db.Add(GenerateGraph(i % 2 == 0 ? a : b, &rng)).ok());
  }
  GedComputer ged(FastGed());
  std::vector<Graph> queries;
  for (int i = 0; i < 3; ++i) queries.push_back(GenerateGraph(a, &rng));
  std::vector<std::vector<double>> distances;
  for (const Graph& q : queries) {
    distances.push_back(ComputeAllDistances(db, q, ged));
  }
  // Family-a pairs are within ~15 edits; family-b graphs are at least
  // 22 away (size lower bound), so gamma* = 16 separates them cleanly.
  Rng erng(17);
  auto examples = BuildNeighborhoodExamples(distances, /*gamma_star=*/16.0,
                                            3.0, 1000, &erng);
  int positives = 0;
  for (const auto& ex : examples) positives += ex.label > 0.5f;
  ASSERT_GT(positives, 0);
  ASSERT_LT(positives, static_cast<int>(examples.size()));

  std::vector<CompressedGnnGraph> db_cgs;
  for (GraphId i = 0; i < db.size(); ++i) {
    db_cgs.push_back(BuildCompressedGnnGraph(db.Get(i), 2));
  }
  std::vector<CompressedGnnGraph> query_cgs;
  for (const Graph& q : queries) {
    query_cgs.push_back(BuildCompressedGnnGraph(q, 2));
  }

  NeighborhoodModelOptions options;
  options.epochs = 25;
  NeighborhoodModel model(db.num_labels(), TinyScorer(), options);
  model.Train(db_cgs, query_cgs, examples);
  const double precision =
      model.EvaluatePrecision(db_cgs, query_cgs, examples);
  EXPECT_GT(precision, 0.5);
}

// ---------- Cluster model ----------

TEST(ClusterModelTest, LearnsCountSignal) {
  // Queries near centroid c have high intersection with cluster c.
  Rng rng(18);
  const int dim = 4;
  std::vector<std::vector<float>> centroids;
  for (int c = 0; c < 3; ++c) {
    std::vector<float> v(dim, 0.0f);
    v[static_cast<size_t>(c)] = 5.0f;
    centroids.push_back(v);
  }
  std::vector<std::vector<float>> queries;
  std::vector<std::vector<float>> counts;
  for (int i = 0; i < 30; ++i) {
    const int c = i % 3;
    std::vector<float> q(dim, 0.0f);
    q[static_cast<size_t>(c)] = 5.0f + rng.NextFloat(-0.2f, 0.2f);
    queries.push_back(q);
    std::vector<float> row(3, 0.0f);
    row[static_cast<size_t>(c)] = 20.0f;  // strong signal
    counts.push_back(row);
  }
  ClusterModelOptions options;
  options.epochs = 80;
  ClusterModel model(2 * dim, options);
  const EmbeddingMatrix centroid_matrix = EmbeddingMatrix::FromRows(centroids);
  model.Train(queries, centroid_matrix, counts);

  // A fresh query aligned with centroid 1 should score cluster 1 highest.
  std::vector<float> probe(dim, 0.0f);
  probe[1] = 5.0f;
  auto predicted = model.PredictCounts(probe, centroid_matrix);
  ASSERT_EQ(predicted.size(), 3u);
  EXPECT_GT(predicted[1], predicted[0]);
  EXPECT_GT(predicted[1], predicted[2]);
}

TEST(ClusterModelTest, PredictionsNonNegative) {
  ClusterModelOptions options;
  options.epochs = 1;
  ClusterModel model(4, options);
  const EmbeddingMatrix centroids =
      EmbeddingMatrix::FromRows({{0.f, 0.f}, {1.f, 1.f}});
  auto counts = model.PredictCounts({0.5f, 0.5f}, centroids);
  for (float c : counts) EXPECT_GE(c, 0.0f);
}

}  // namespace
}  // namespace lan
