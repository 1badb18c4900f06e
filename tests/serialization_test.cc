#include <gtest/gtest.h>

#include <sstream>

#include "common/random.h"
#include "graph/graph_generator.h"
#include "lan/lan_index.h"
#include "lan/sharded_index.h"
#include "lan/workload.h"
#include "nn/serialization.h"

namespace lan {
namespace {

// ---------- Matrix / ParamStore round trips ----------

TEST(MatrixIoTest, RoundTrip) {
  Rng rng(1);
  Matrix m = Matrix::XavierUniform(5, 7, &rng);
  std::stringstream buffer;
  ASSERT_TRUE(WriteMatrix(m, buffer).ok());
  auto restored = ReadMatrix(buffer);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(Matrix::MaxAbsDiff(m, *restored), 0.0f);
}

TEST(MatrixIoTest, EmptyMatrix) {
  Matrix m;
  std::stringstream buffer;
  ASSERT_TRUE(WriteMatrix(m, buffer).ok());
  auto restored = ReadMatrix(buffer);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->rows(), 0);
  EXPECT_EQ(restored->cols(), 0);
}

TEST(MatrixIoTest, RejectsGarbage) {
  std::stringstream buffer("this is not a matrix");
  EXPECT_FALSE(ReadMatrix(buffer).ok());
}

TEST(MatrixIoTest, RejectsTruncation) {
  Rng rng(2);
  Matrix m = Matrix::XavierUniform(4, 4, &rng);
  std::stringstream buffer;
  ASSERT_TRUE(WriteMatrix(m, buffer).ok());
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated(bytes);
  EXPECT_FALSE(ReadMatrix(truncated).ok());
}

TEST(ParamStoreIoTest, RoundTripPreservesValues) {
  Rng rng(3);
  ParamStore a;
  a.Create(Matrix::XavierUniform(3, 4, &rng));
  a.Create(Matrix::XavierUniform(1, 8, &rng));
  std::stringstream buffer;
  ASSERT_TRUE(WriteParamStore(a, buffer).ok());

  Rng rng2(99);  // different init; must be overwritten by the load
  ParamStore b;
  ParamState* p0 = b.Create(Matrix::XavierUniform(3, 4, &rng2));
  ParamState* p1 = b.Create(Matrix::XavierUniform(1, 8, &rng2));
  ASSERT_TRUE(ReadParamStoreInto(&b, buffer).ok());
  EXPECT_EQ(Matrix::MaxAbsDiff(p0->value, a.params()[0]->value), 0.0f);
  EXPECT_EQ(Matrix::MaxAbsDiff(p1->value, a.params()[1]->value), 0.0f);
}

TEST(ParamStoreIoTest, RejectsArchitectureMismatch) {
  Rng rng(4);
  ParamStore a;
  a.Create(Matrix::XavierUniform(3, 4, &rng));
  std::stringstream buffer;
  ASSERT_TRUE(WriteParamStore(a, buffer).ok());

  ParamStore wrong_count;
  wrong_count.Create(Matrix::XavierUniform(3, 4, &rng));
  wrong_count.Create(Matrix::XavierUniform(3, 4, &rng));
  EXPECT_FALSE(ReadParamStoreInto(&wrong_count, buffer).ok());

  std::stringstream buffer2;
  ASSERT_TRUE(WriteParamStore(a, buffer2).ok());
  ParamStore wrong_shape;
  wrong_shape.Create(Matrix::XavierUniform(4, 3, &rng));
  EXPECT_FALSE(ReadParamStoreInto(&wrong_shape, buffer2).ok());
}

// ---------- Shared index config ----------

LanConfig TinyConfig() {
  LanConfig config;
  config.hnsw.M = 4;
  config.hnsw.ef_construction = 12;
  config.query_ged.approximate_only = true;
  config.query_ged.beam_width = 0;
  config.scorer.gnn_dims = {8, 8};
  config.scorer.mlp_hidden = 8;
  config.rank.epochs = 2;
  config.nh.epochs = 2;
  config.cluster.epochs = 5;
  config.max_rank_examples = 150;
  config.max_nh_examples = 150;
  config.neighborhood_knn = 10;
  config.embedding.dim = 16;
  config.default_beam = 8;
  config.num_threads = 2;
  return config;
}

// ---------- Sharded index ----------

TEST(ShardedIndexTest, BuildsAndSearchesAcrossShards) {
  DatasetSpec spec = DatasetSpec::SynLike(80);
  GraphDatabase db = GenerateDatabase(spec, 41);
  WorkloadOptions wopts;
  wopts.num_queries = 15;
  QueryWorkload workload = SampleWorkload(db, wopts, 42);

  ShardedIndexOptions options;
  options.num_shards = 4;
  options.shard_config = TinyConfig();
  ShardedLanIndex sharded(options);
  ASSERT_TRUE(sharded.Build(db).ok());
  ASSERT_TRUE(sharded.Train(workload.train).ok());
  EXPECT_EQ(sharded.num_shards(), 4);
  EXPECT_EQ(sharded.total_size(), db.size());

  const Graph& query = workload.test[0];
  SearchOptions sopts;
  sopts.k = 6;
  SearchResult result = sharded.Search(query, sopts);
  ASSERT_EQ(result.results.size(), 6u);
  // Global ids valid + distances ascending + results actually correspond
  // to the claimed database graphs.
  GedComputer ged(TinyConfig().query_ged);
  for (size_t i = 0; i < result.results.size(); ++i) {
    const auto& [id, d] = result.results[i];
    ASSERT_GE(id, 0);
    ASSERT_LT(id, db.size());
    EXPECT_NEAR(ged.Distance(query, db.Get(id)), d, 1e-9);
    if (i > 0) EXPECT_GE(d, result.results[i - 1].second);
  }
  // Stats aggregated over all shards.
  EXPECT_GE(result.stats.routing_steps, sharded.num_shards());
}

TEST(ShardedIndexTest, GlobalIdsPartitionDatabase) {
  DatasetSpec spec = DatasetSpec::SynLike(50);
  GraphDatabase db = GenerateDatabase(spec, 43);
  ShardedIndexOptions options;
  options.num_shards = 3;
  options.shard_config = TinyConfig();
  ShardedLanIndex sharded(options);
  ASSERT_TRUE(sharded.Build(db).ok());
  std::vector<bool> seen(static_cast<size_t>(db.size()), false);
  for (int s = 0; s < sharded.num_shards(); ++s) {
    for (GraphId local = 0; local < sharded.shard(s).db().size(); ++local) {
      const GraphId global = sharded.GlobalId(s, local);
      ASSERT_FALSE(seen[static_cast<size_t>(global)]);
      seen[static_cast<size_t>(global)] = true;
      // The shard copy must be the original graph.
      EXPECT_TRUE(sharded.shard(s).db().Get(local) == db.Get(global));
    }
  }
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(ShardedIndexTest, PrefixShardsSearchSubset) {
  DatasetSpec spec = DatasetSpec::SynLike(40);
  GraphDatabase db = GenerateDatabase(spec, 44);
  WorkloadOptions wopts;
  wopts.num_queries = 12;
  QueryWorkload workload = SampleWorkload(db, wopts, 45);
  ShardedIndexOptions options;
  options.num_shards = 4;
  options.shard_config = TinyConfig();
  ShardedLanIndex sharded(options);
  ASSERT_TRUE(sharded.Build(db).ok());
  ASSERT_TRUE(sharded.Train(workload.train).ok());

  const Graph& query = workload.test[0];
  SearchOptions sopts;
  sopts.k = 4;
  SearchResult one = sharded.Search(query, sopts, /*max_shards=*/1);
  SearchResult all = sharded.Search(query, sopts);
  EXPECT_LE(one.stats.ndc, all.stats.ndc);
  // Prefix results come only from shard 0 (ids ≡ 0 mod 4 by round robin).
  for (const auto& [id, d] : one.results) EXPECT_EQ(id % 4, 0);
}

TEST(ShardedIndexTest, SingleShardDegeneratesToLanIndex) {
  DatasetSpec spec = DatasetSpec::SynLike(30);
  GraphDatabase db = GenerateDatabase(spec, 46);
  WorkloadOptions wopts;
  wopts.num_queries = 10;
  QueryWorkload workload = SampleWorkload(db, wopts, 47);
  ShardedIndexOptions options;
  options.num_shards = 1;
  options.shard_config = TinyConfig();
  ShardedLanIndex sharded(options);
  ASSERT_TRUE(sharded.Build(db).ok());
  ASSERT_TRUE(sharded.Train(workload.train).ok());
  SearchOptions sopts;
  sopts.k = 3;
  SearchResult result = sharded.Search(workload.test[0], sopts);
  EXPECT_EQ(result.results.size(), 3u);
}

}  // namespace
}  // namespace lan
