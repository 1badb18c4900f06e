// Zero-copy guarantee of LanIndex::OpenSnapshot: attaching an index to a
// mapped snapshot must not allocate per graph. The loader wires columnar
// views (GraphStore arenas, embedding matrix, CG arenas, HNSW CSR) into
// the mapping, so its allocation COUNT is bounded by a constant plus a
// handful of N-sized container allocations — never by one-object-per-graph
// materialization. The test asserts total allocations during OpenSnapshot
// stay strictly below the number of graphs.
//
// Counting uses the same operator new/delete override as
// search_alloc_test: an atomic bumped only while the measured window is
// open (the expensive Build/SaveSnapshot setup is not counted).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "graph/graph_generator.h"
#include "lan/lan_index.h"

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<int64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? align : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lan {
namespace {

TEST(SnapshotAllocTest, OpenAllocationsDoNotScaleWithDatabaseSize) {
  constexpr int64_t kGraphs = 500;
  const std::string path = testing::TempDir() + "alloc_probe.lansnap";

  // Setup (uncounted): build an untrained index and snapshot it.
  {
    GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(kGraphs), 57);
    LanConfig config;
    config.hnsw.M = 4;
    config.hnsw.ef_construction = 8;
    config.query_ged.approximate_only = true;
    config.query_ged.beam_width = 0;
    config.scorer.gnn_dims = {8, 8};
    config.embedding.dim = 8;
    config.num_threads = 0;
    LanIndex builder(config);
    ASSERT_TRUE(builder.Build(&db).ok());
    ASSERT_TRUE(builder.SaveSnapshot(path).ok());
  }

  LanConfig config;
  config.hnsw.M = 4;
  config.hnsw.ef_construction = 8;
  config.query_ged.approximate_only = true;
  config.query_ged.beam_width = 0;
  config.scorer.gnn_dims = {8, 8};
  config.embedding.dim = 8;
  config.num_threads = 1;
  LanIndex opened(config);  // constructed outside the measured window

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  Status status = opened.OpenSnapshot(path);
  g_count_allocs.store(false, std::memory_order_relaxed);

  ASSERT_TRUE(status.ok()) << status.ToString();
  const int64_t allocs = g_alloc_count.load(std::memory_order_relaxed);
  RecordProperty("open_snapshot_allocs", static_cast<int>(allocs));
  EXPECT_LT(allocs, kGraphs)
      << "OpenSnapshot allocated " << allocs << " times for " << kGraphs
      << " graphs - a per-graph materialization crept into the loader";

  // The attached index actually serves.
  SearchOptions options;
  options.k = 5;
  options.routing = RoutingMethod::kBaselineRoute;
  options.init = InitMethod::kHnswIs;
  SearchResult result = opened.Search(opened.db().Get(3), options);
  ASSERT_TRUE(result.status.ok());
  ASSERT_FALSE(result.results.empty());
  EXPECT_EQ(result.results.front().second, 0.0);
}

}  // namespace
}  // namespace lan
