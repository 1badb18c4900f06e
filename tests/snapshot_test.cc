// End-to-end tests of the single-file snapshot format:
// LanIndex::SaveSnapshot/OpenSnapshot round trips, corruption handling
// (the loader must return a Status for any malformed input, never crash),
// the committed golden fixture, and retired section kinds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "graph/graph_generator.h"
#include "lan/lan_index.h"
#include "lan/workload.h"
#include "store/snapshot.h"

namespace lan {
namespace {

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

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Builds + trains a small index over `n` graphs and saves it to `path`.
/// Returns the workload so callers can replay identical queries.
QueryWorkload BuildAndSave(const std::string& path, int64_t n,
                           GraphDatabase* db, LanIndex* index) {
  *db = GenerateDatabase(DatasetSpec::SynLike(n), 171);
  WorkloadOptions wopts;
  wopts.num_queries = 15;
  QueryWorkload workload = SampleWorkload(*db, wopts, 172);
  EXPECT_TRUE(index->Build(db).ok());
  EXPECT_TRUE(index->Train(workload.train).ok());
  EXPECT_TRUE(index->SaveSnapshot(path).ok());
  return workload;
}

// ---------- Round trips ----------

TEST(SnapshotTest, RoundTripBitwiseIdenticalAcrossAllModes) {
  const std::string path = TempPath("roundtrip.lansnap");
  GraphDatabase db;
  LanIndex original(TinyConfig());
  QueryWorkload workload = BuildAndSave(path, 60, &db, &original);

  // The opened index is self-contained: no database is handed in.
  LanIndex opened(TinyConfig());
  ASSERT_TRUE(opened.OpenSnapshot(path).ok());
  EXPECT_TRUE(opened.trained());
  EXPECT_EQ(opened.db().size(), db.size());
  EXPECT_DOUBLE_EQ(opened.gamma_star(), original.gamma_star());

  const RoutingMethod routings[] = {RoutingMethod::kLanRoute,
                                    RoutingMethod::kBaselineRoute,
                                    RoutingMethod::kOracleRoute};
  const InitMethod inits[] = {InitMethod::kLanIs, InitMethod::kHnswIs,
                              InitMethod::kRandomIs};
  for (RoutingMethod routing : routings) {
    for (InitMethod init : inits) {
      for (size_t i = 0; i < 3; ++i) {
        SearchOptions sopts;
        sopts.k = 5;
        sopts.routing = routing;
        sopts.init = init;
        SearchResult a = original.Search(workload.test[i], sopts);
        SearchResult b = opened.Search(workload.test[i], sopts);
        ASSERT_TRUE(a.status.ok());
        ASSERT_TRUE(b.status.ok());
        EXPECT_EQ(a.results, b.results)
            << RoutingMethodName(routing) << "/" << InitMethodName(init)
            << " query " << i;
        EXPECT_EQ(a.stats.ndc, b.stats.ndc)
            << RoutingMethodName(routing) << "/" << InitMethodName(init)
            << " query " << i;
      }
    }
  }
}

TEST(SnapshotTest, UntrainedRoundTrip) {
  const std::string path = TempPath("untrained.lansnap");
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(40), 181);
  LanIndex original(TinyConfig());
  ASSERT_TRUE(original.Build(&db).ok());
  ASSERT_TRUE(original.SaveSnapshot(path).ok());

  LanIndex opened(TinyConfig());
  ASSERT_TRUE(opened.OpenSnapshot(path).ok());
  EXPECT_FALSE(opened.trained());

  WorkloadOptions wopts;
  wopts.num_queries = 6;
  QueryWorkload workload = SampleWorkload(db, wopts, 182);
  SearchOptions sopts;
  sopts.k = 4;
  sopts.routing = RoutingMethod::kBaselineRoute;
  sopts.init = InitMethod::kHnswIs;
  SearchResult a = original.Search(workload.train[0], sopts);
  SearchResult b = opened.Search(workload.train[0], sopts);
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.results, b.results);
}

TEST(SnapshotTest, TombstonesSurviveRoundTrip) {
  const std::string path = TempPath("tombstones.lansnap");
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(40), 183);
  LanIndex original(TinyConfig());
  ASSERT_TRUE(original.Build(&db).ok());
  ASSERT_TRUE(original.Remove(3).ok());
  ASSERT_TRUE(original.Remove(17).ok());
  ASSERT_TRUE(original.SaveSnapshot(path).ok());

  LanIndex opened(TinyConfig());
  ASSERT_TRUE(opened.OpenSnapshot(path).ok());
  EXPECT_EQ(opened.live_size(), original.live_size());
  EXPECT_EQ(opened.epoch(), original.epoch());
  // Tombstoned ids never surface in results.
  WorkloadOptions wopts;
  wopts.num_queries = 6;
  QueryWorkload workload = SampleWorkload(db, wopts, 184);
  SearchOptions sopts;
  sopts.k = 10;
  sopts.routing = RoutingMethod::kBaselineRoute;
  sopts.init = InitMethod::kHnswIs;
  SearchResult result = opened.Search(workload.train[0], sopts);
  ASSERT_TRUE(result.status.ok());
  for (const auto& [id, d] : result.results) {
    EXPECT_NE(id, 3);
    EXPECT_NE(id, 17);
  }
}

TEST(SnapshotTest, InsertAfterOpenKeepsServing) {
  const std::string path = TempPath("insert_after.lansnap");
  GraphDatabase db;
  LanIndex original(TinyConfig());
  QueryWorkload workload = BuildAndSave(path, 50, &db, &original);

  LanIndex opened(TinyConfig());
  ASSERT_TRUE(opened.OpenSnapshot(path).ok());
  const GraphId before = opened.db().size();
  // The index must keep serving and the new graph must be findable.
  Graph extra = opened.db().Get(0);
  auto inserted = opened.Insert(extra);
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(inserted.value(), before);
  EXPECT_EQ(opened.db().size(), before + 1);

  SearchOptions sopts;
  sopts.k = 5;
  SearchResult result = opened.Search(workload.test[0], sopts);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.results.size(), 5u);

  // An exact-duplicate query must see a copy at distance 0 (baseline
  // routing: exhaustive neighbor expansion, so a reachable distance-0
  // node is always found; the learned route may prune it).
  SearchOptions exhaustive;
  exhaustive.k = 5;
  exhaustive.routing = RoutingMethod::kBaselineRoute;
  exhaustive.init = InitMethod::kHnswIs;
  SearchResult dup = opened.Search(extra, exhaustive);
  ASSERT_TRUE(dup.status.ok());
  ASSERT_FALSE(dup.results.empty());
  EXPECT_EQ(dup.results.front().second, 0.0);
  bool has_inserted = false;
  for (const auto& [rid, d] : dup.results) has_inserted |= (rid == before);
  EXPECT_TRUE(has_inserted);
}

TEST(SnapshotTest, ReopenSaveAndInsertAreByteIdentical) {
  // Open + Save reproduces the file, and an Insert on the opened index
  // (a decoded HNSW core, CGs and matrices) writes the same bytes as the
  // same Insert on the index that was built.
  const std::string path_a = TempPath("byte_a.lansnap");
  const std::string path_b = TempPath("byte_b.lansnap");
  const std::string built_insert = TempPath("byte_built_insert.lansnap");
  const std::string opened_insert = TempPath("byte_opened_insert.lansnap");
  GraphDatabase db;
  LanIndex built(TinyConfig());
  QueryWorkload workload = BuildAndSave(path_a, 45, &db, &built);

  LanIndex opened(TinyConfig());
  ASSERT_TRUE(opened.OpenSnapshot(path_a).ok());
  ASSERT_TRUE(opened.SaveSnapshot(path_b).ok());
  EXPECT_TRUE(ReadFileBytes(path_a) == ReadFileBytes(path_b));

  ASSERT_TRUE(built.Insert(workload.test[0]).ok());
  ASSERT_TRUE(opened.Insert(workload.test[0]).ok());
  ASSERT_TRUE(built.SaveSnapshot(built_insert).ok());
  ASSERT_TRUE(opened.SaveSnapshot(opened_insert).ok());
  const std::string after = ReadFileBytes(built_insert);
  EXPECT_NE(after, ReadFileBytes(path_a));
  EXPECT_TRUE(after == ReadFileBytes(opened_insert));
}

TEST(SnapshotTest, SaveBeforeBuildFails) {
  LanIndex index(TinyConfig());
  EXPECT_FALSE(index.SaveSnapshot(TempPath("nope.lansnap")).ok());
}

TEST(SnapshotTest, OpenOnBuiltIndexFails) {
  const std::string path = TempPath("built_then_open.lansnap");
  GraphDatabase db;
  LanIndex original(TinyConfig());
  BuildAndSave(path, 30, &db, &original);
  EXPECT_FALSE(original.OpenSnapshot(path).ok());
}

TEST(SnapshotTest, OpenMissingFileReportsPath) {
  LanIndex index(TinyConfig());
  const std::string path = TempPath("does_not_exist.lansnap");
  Status status = index.OpenSnapshot(path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.ToString();
}

// ---------- Corruption matrix ----------

class SnapshotCorruptionTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    path_ = new std::string(TempPath("corruption_base.lansnap"));
    auto* db = new GraphDatabase;
    auto* index = new LanIndex(TinyConfig());
    BuildAndSave(*path_, 40, db, index);
    bytes_ = new std::string(ReadFileBytes(*path_));
    delete index;
    delete db;
  }

  /// Writes `bytes` to a scratch file and asserts the loader fails
  /// cleanly (a Status, not a crash).
  void ExpectRejected(const std::string& bytes, const std::string& what) {
    const std::string path = TempPath("corrupted.lansnap");
    WriteFileBytes(path, bytes);
    LanIndex index(TinyConfig());
    Status status = index.OpenSnapshot(path);
    EXPECT_FALSE(status.ok()) << what;
  }

  static std::string* path_;
  static std::string* bytes_;
};

std::string* SnapshotCorruptionTest::path_ = nullptr;
std::string* SnapshotCorruptionTest::bytes_ = nullptr;

TEST_F(SnapshotCorruptionTest, RejectsWrongMagic) {
  std::string bad = *bytes_;
  bad[0] ^= 0xff;
  ExpectRejected(bad, "flipped magic byte");
}

TEST_F(SnapshotCorruptionTest, RejectsWrongVersion) {
  std::string bad = *bytes_;
  // u32 version sits right after the 8-byte magic.
  bad[8] = 99;
  ExpectRejected(bad, "future version");
}

TEST_F(SnapshotCorruptionTest, RejectsTruncationAtEverySectionBoundary) {
  auto snapshot = Snapshot::Open(*path_);
  ASSERT_TRUE(snapshot.ok());
  for (const SectionInfo& info : snapshot->sections()) {
    // Cut exactly at the section start, and mid-payload.
    ExpectRejected(bytes_->substr(0, info.offset),
                   std::string("truncated before ") +
                       SectionKindName(info.kind));
    ExpectRejected(bytes_->substr(0, info.offset + info.size / 2),
                   std::string("truncated inside ") +
                       SectionKindName(info.kind));
  }
  // Degenerate prefixes of the header itself.
  ExpectRejected("", "empty file");
  ExpectRejected(bytes_->substr(0, 7), "partial magic");
  ExpectRejected(bytes_->substr(0, 63), "partial header");
}

TEST_F(SnapshotCorruptionTest, RejectsBitFlipInEverySection) {
  auto snapshot = Snapshot::Open(*path_);
  ASSERT_TRUE(snapshot.ok());
  for (const SectionInfo& info : snapshot->sections()) {
    std::string bad = *bytes_;
    bad[info.offset + info.size / 2] ^= 0x01;
    ExpectRejected(bad, std::string("bit flip in ") +
                            SectionKindName(info.kind));
  }
}

TEST_F(SnapshotCorruptionTest, RejectsTocTampering) {
  // The TOC starts at the 64-byte-aligned offset recorded in the header;
  // flipping any byte there must trip the TOC checksum.
  std::string bad = *bytes_;
  bad[64] ^= 0x01;
  ExpectRejected(bad, "TOC bit flip");
}

TEST_F(SnapshotCorruptionTest, RejectsTrailingGarbageSize) {
  // file_size in the header no longer matches the actual file.
  std::string bad = *bytes_ + std::string(128, 'x');
  ExpectRejected(bad, "appended garbage");
}

// ---------- Crafted sections ----------
//
// Files whose checksums are valid but whose graphs or CGs break what the
// code reading them relies on. Each rewrites one section of the good
// snapshot through SnapshotWriter and copies the others.

/// One graph's CSR columns as the graphs section stores them: labels,
/// graph-local row offsets (n + 1 entries) and the neighbor rows.
struct CsrColumns {
  std::vector<Label> labels;
  std::vector<int32_t> row_offsets;
  std::vector<NodeId> neighbors;

  /// Replaces node v's neighbor row (same length) with `row`.
  void SetRow(NodeId v, const std::vector<NodeId>& row) {
    std::copy(row.begin(), row.end(),
              neighbors.begin() + row_offsets[static_cast<size_t>(v)]);
  }
  std::vector<NodeId> Row(NodeId v) const {
    return {neighbors.begin() + row_offsets[static_cast<size_t>(v)],
            neighbors.begin() + row_offsets[static_cast<size_t>(v) + 1]};
  }
};

std::vector<CsrColumns> ColumnsOf(const GraphDatabase& db) {
  std::vector<CsrColumns> out(static_cast<size_t>(db.size()));
  for (GraphId id = 0; id < db.size(); ++id) {
    const Graph& g = db.Get(id);
    CsrColumns& c = out[static_cast<size_t>(id)];
    c.row_offsets.push_back(0);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      c.labels.push_back(g.label(v));
      const std::span<const NodeId> row = g.Neighbors(v);
      c.neighbors.insert(c.neighbors.end(), row.begin(), row.end());
      c.row_offsets.push_back(static_cast<int32_t>(c.neighbors.size()));
    }
  }
  return out;
}

/// The kGraphs payload (docs/snapshot_format.md): graph count, node and
/// neighbor start offsets, then the label, row-offset and neighbor arenas.
std::string EncodeGraphsSection(const std::vector<CsrColumns>& graphs) {
  std::vector<int64_t> node_start = {0};
  std::vector<int64_t> neigh_start = {0};
  std::vector<Label> labels;
  std::vector<int32_t> row_offsets;
  std::vector<NodeId> neighbors;
  for (const CsrColumns& g : graphs) {
    node_start.push_back(node_start.back() +
                         static_cast<int64_t>(g.labels.size()));
    neigh_start.push_back(neigh_start.back() +
                          static_cast<int64_t>(g.neighbors.size()));
    labels.insert(labels.end(), g.labels.begin(), g.labels.end());
    row_offsets.insert(row_offsets.end(), g.row_offsets.begin(),
                       g.row_offsets.end());
    neighbors.insert(neighbors.end(), g.neighbors.begin(),
                     g.neighbors.end());
  }
  SectionBuilder b;
  b.Pod(static_cast<int64_t>(graphs.size()));
  b.Array(node_start.data(), node_start.size());
  b.Array(neigh_start.data(), neigh_start.size());
  b.Array(labels.data(), labels.size());
  b.Array(row_offsets.data(), row_offsets.size());
  b.Array(neighbors.data(), neighbors.size());
  return b.data();
}

class SnapshotCraftedSectionTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    path_ = new std::string(TempPath("crafted_base.lansnap"));
    GraphDatabase db;
    LanIndex index(TinyConfig());
    BuildAndSave(*path_, 40, &db, &index);
  }

  void SetUp() override {
    auto image = Snapshot::Open(*path_);
    ASSERT_TRUE(image.ok());
    image_ = std::move(*image);
    LanIndex index(TinyConfig());
    ASSERT_TRUE(index.OpenSnapshot(*path_).ok());
    graphs_ = ColumnsOf(index.db());
    num_labels_ = index.db().num_labels();
  }

  /// Opens the good snapshot with `kind`'s payload replaced by `payload`.
  Status OpenWith(SectionKind kind, const std::string& payload) {
    const std::string path = TempPath("crafted.lansnap");
    SnapshotWriter writer;
    for (const SectionInfo& info : image_.sections()) {
      SectionBuilder* b = writer.AddSection(info.kind);
      if (info.kind == kind) {
        b->Bytes(payload.data(), payload.size());
      } else {
        const auto bytes = image_.Section(info.kind);
        b->Bytes(bytes.data(), bytes.size());
      }
    }
    EXPECT_TRUE(writer.WriteToFile(path).ok());
    LanIndex index(TinyConfig());
    return index.OpenSnapshot(path);
  }

  void ExpectGraphsRejected(const std::vector<CsrColumns>& graphs,
                            const std::string& what) {
    const Status status =
        OpenWith(SectionKind::kGraphs, EncodeGraphsSection(graphs));
    EXPECT_EQ(status.code(), StatusCode::kIoError)
        << what << ": " << status.ToString();
  }

  std::string Payload(SectionKind kind) const {
    const auto bytes = image_.Section(kind);
    return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
  }

  static std::string* path_;
  Snapshot image_;
  std::vector<CsrColumns> graphs_;
  int32_t num_labels_ = 0;
};

std::string* SnapshotCraftedSectionTest::path_ = nullptr;

TEST_F(SnapshotCraftedSectionTest, RejectsGraphsBreakingGraphInvariants) {
  // The test's encoder reproduces the stored section.
  ASSERT_TRUE(EncodeGraphsSection(graphs_) == Payload(SectionKind::kGraphs));
  CsrColumns& g0 = graphs_[0];
  // A node v with at least two neighbors, its first neighbor u, and a
  // node x outside v's row other than v.
  NodeId v = 0;
  while (g0.Row(v).size() < 2) ++v;
  const NodeId u = g0.Row(v)[0];
  NodeId x = 0;
  while (x == v || std::ranges::count(g0.Row(v), x) > 0) ++x;
  ASSERT_LT(x, static_cast<NodeId>(g0.labels.size()));

  {
    std::vector<CsrColumns> bad = graphs_;
    std::vector<NodeId> row = bad[0].Row(v);
    std::ranges::reverse(row);
    bad[0].SetRow(v, row);
    ExpectGraphsRejected(bad, "unsorted row");
  }
  {
    // v lists x instead of u: x does not list v, u still lists v.
    std::vector<CsrColumns> bad = graphs_;
    std::vector<NodeId> row = bad[0].Row(v);
    std::ranges::replace(row, u, x);
    std::ranges::sort(row);
    bad[0].SetRow(v, row);
    ExpectGraphsRejected(bad, "one-directional row");
  }
  {
    // The edge {u, v} becomes a self-loop in each row.
    std::vector<CsrColumns> bad = graphs_;
    for (const auto& [node, other] : {std::pair{v, u}, std::pair{u, v}}) {
      std::vector<NodeId> row = bad[0].Row(node);
      std::ranges::replace(row, other, node);
      std::ranges::sort(row);
      bad[0].SetRow(node, row);
    }
    ExpectGraphsRejected(bad, "self-loop");
  }
  {
    std::vector<CsrColumns> bad = graphs_;
    bad[0] = CsrColumns{{}, {0}, {}};
    ExpectGraphsRejected(bad, "graph without nodes");
  }
  {
    std::vector<CsrColumns> bad = graphs_;
    bad[0].labels[0] = num_labels_;
    ExpectGraphsRejected(bad, "label outside the alphabet");
  }
}

/// kCgs per-operator descriptor and triplet, as docs/snapshot_format.md
/// lays them out.
struct CgMatrixHeader {
  int32_t rows;
  int32_t cols;
  int64_t entry_offset;
  int64_t entry_count;
};
struct CgEntry {
  int32_t row;
  int32_t col;
  float weight;
};

/// Byte offsets of the kCgs arrays within the payload.
struct CgLayout {
  size_t group_sizes = 0;
  size_t label_offsets = 0;
  size_t labels = 0;
  size_t headers = 0;
  size_t entries = 0;
};

CgLayout LayoutOf(const std::string& payload) {
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  SectionReader r(bytes);
  int32_t num_layers = 0;
  int64_t n = 0;
  EXPECT_TRUE(r.Pod(&num_layers).ok());
  EXPECT_TRUE(r.Pod(&n).ok());
  const size_t levels = static_cast<size_t>(num_layers) + 1;
  const auto offset = [&bytes](const void* p) {
    return static_cast<size_t>(static_cast<const uint8_t*>(p) - bytes.data());
  };
  CgLayout layout;
  const auto gs_ptr = *r.Array<int64_t>(static_cast<size_t>(n) * levels + 1);
  const auto gs_values = *r.Array<int32_t>(static_cast<size_t>(gs_ptr.back()));
  layout.group_sizes = offset(gs_values.data());
  const auto lbl_ptr = *r.Array<int64_t>(static_cast<size_t>(n) + 1);
  layout.label_offsets = offset(lbl_ptr.data());
  const auto labels = *r.Array<int32_t>(static_cast<size_t>(lbl_ptr.back()));
  layout.labels = offset(labels.data());
  const auto headers = *r.Array<CgMatrixHeader>(
      static_cast<size_t>(n) * 2 * static_cast<size_t>(num_layers));
  layout.headers = offset(headers.data());
  const auto entries =
      *r.Array<CgEntry>(static_cast<size_t>(headers.back().entry_offset +
                                            headers.back().entry_count));
  layout.entries = offset(entries.data());
  return layout;
}

template <typename T>
T ReadAt(const std::string& payload, size_t offset) {
  T value;
  std::memcpy(&value, payload.data() + offset, sizeof(T));
  return value;
}

template <typename T>
void WriteAt(std::string* payload, size_t offset, const T& value) {
  std::memcpy(payload->data() + offset, &value, sizeof(T));
}

TEST_F(SnapshotCraftedSectionTest, RejectsCgsBreakingTheirShapes) {
  const std::string good = Payload(SectionKind::kCgs);
  const CgLayout layout = LayoutOf(good);
  const auto header0 = ReadAt<CgMatrixHeader>(good, layout.headers);
  ASSERT_GT(header0.entry_count, 0);
  const auto expect_rejected = [this](const std::string& payload,
                                      const std::string& what) {
    const Status status = OpenWith(SectionKind::kCgs, payload);
    EXPECT_EQ(status.code(), StatusCode::kIoError)
        << what << ": " << status.ToString();
  };
  {
    std::string bad = good;
    CgMatrixHeader header = header0;
    ++header.rows;
    WriteAt(&bad, layout.headers, header);
    expect_rejected(bad, "operator rows off its level's group count");
  }
  {
    std::string bad = good;
    CgMatrixHeader header = header0;
    ++header.cols;
    WriteAt(&bad, layout.headers, header);
    expect_rejected(bad, "operator cols off its level's group count");
  }
  {
    std::string bad = good;
    CgEntry entry = ReadAt<CgEntry>(good, layout.entries);
    entry.row = header0.rows + 7;
    WriteAt(&bad, layout.entries, entry);
    expect_rejected(bad, "entry row outside the operator");
  }
  {
    std::string bad = good;
    CgEntry entry = ReadAt<CgEntry>(good, layout.entries);
    entry.col = -1;
    WriteAt(&bad, layout.entries, entry);
    expect_rejected(bad, "entry col outside the operator");
  }
  {
    // Graph 0 takes one of graph 1's level-0 labels.
    std::string bad = good;
    const size_t at = layout.label_offsets + sizeof(int64_t);
    WriteAt(&bad, at, ReadAt<int64_t>(good, at) + 1);
    expect_rejected(bad, "level-0 label count off the group count");
  }
  {
    std::string bad = good;
    WriteAt<Label>(&bad, layout.labels, num_labels_ + 3);
    expect_rejected(bad, "level-0 label outside the alphabet");
  }
  {
    std::string bad = good;
    WriteAt<int32_t>(&bad, layout.group_sizes, 0);
    expect_rejected(bad, "empty group");
  }
}

TEST_F(SnapshotCraftedSectionTest, RejectsContextMatrixOfTheWrongDim) {
  // The models section ends with the rank context matrix: i64 rows, i32
  // dim, padding to float alignment, then rows x dim floats. The base
  // index has 40 graphs and 8-dim GIN layers.
  constexpr int64_t kRows = 40;
  constexpr int32_t kDim = 8;
  const std::string good = Payload(SectionKind::kModels);
  const size_t data =
      good.size() - static_cast<size_t>(kRows * kDim) * sizeof(float);
  size_t header = std::string::npos;
  for (size_t pad = 0; pad < alignof(float); ++pad) {
    const size_t at = data - pad - sizeof(int64_t) - sizeof(int32_t);
    if (ReadAt<int64_t>(good, at) == kRows &&
        ReadAt<int32_t>(good, at + sizeof(int64_t)) == kDim) {
      header = at;
    }
  }
  ASSERT_NE(header, std::string::npos);
  ASSERT_TRUE(OpenWith(SectionKind::kModels, good).ok());

  // The same floats as 20 rows of 16: the row count stays within the
  // graph count, and every row is twice as wide as the rank heads take.
  std::string bad = good;
  WriteAt<int64_t>(&bad, header, kRows / 2);
  WriteAt<int32_t>(&bad, header + sizeof(int64_t), kDim * 2);
  const Status status = OpenWith(SectionKind::kModels, bad);
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

// ---------- Golden fixture ----------

#ifndef LAN_TESTDATA_DIR
#define LAN_TESTDATA_DIR "."
#endif

/// Config used to generate (and interpret) the committed fixture. Scalar
/// kernels make regeneration reproducible across hosts.
LanConfig GoldenConfig() {
  LanConfig config = TinyConfig();
  config.num_threads = 1;
  return config;
}

constexpr int64_t kGoldenGraphs = 40;

std::string GoldenPath() {
  return std::string(LAN_TESTDATA_DIR) + "/golden_index.lansnap";
}

TEST(SnapshotGoldenTest, OpensCommittedFixture) {
  SetActiveSimdLevel(SimdLevel::kScalar);
  LanIndex index(GoldenConfig());
  Status status = index.OpenSnapshot(GoldenPath());
  ASSERT_TRUE(status.ok()) << status.ToString()
                           << " (regenerate with --gtest_filter="
                              "*RegenerateGoldenFixture "
                              "--gtest_also_run_disabled_tests)";
  EXPECT_EQ(index.db().size(), kGoldenGraphs);
  EXPECT_TRUE(index.trained());

  // The stored models and graphs must produce working searches whose
  // distances agree with freshly recomputed GED (format compatibility,
  // robust to cross-compiler float differences in training).
  GedComputer exact_ged(GoldenConfig().query_ged);
  WorkloadOptions wopts;
  wopts.num_queries = 6;
  QueryWorkload workload = SampleWorkload(index.db(), wopts, 191);
  SearchOptions sopts;
  sopts.k = 5;
  for (size_t i = 0; i < 2; ++i) {
    SearchResult result = index.Search(workload.train[i], sopts);
    ASSERT_TRUE(result.status.ok());
    ASSERT_EQ(result.results.size(), 5u);
    double prev = -1.0;
    for (const auto& [id, d] : result.results) {
      ASSERT_GE(id, 0);
      ASSERT_LT(id, index.db().size());
      EXPECT_GE(d, prev);
      prev = d;
      EXPECT_NEAR(exact_ged.Distance(workload.train[i], index.db().Get(id)),
                  d, 1e-9);
    }
  }

  // The container itself: every expected section present.
  auto snapshot = Snapshot::Open(GoldenPath());
  ASSERT_TRUE(snapshot.ok());
  for (SectionKind kind :
       {SectionKind::kMeta, SectionKind::kGraphs, SectionKind::kEmbeddings,
        SectionKind::kClusters, SectionKind::kCgs, SectionKind::kHnsw,
        SectionKind::kModels}) {
    EXPECT_TRUE(snapshot->Has(kind)) << SectionKindName(kind);
  }
}

// The fixture's base CSR was written by the publish path of its day
// (nested AddEdge symmetrization, then compaction). Symmetrizing the stored
// core layer 0 through FromEdges, the derivation every publish now runs,
// must reproduce each stored row exactly.
TEST(SnapshotGoldenTest, BaseLayerIsSymmetrizedCoreLayer0) {
  LanIndex index(GoldenConfig());
  Status status = index.OpenSnapshot(GoldenPath());
  ASSERT_TRUE(status.ok()) << status.ToString();
  const HnswIndex& hnsw = index.hnsw();
  std::vector<std::pair<GraphId, GraphId>> edges;
  for (GraphId id = 0; id < hnsw.NumNodes(); ++id) {
    for (GraphId n : hnsw.CoreRow(0, id)) edges.emplace_back(id, n);
  }
  Result<ProximityGraph> derived =
      ProximityGraph::FromEdges(hnsw.NumNodes(), edges);
  ASSERT_TRUE(derived.ok()) << derived.status().ToString();
  const ProximityGraph& stored = hnsw.BaseLayer();
  ASSERT_EQ(derived->NumNodes(), stored.NumNodes());
  EXPECT_EQ(derived->NumEdges(), stored.NumEdges());
  for (GraphId id = 0; id < stored.NumNodes(); ++id) {
    const std::span<const GraphId> want = stored.NeighborSpan(id);
    const std::span<const GraphId> got = derived->NeighborSpan(id);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "row " << id;
  }
}

/// Manual fixture regeneration (run after an intentional format change):
/// run snapshot_test with --gtest_also_run_disabled_tests and
/// --gtest_filter='*RegenerateGoldenFixture'.
TEST(SnapshotGoldenTest, DISABLED_RegenerateGoldenFixture) {
  SetActiveSimdLevel(SimdLevel::kScalar);
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(kGoldenGraphs), 7);
  WorkloadOptions wopts;
  wopts.num_queries = 10;
  QueryWorkload workload = SampleWorkload(db, wopts, 8);
  LanIndex index(GoldenConfig());
  ASSERT_TRUE(index.Build(&db).ok());
  ASSERT_TRUE(index.Train(workload.train).ok());
  Status status = index.SaveSnapshot(GoldenPath());
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::printf("golden fixture written to %s\n", GoldenPath().c_str());
}

// ---------- Incomplete containers ----------

TEST(SnapshotTest, OpenRejectsMissingSections) {
  // A valid container holding only the PG sections (meta + hnsw) is not a
  // self-contained index: the loader must refuse it rather than crash.
  const std::string full_path = TempPath("full_for_partial.lansnap");
  const std::string partial_path = TempPath("partial.lansnap");
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(40), 221);
  LanIndex original(TinyConfig());
  ASSERT_TRUE(original.Build(&db).ok());
  ASSERT_TRUE(original.SaveSnapshot(full_path).ok());

  auto full = Snapshot::Open(full_path);
  ASSERT_TRUE(full.ok());
  SnapshotWriter writer;
  for (const SectionKind kind : {SectionKind::kMeta, SectionKind::kHnsw}) {
    const auto payload = full->Section(kind);
    writer.AddSection(kind)->Bytes(payload.data(), payload.size());
  }
  ASSERT_TRUE(writer.WriteToFile(partial_path).ok());

  LanIndex opened(TinyConfig());
  const Status status = opened.OpenSnapshot(partial_path);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("missing the graphs section"),
            std::string::npos)
      << status.ToString();
}

// ---------- Config mismatch ----------

TEST(SnapshotTest, OpenRejectsEmbeddingDimMismatch) {
  // Inserts embed at config.embedding.dim and M_c is sized from it, so a
  // snapshot of another dim must fail to open instead of aborting later.
  const std::string path16 = TempPath("dim16.lansnap");
  const std::string path32 = TempPath("dim32.lansnap");
  const std::string mixed_path = TempPath("dim_mixed.lansnap");
  GraphDatabase db = GenerateDatabase(DatasetSpec::SynLike(40), 231);
  LanIndex index16(TinyConfig());
  ASSERT_TRUE(index16.Build(&db).ok());
  ASSERT_TRUE(index16.SaveSnapshot(path16).ok());
  LanConfig config32 = TinyConfig();
  config32.embedding.dim = 32;
  LanIndex index32(config32);
  ASSERT_TRUE(index32.Build(&db).ok());
  ASSERT_TRUE(index32.SaveSnapshot(path32).ok());

  LanConfig config64 = TinyConfig();
  config64.embedding.dim = 64;
  LanIndex opened64(config64);
  const Status status = opened64.OpenSnapshot(path16);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("embedding dim"), std::string::npos)
      << status.ToString();

  // Dim-16 embeddings next to dim-32 centroids: the same cluster count and
  // assignment length, so only the dim check can catch it.
  auto a = Snapshot::Open(path16);
  auto b = Snapshot::Open(path32);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  SnapshotWriter writer;
  for (const SectionInfo& info : a->sections()) {
    const auto payload = info.kind == SectionKind::kClusters
                             ? b->Section(info.kind)
                             : a->Section(info.kind);
    writer.AddSection(info.kind)->Bytes(payload.data(), payload.size());
  }
  ASSERT_TRUE(writer.WriteToFile(mixed_path).ok());
  LanIndex mixed(TinyConfig());
  const Status mixed_status = mixed.OpenSnapshot(mixed_path);
  EXPECT_EQ(mixed_status.code(), StatusCode::kInvalidArgument)
      << mixed_status.ToString();
  EXPECT_NE(mixed_status.message().find("centroid dim"), std::string::npos)
      << mixed_status.ToString();
}

// ---------- Retired sections ----------

TEST(SnapshotTest, RetiredSectionIsSkippedOnOpen) {
  // Files saved with the retired int8 embedding plane carry a kind-9
  // section, and the manifest of the retired sharded directory layout was
  // a kind-8 section. The reader skips both by their TOC entries: such a
  // file opens and answers exactly like the same file without them.
  const std::string path = TempPath("without_retired.lansnap");
  const std::string retired_path = TempPath("with_retired.lansnap");
  GraphDatabase db;
  LanIndex original(TinyConfig());
  QueryWorkload workload = BuildAndSave(path, 40, &db, &original);

  auto full = Snapshot::Open(path);
  ASSERT_TRUE(full.ok());
  SnapshotWriter writer;
  for (const SectionInfo& info : full->sections()) {
    const auto payload = full->Section(info.kind);
    writer.AddSection(info.kind)->Bytes(payload.data(), payload.size());
    if (info.kind == SectionKind::kEmbeddings) {
      // Where the old writer put it: rows, dim, codes, per-row scales.
      SectionBuilder* retired =
          writer.AddSection(SectionKind::kRetiredInt8Embeddings);
      const EmbeddingMatrix& m = original.embeddings();
      retired->Pod(m.rows());
      retired->Pod(m.dim());
      const std::vector<int8_t> codes(m.size(), 1);
      const std::vector<float> scales(static_cast<size_t>(m.rows()), 0.5f);
      retired->Array(codes.data(), codes.size());
      retired->Array(scales.data(), scales.size());
    }
  }
  // The old manifest layout: shard count, total size, then per shard its
  // file name and global ids.
  SectionBuilder* manifest =
      writer.AddSection(SectionKind::kRetiredShardManifest);
  const std::string shard_file = "shard-000.lansnap";
  std::vector<GraphId> global_ids(static_cast<size_t>(db.size()));
  for (GraphId id = 0; id < db.size(); ++id) {
    global_ids[static_cast<size_t>(id)] = id;
  }
  manifest->Pod<int32_t>(1);
  manifest->Pod<int64_t>(db.size());
  manifest->Pod<int64_t>(static_cast<int64_t>(shard_file.size()));
  manifest->Bytes(shard_file.data(), shard_file.size());
  manifest->Pod<int64_t>(static_cast<int64_t>(global_ids.size()));
  manifest->Array(global_ids.data(), global_ids.size());
  ASSERT_TRUE(writer.WriteToFile(retired_path).ok());
  auto image = Snapshot::Open(retired_path);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(image->Has(SectionKind::kRetiredInt8Embeddings));
  ASSERT_TRUE(image->Has(SectionKind::kRetiredShardManifest));
  EXPECT_STREQ(SectionKindName(SectionKind::kRetiredShardManifest),
               "retired-shard-manifest");

  LanIndex plain(TinyConfig());
  ASSERT_TRUE(plain.OpenSnapshot(path).ok());
  LanIndex with_retired(TinyConfig());
  ASSERT_TRUE(with_retired.OpenSnapshot(retired_path).ok());
  EXPECT_TRUE(with_retired.trained());
  for (const InitMethod init : {InitMethod::kLanIs, InitMethod::kHnswIs}) {
    for (size_t i = 0; i < 3; ++i) {
      SearchOptions sopts;
      sopts.k = 5;
      sopts.init = init;
      SearchResult x = plain.Search(workload.test[i], sopts);
      SearchResult y = with_retired.Search(workload.test[i], sopts);
      ASSERT_TRUE(x.status.ok());
      ASSERT_TRUE(y.status.ok());
      EXPECT_EQ(x.results, y.results)
          << InitMethodName(init) << " query " << i;
    }
  }
}

}  // namespace
}  // namespace lan
