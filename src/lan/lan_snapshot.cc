// Snapshot codec for LanIndex: SaveSnapshot/OpenSnapshot, the complete
// self-contained single-file checkpoint and the index's only persistence
// format. Per-section payload layouts are documented in
// docs/snapshot_format.md; the container (header, TOC, checksums,
// alignment) lives in store/snapshot.{h,cc}.

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "lan/lan_index.h"
#include "nn/serialization.h"
#include "store/snapshot.h"

namespace lan {

/// Inside LanIndex member definitions the name `Snapshot` resolves to the
/// LanIndex::Snapshot() accessor; this alias names the container class.
using SnapshotImage = Snapshot;

namespace {

// ---- kMeta ----

void EncodeMeta(SectionBuilder* b, const std::string& name,
                int32_t num_labels, const IndexSnapshot& snap) {
  const int64_t name_len = static_cast<int64_t>(name.size());
  b->Pod(name_len);
  b->Bytes(name.data(), name.size());
  b->Pod(num_labels);
  const int64_t num_graphs = static_cast<int64_t>(snap.num_graphs);
  b->Pod(num_graphs);
  b->Pod(snap.epoch);
  b->Array(snap.live->data(), snap.live->size());
}

struct MetaSection {
  std::string name;
  int32_t num_labels = 0;
  int64_t num_graphs = 0;
  uint64_t epoch = 0;
  std::span<const uint8_t> live;
};

Result<MetaSection> DecodeMeta(std::span<const uint8_t> payload) {
  SectionReader r(payload);
  MetaSection meta;
  int64_t name_len = 0;
  LAN_RETURN_NOT_OK(r.Pod(&name_len));
  if (name_len < 0 || static_cast<uint64_t>(name_len) > r.remaining()) {
    return Status::IoError("meta section: bad name length");
  }
  LAN_ASSIGN_OR_RETURN(std::span<const char> name_bytes,
                       r.Array<char>(static_cast<size_t>(name_len)));
  meta.name.assign(name_bytes.data(), name_bytes.size());
  LAN_RETURN_NOT_OK(r.Pod(&meta.num_labels));
  LAN_RETURN_NOT_OK(r.Pod(&meta.num_graphs));
  LAN_RETURN_NOT_OK(r.Pod(&meta.epoch));
  if (meta.num_labels < 0 || meta.num_graphs < 0) {
    return Status::IoError("meta section: negative counts");
  }
  LAN_ASSIGN_OR_RETURN(
      meta.live, r.Array<uint8_t>(static_cast<size_t>(meta.num_graphs)));
  return meta;
}

// ---- kGraphs ----

void EncodeGraphs(SectionBuilder* b, const GraphDatabase& db) {
  const int64_t n = db.size();
  std::vector<int64_t> node_start(static_cast<size_t>(n) + 1, 0);
  std::vector<int64_t> neigh_start(static_cast<size_t>(n) + 1, 0);
  for (GraphId g = 0; g < db.size(); ++g) {
    const Graph& graph = db.Get(g);
    const size_t i = static_cast<size_t>(g);
    node_start[i + 1] = node_start[i] + graph.NumNodes();
    neigh_start[i + 1] =
        neigh_start[i] + static_cast<int64_t>(graph.neighbors().size());
  }
  b->Pod(n);
  b->Array(node_start.data(), node_start.size());
  b->Array(neigh_start.data(), neigh_start.size());
  // Each column packs contiguously: the buffer stays 4-aligned between
  // Array calls, so the graphs' arrays concatenate into one arena.
  for (GraphId g = 0; g < db.size(); ++g) {
    const std::span<const Label> labels = db.Get(g).labels();
    b->Array(labels.data(), labels.size());
  }
  for (GraphId g = 0; g < db.size(); ++g) {
    const std::span<const int32_t> offsets = db.Get(g).row_offsets();
    b->Array(offsets.data(), offsets.size());
  }
  for (GraphId g = 0; g < db.size(); ++g) {
    const std::span<const NodeId> neighbors = db.Get(g).neighbors();
    b->Array(neighbors.data(), neighbors.size());
  }
}

/// Appends the section's `expect_graphs` graphs to `db`. Each one must
/// be a valid Graph CSR (Graph::FromCsr) and pass db->CheckGraph.
Status DecodeGraphs(std::span<const uint8_t> payload, int64_t expect_graphs,
                    GraphDatabase* db) {
  SectionReader r(payload);
  int64_t n = 0;
  LAN_RETURN_NOT_OK(r.Pod(&n));
  if (n != expect_graphs) {
    return Status::IoError("graphs section: graph count mismatch");
  }
  const size_t ns = static_cast<size_t>(n);
  LAN_ASSIGN_OR_RETURN(std::span<const int64_t> node_start,
                       r.Array<int64_t>(ns + 1));
  LAN_ASSIGN_OR_RETURN(std::span<const int64_t> neigh_start,
                       r.Array<int64_t>(ns + 1));
  if (node_start[0] != 0 || neigh_start[0] != 0) {
    return Status::IoError("graphs section: offsets must start at 0");
  }
  for (size_t g = 0; g < ns; ++g) {
    if (node_start[g + 1] < node_start[g] ||
        neigh_start[g + 1] < neigh_start[g]) {
      return Status::IoError("graphs section: non-monotone offsets");
    }
  }
  LAN_ASSIGN_OR_RETURN(std::span<const Label> labels,
                       r.Array<Label>(static_cast<size_t>(node_start[ns])));
  // One CSR offset row per graph is n_g + 1 entries, hence the + N.
  LAN_ASSIGN_OR_RETURN(std::span<const int32_t> row_offsets,
                       r.Array<int32_t>(labels.size() + ns));
  LAN_ASSIGN_OR_RETURN(
      std::span<const NodeId> neighbors,
      r.Array<NodeId>(static_cast<size_t>(neigh_start[ns])));
  for (size_t g = 0; g < ns; ++g) {
    const auto node_begin = labels.begin() + node_start[g];
    const auto node_end = labels.begin() + node_start[g + 1];
    // Graph g's offset row starts g slots late: one extra per graph.
    const auto row_begin = row_offsets.begin() + node_start[g] +
                           static_cast<int64_t>(g);
    const auto row_end = row_offsets.begin() + node_start[g + 1] +
                         static_cast<int64_t>(g) + 1;
    Result<Graph> graph = Graph::FromCsr(
        {node_begin, node_end}, {row_begin, row_end},
        {neighbors.begin() + neigh_start[g],
         neighbors.begin() + neigh_start[g + 1]});
    const Status status =
        graph.ok() ? db->Add(std::move(*graph)).status() : graph.status();
    if (!status.ok()) {
      return Status::IoError(StrFormat("graphs section: graph %zu: %s", g,
                                       status.message().c_str()));
    }
  }
  return Status::OK();
}

// ---- matrices (the centroids in kClusters, the contexts in kModels) ----

void EncodeMatrix(SectionBuilder* b, const EmbeddingMatrix& m) {
  const int64_t rows = m.rows();
  b->Pod(rows);
  b->Pod(m.dim());
  b->Array(m.data(), m.size());
}

Result<EmbeddingMatrix> DecodeMatrix(SectionReader* r) {
  int64_t rows = 0;
  int32_t dim = 0;
  LAN_RETURN_NOT_OK(r->Pod(&rows));
  LAN_RETURN_NOT_OK(r->Pod(&dim));
  if (rows < 0 || dim < 0 || (rows > 0 && dim == 0)) {
    return Status::IoError("matrix: bad shape");
  }
  const size_t count = static_cast<size_t>(rows) * static_cast<size_t>(dim);
  if (dim != 0 && count / static_cast<size_t>(dim) !=
                      static_cast<size_t>(rows)) {
    return Status::IoError("matrix: shape overflow");
  }
  LAN_ASSIGN_OR_RETURN(std::span<const float> data, r->Array<float>(count));
  EmbeddingMatrix m(rows, dim);
  std::copy(data.begin(), data.end(), m.MutableRow(0));
  return m;
}

// ---- kClusters ----

void EncodeClusters(SectionBuilder* b, const KMeansResult& clusters) {
  EncodeMatrix(b, clusters.centroids);
  const int64_t assigned = static_cast<int64_t>(clusters.assignment.size());
  b->Pod(assigned);
  b->Array(clusters.assignment.data(), clusters.assignment.size());
}

Result<KMeansResult> DecodeClusters(std::span<const uint8_t> payload,
                                    int64_t expect_graphs) {
  SectionReader r(payload);
  KMeansResult clusters;
  LAN_ASSIGN_OR_RETURN(clusters.centroids, DecodeMatrix(&r));
  int64_t assigned = 0;
  LAN_RETURN_NOT_OK(r.Pod(&assigned));
  if (assigned != expect_graphs) {
    return Status::IoError("clusters section: assignment size mismatch");
  }
  LAN_ASSIGN_OR_RETURN(std::span<const int32_t> assignment,
                       r.Array<int32_t>(static_cast<size_t>(assigned)));
  const int32_t k = static_cast<int32_t>(clusters.centroids.rows());
  for (const int32_t c : assignment) {
    if (c < 0 || c >= k) {
      return Status::IoError("clusters section: assignment out of range");
    }
  }
  clusters.assignment.assign(assignment.begin(), assignment.end());
  clusters.RebuildMembers(k);
  return clusters;
}

// ---- kHnsw ----

void EncodeCsr(SectionBuilder* b, GraphId num_nodes,
               const std::function<std::span<const GraphId>(GraphId)>& row) {
  std::vector<int64_t> offsets(static_cast<size_t>(num_nodes) + 1, 0);
  for (GraphId id = 0; id < num_nodes; ++id) {
    offsets[static_cast<size_t>(id) + 1] =
        offsets[static_cast<size_t>(id)] +
        static_cast<int64_t>(row(id).size());
  }
  std::vector<GraphId> neighbors;
  neighbors.reserve(static_cast<size_t>(offsets.back()));
  for (GraphId id = 0; id < num_nodes; ++id) {
    const auto span = row(id);
    neighbors.insert(neighbors.end(), span.begin(), span.end());
  }
  b->Array(offsets.data(), offsets.size());
  b->Array(neighbors.data(), neighbors.size());
}

void EncodeHnsw(SectionBuilder* b, const HnswIndex& hnsw) {
  const GraphId num_nodes = hnsw.NumNodes();
  b->Pod(num_nodes);
  b->Pod(hnsw.EntryPoint());
  const int32_t core_layers = hnsw.NumLayers();
  b->Pod(core_layers);
  std::vector<int32_t> node_level(static_cast<size_t>(num_nodes));
  for (GraphId id = 0; id < num_nodes; ++id) {
    node_level[static_cast<size_t>(id)] = hnsw.NodeLevel(id);
  }
  b->Array(node_level.data(), node_level.size());
  const ProximityGraph& base = hnsw.BaseLayer();
  EncodeCsr(b, num_nodes,
            [&base](GraphId id) { return base.NeighborSpan(id); });
  for (int32_t l = 0; l < core_layers; ++l) {
    EncodeCsr(b, num_nodes,
              [&hnsw, l](GraphId id) { return hnsw.CoreRow(l, id); });
  }
}

/// One CSR block of the kHnsw section, with offsets that start at 0,
/// never decrease and end at the neighbor count.
struct CsrSpans {
  std::span<const int64_t> offsets;
  std::span<const GraphId> neighbors;

  std::span<const GraphId> Row(GraphId id) const {
    const int64_t begin = offsets[static_cast<size_t>(id)];
    return neighbors.subspan(
        static_cast<size_t>(begin),
        static_cast<size_t>(offsets[static_cast<size_t>(id) + 1] - begin));
  }
};

Result<CsrSpans> DecodeCsr(SectionReader* r, GraphId num_nodes) {
  CsrSpans csr;
  LAN_ASSIGN_OR_RETURN(csr.offsets,
                       r->Array<int64_t>(static_cast<size_t>(num_nodes) + 1));
  const int64_t count = csr.offsets[static_cast<size_t>(num_nodes)];
  if (count < 0) return Status::IoError("hnsw section: negative CSR size");
  LAN_ASSIGN_OR_RETURN(csr.neighbors,
                       r->Array<GraphId>(static_cast<size_t>(count)));
  if (csr.offsets[0] != 0) {
    return Status::IoError("hnsw section: bad csr offsets");
  }
  for (GraphId id = 0; id < num_nodes; ++id) {
    if (csr.offsets[static_cast<size_t>(id) + 1] <
        csr.offsets[static_cast<size_t>(id)]) {
      return Status::IoError("hnsw section: bad csr row");
    }
  }
  return csr;
}

/// Restores the index from its stored core (HnswIndex::FromCore checks
/// its structure). The stored base layer is derived data, so it must
/// equal the one the core derives.
Result<HnswIndex> DecodeHnsw(std::span<const uint8_t> payload,
                             int64_t expect_graphs) {
  SectionReader r(payload);
  HnswCore core;
  LAN_RETURN_NOT_OK(r.Pod(&core.num_nodes));
  LAN_RETURN_NOT_OK(r.Pod(&core.entry));
  int32_t core_layers = 0;
  LAN_RETURN_NOT_OK(r.Pod(&core_layers));
  if (core.num_nodes < 0 || core_layers < 1 || core_layers > 64) {
    return Status::IoError("hnsw section: bad header");
  }
  if (static_cast<int64_t>(core.num_nodes) != expect_graphs) {
    return Status::IoError("hnsw section: node count mismatch");
  }
  LAN_ASSIGN_OR_RETURN(
      std::span<const int32_t> node_level,
      r.Array<int32_t>(static_cast<size_t>(core.num_nodes)));
  core.node_level.assign(node_level.begin(), node_level.end());
  LAN_ASSIGN_OR_RETURN(CsrSpans base, DecodeCsr(&r, core.num_nodes));
  core.adjacency.resize(static_cast<size_t>(core_layers));
  for (auto& layer : core.adjacency) {
    LAN_ASSIGN_OR_RETURN(CsrSpans csr, DecodeCsr(&r, core.num_nodes));
    layer.resize(static_cast<size_t>(core.num_nodes));
    for (GraphId id = 0; id < core.num_nodes; ++id) {
      const std::span<const GraphId> row = csr.Row(id);
      layer[static_cast<size_t>(id)].assign(row.begin(), row.end());
    }
  }
  LAN_ASSIGN_OR_RETURN(HnswIndex hnsw, HnswIndex::FromCore(std::move(core)));
  for (GraphId id = 0; id < hnsw.NumNodes(); ++id) {
    if (!std::ranges::equal(hnsw.BaseLayer().NeighborSpan(id),
                            base.Row(id))) {
      return Status::IoError(
          "hnsw section: base layer differs from the one core layer 0 "
          "derives");
    }
  }
  return hnsw;
}

// ---- kModels ----

Result<std::string> ParamBlob(const ParamStore& params) {
  std::ostringstream os;
  LAN_RETURN_NOT_OK(WriteParamStore(params, os));
  return os.str();
}

void EncodeBlob(SectionBuilder* b, const std::string& blob) {
  const int64_t len = static_cast<int64_t>(blob.size());
  b->Pod(len);
  b->Bytes(blob.data(), blob.size());
}

Result<std::string> DecodeBlob(SectionReader* r) {
  int64_t len = 0;
  LAN_RETURN_NOT_OK(r->Pod(&len));
  if (len < 0 || static_cast<uint64_t>(len) > r->remaining()) {
    return Status::IoError("models section: bad blob length");
  }
  LAN_ASSIGN_OR_RETURN(std::span<const char> bytes,
                       r->Array<char>(static_cast<size_t>(len)));
  return std::string(bytes.data(), bytes.size());
}

}  // namespace

// ---- Full snapshot (SaveSnapshot / OpenSnapshot) ----

Status LanIndex::SaveSnapshot(const std::string& path) const {
  if (!built_) {
    return Status::FailedPrecondition("SaveSnapshot before Build");
  }
  // Exclude writers so the database contents and the published snapshot
  // describe the same epoch.
  std::lock_guard<std::mutex> lock(writer_mu_);
  const auto snap = Snapshot();
  SnapshotWriter writer;
  EncodeMeta(writer.AddSection(SectionKind::kMeta), db_->name(),
             db_->num_labels(), *snap);

  EncodeGraphs(writer.AddSection(SectionKind::kGraphs), *db_);
  EncodeClusters(writer.AddSection(SectionKind::kClusters), *snap->clusters);
  EncodeHnsw(writer.AddSection(SectionKind::kHnsw), *snap->hnsw);

  if (trained_) {
    SectionBuilder* b = writer.AddSection(SectionKind::kModels);
    b->Pod(gamma_star_);
    b->Pod(nh_model_->calibrated_threshold());
    LAN_ASSIGN_OR_RETURN(std::string rank_blob,
                         ParamBlob(rank_model_->scorer().params()));
    LAN_ASSIGN_OR_RETURN(std::string nh_blob,
                         ParamBlob(nh_model_->scorer().params()));
    LAN_ASSIGN_OR_RETURN(
        std::string cluster_blob,
        ParamBlob(static_cast<const ClusterModel&>(*cluster_model_).params()));
    EncodeBlob(b, rank_blob);
    EncodeBlob(b, nh_blob);
    EncodeBlob(b, cluster_blob);
    EncodeMatrix(b, rank_model_->contexts());
  }
  return writer.WriteToFile(path);
}

Status LanIndex::OpenSnapshot(const std::string& path) {
  LAN_RETURN_NOT_OK(config_.Validate());
  if (built_) {
    return Status::FailedPrecondition(
        "OpenSnapshot on an already-built index");
  }
  // The mapping lives only as long as `image`: everything below decodes
  // into owned structures. Sections of retired kinds (older files carry
  // the CGs and the embedding matrix) are skipped.
  LAN_ASSIGN_OR_RETURN(SnapshotImage image, SnapshotImage::Open(path));
  for (const SectionKind kind :
       {SectionKind::kMeta, SectionKind::kGraphs, SectionKind::kClusters,
        SectionKind::kHnsw}) {
    if (!image.Has(kind)) {
      return Status::IoError(StrFormat("snapshot %s is missing the %s section",
                                       path.c_str(),
                                       SectionKindName(kind)));
    }
  }
  LAN_ASSIGN_OR_RETURN(MetaSection meta,
                       DecodeMeta(image.Section(SectionKind::kMeta)));
  const int64_t n = meta.num_graphs;
  if (n <= 0) return Status::IoError("snapshot holds an empty database");

  // Database: every graph enters through the checks Add applies, then the
  // bitmap's tombstones.
  owned_db_ = std::make_unique<GraphDatabase>(meta.num_labels);
  owned_db_->set_name(meta.name);
  LAN_RETURN_NOT_OK(
      DecodeGraphs(image.Section(SectionKind::kGraphs), n, owned_db_.get()));
  std::vector<uint8_t> live(meta.live.begin(), meta.live.end());
  for (GraphId id = 0; id < static_cast<GraphId>(n); ++id) {
    if (live[static_cast<size_t>(id)] == 0) {
      LAN_RETURN_NOT_OK(owned_db_->Remove(id));
    }
  }
  db_ = owned_db_.get();
  mutable_db_ = owned_db_.get();
  config_.embedding.num_labels = meta.num_labels;

  LAN_ASSIGN_OR_RETURN(HnswIndex hnsw,
                       DecodeHnsw(image.Section(SectionKind::kHnsw), n));
  LAN_ASSIGN_OR_RETURN(
      KMeansResult clusters,
      DecodeClusters(image.Section(SectionKind::kClusters), n));
  // Inserts and LAN_IS queries embed their graph at the config's dim and
  // M_c is sized from it, so a mismatch must be rejected here rather than
  // abort on the first write or search.
  if (clusters.centroids.dim() != config_.embedding.dim) {
    return Status::InvalidArgument(StrFormat(
        "snapshot centroid dim %d does not match config.embedding.dim %d",
        clusters.centroids.dim(), config_.embedding.dim));
  }

  // Trained state, if the snapshot carries it: architectures come from
  // the config, parameters and the rank context matrix from the section.
  // Parameters of another architecture (say, other gnn_dims) fail the
  // shape checks of ReadParamStoreInto.
  if (image.Has(SectionKind::kModels)) {
    SectionReader r(image.Section(SectionKind::kModels));
    LAN_RETURN_NOT_OK(r.Pod(&gamma_star_));
    float nh_threshold = 0.5f;
    LAN_RETURN_NOT_OK(r.Pod(&nh_threshold));
    LAN_ASSIGN_OR_RETURN(std::string rank_blob, DecodeBlob(&r));
    LAN_ASSIGN_OR_RETURN(std::string nh_blob, DecodeBlob(&r));
    LAN_ASSIGN_OR_RETURN(std::string cluster_blob, DecodeBlob(&r));

    MakeModels(meta.num_labels);
    std::istringstream rank_in(rank_blob);
    LAN_RETURN_NOT_OK(
        ReadParamStoreInto(rank_model_->mutable_scorer()->params(), rank_in));
    std::istringstream nh_in(nh_blob);
    LAN_RETURN_NOT_OK(
        ReadParamStoreInto(nh_model_->mutable_scorer()->params(), nh_in));
    nh_model_->set_calibrated_threshold(nh_threshold);
    std::istringstream cluster_in(cluster_blob);
    LAN_RETURN_NOT_OK(ReadParamStoreInto(cluster_model_->params(),
                                         cluster_in));

    LAN_ASSIGN_OR_RETURN(EmbeddingMatrix contexts, DecodeMatrix(&r));
    // Train precomputes one context row per graph it saw; graphs inserted
    // afterwards get theirs computed from their CG (rank_model.cc), so the
    // matrix covers a prefix of the database, never more.
    if (contexts.rows() > n) {
      return Status::IoError("models section: context row count mismatch");
    }
    // InferHeads appends a context row to every cross row of the rank
    // heads, whose input width fixes the row's.
    if (contexts.rows() > 0 &&
        contexts.dim() != rank_model_->scorer().context_dim()) {
      return Status::IoError("models section: context dim mismatch");
    }
    rank_model_->AttachContexts(std::move(contexts));
    trained_ = true;
  }

  auto next = std::make_shared<IndexSnapshot>();
  next->epoch = meta.epoch;
  next->num_graphs = static_cast<GraphId>(n);
  next->live_count = next->num_graphs;
  for (const uint8_t l : live) {
    if (l == 0) --next->live_count;
  }
  next->hnsw = std::make_shared<const HnswIndex>(std::move(hnsw));
  next->live =
      std::make_shared<const std::vector<uint8_t>>(std::move(live));
  next->cgs = DeriveCgs();
  next->clusters =
      std::make_shared<const KMeansResult>(std::move(clusters));
  // Same tail as FinishBuild. Every epoch since Build is one Insert or
  // one Remove, and each Remove left exactly one tombstone, so the
  // inserts since Build are epoch - tombstones: the level stream resumes
  // where the saving index left off.
  const uint64_t tombstones =
      static_cast<uint64_t>(next->num_graphs - next->live_count);
  Publish(std::move(next));
  const uint64_t inserted =
      meta.epoch >= tombstones
          ? std::min<uint64_t>(meta.epoch - tombstones,
                               static_cast<uint64_t>(n - 1))
          : 0;
  FinishSetup(static_cast<GraphId>(n - static_cast<int64_t>(inserted)),
              inserted);
  LAN_LOG(Info) << "LanIndex::OpenSnapshot: " << n << " graphs ("
                << meta.name << "), epoch " << meta.epoch
                << (trained_ ? ", trained" : ", untrained");
  return Status::OK();
}

}  // namespace lan
