#ifndef LAN_STORE_SNAPSHOT_H_
#define LAN_STORE_SNAPSHOT_H_

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace lan {

/// Single-file index snapshot container.
///
/// Layout (all little-endian, offsets from file start):
///   [0, 64)    header: magic "LANSNAP1", u32 version, u32 section_count,
///              u64 file_size, u64 toc_offset, u64 toc_checksum, zero pad.
///   toc_offset table of contents: section_count x 32-byte entries
///              {u32 kind, u32 reserved, u64 offset, u64 size,
///               u64 checksum}, XXH64-summed as one block (toc_checksum).
///   ...        section payloads, each 64-byte aligned and XXH64-summed.
///
/// Open() maps the file and validates structure + every checksum before
/// returning; Section() then hands out spans pointing into the mapping,
/// which lives as long as the Snapshot (copies share it). Loaders decode
/// those spans into owned structures (LanIndex::OpenSnapshot keeps
/// nothing of the file once it returns).
///
/// See docs/snapshot_format.md for the per-section payload layouts.

/// Section identifiers. Values are part of the on-disk format; never
/// renumber, only append.
enum class SectionKind : uint32_t {
  kMeta = 1,        ///< index-level scalars + live bitmap
  kGraphs = 2,      ///< every graph's CSR, in columnar arenas
  kEmbeddings = 3,  ///< database embedding matrix
  kClusters = 4,    ///< M_c centroids + assignment
  kCgs = 5,         ///< compressed GNN graphs (arena form)
  kHnsw = 6,        ///< HNSW core + base-view CSR layers
  kModels = 7,      ///< trained parameter blobs + rank context matrix
  /// Retired: held the manifest of a sharded directory layout. Never
  /// written, skipped on read, never reuse the value.
  kRetiredShardManifest = 8,
  /// Retired: held the int8 quantized embedding plane. Never written,
  /// skipped on read (older files keep opening), never reuse the value.
  kRetiredInt8Embeddings = 9,
};

/// Human-readable name of a section kind ("meta", "graphs", ...).
const char* SectionKindName(SectionKind kind);

/// One table-of-contents entry, decoded.
struct SectionInfo {
  SectionKind kind;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

/// \brief Append-only byte buffer with POD/array helpers used to build
/// one section payload. Array() pads to the element alignment first, so
/// a reader of the payload (whose base is 64-byte aligned in the file)
/// can reinterpret the bytes in place.
class SectionBuilder {
 public:
  void Bytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }
  template <typename T>
  void Pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes(&v, sizeof(T));
  }
  template <typename T>
  void Array(const T* data, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    Align(alignof(T));
    Bytes(data, count * sizeof(T));
  }
  void Align(size_t alignment) {
    while (buf_.size() % alignment != 0) buf_.push_back('\0');
  }
  size_t size() const { return buf_.size(); }
  const std::string& data() const { return buf_; }

 private:
  std::string buf_;
};

/// \brief Sequential decoder over one section payload. Array() returns a
/// span aliasing the payload after consuming alignment
/// padding symmetric with SectionBuilder::Array. Every accessor
/// bounds-checks and returns a Status on truncation, so a corrupted
/// section degrades to an error, never an out-of-bounds read.
class SectionReader {
 public:
  explicit SectionReader(std::span<const uint8_t> data) : data_(data) {}

  template <typename T>
  Status Pod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > data_.size()) {
      return Status::IoError("snapshot section truncated");
    }
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  template <typename T>
  Result<std::span<const T>> Array(size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    LAN_RETURN_NOT_OK(Align(alignof(T)));
    if (count > (data_.size() - pos_) / sizeof(T)) {
      return Status::IoError("snapshot section truncated");
    }
    const T* base = reinterpret_cast<const T*>(data_.data() + pos_);
    pos_ += count * sizeof(T);
    return std::span<const T>(base, count);
  }

  Status Align(size_t alignment) {
    const size_t aligned = (pos_ + alignment - 1) / alignment * alignment;
    if (aligned > data_.size()) {
      return Status::IoError("snapshot section truncated");
    }
    pos_ = aligned;
    return Status::OK();
  }

  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// \brief Assembles and writes a snapshot file: add sections in order,
/// then WriteToFile lays out header + TOC + aligned payloads and stamps
/// the checksums.
class SnapshotWriter {
 public:
  /// Starts a new section; fill the returned builder before adding the
  /// next one (the pointer stays valid until the writer is destroyed).
  SectionBuilder* AddSection(SectionKind kind);

  Status WriteToFile(const std::string& path) const;

 private:
  Status WriteTo(std::ostream& out) const;

  std::vector<std::pair<SectionKind, std::unique_ptr<SectionBuilder>>>
      sections_;
};

/// \brief A validated, read-only mmap of a snapshot file. Copies share the
/// mapping.
class Snapshot {
 public:
  /// Maps `path` and validates header, TOC and every section checksum.
  static Result<Snapshot> Open(const std::string& path);

  bool Has(SectionKind kind) const;
  /// The payload of the first section of `kind`; empty span if absent.
  std::span<const uint8_t> Section(SectionKind kind) const;
  const std::vector<SectionInfo>& sections() const { return sections_; }
  size_t size() const { return size_; }
  uint32_t version() const { return version_; }

  /// One line per section: kind, offset, size, checksum (lan_tool
  /// inspect).
  std::string Describe() const;

 private:
  static Result<Snapshot> Validate(std::shared_ptr<const void> owner,
                                   const uint8_t* data, size_t size);

  std::shared_ptr<const void> owner_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  uint32_t version_ = 0;
  std::vector<SectionInfo> sections_;
};

}  // namespace lan

#endif  // LAN_STORE_SNAPSHOT_H_
