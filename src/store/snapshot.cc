#include "store/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <ostream>

#include "common/string_util.h"
#include "store/xxhash.h"

namespace lan {

namespace {

constexpr char kSnapshotMagic[8] = {'L', 'A', 'N', 'S', 'N', 'A', 'P', '1'};
constexpr uint32_t kSnapshotVersion = 1;
constexpr size_t kHeaderSize = 64;
constexpr size_t kTocEntrySize = 32;
constexpr size_t kSectionAlignment = 64;

struct Header {
  char magic[8];
  uint32_t version;
  uint32_t section_count;
  uint64_t file_size;
  uint64_t toc_offset;
  uint64_t toc_checksum;
  uint8_t pad[24];
};
static_assert(sizeof(Header) == kHeaderSize);

struct TocEntry {
  uint32_t kind;
  uint32_t reserved;
  uint64_t offset;
  uint64_t size;
  uint64_t checksum;
};
static_assert(sizeof(TocEntry) == kTocEntrySize);

size_t AlignUp(size_t n, size_t alignment) {
  return (n + alignment - 1) / alignment * alignment;
}

/// Releases an Open() mapping when the last Snapshot copy goes away.
struct MappedFile {
  void* addr = nullptr;
  size_t len = 0;
  ~MappedFile() {
    if (addr != nullptr) ::munmap(addr, len);
  }
};

}  // namespace

const char* SectionKindName(SectionKind kind) {
  switch (kind) {
    case SectionKind::kMeta:
      return "meta";
    case SectionKind::kGraphs:
      return "graphs";
    case SectionKind::kRetiredEmbeddings:
      return "retired-embeddings";
    case SectionKind::kClusters:
      return "clusters";
    case SectionKind::kRetiredCgs:
      return "retired-cgs";
    case SectionKind::kHnsw:
      return "hnsw";
    case SectionKind::kModels:
      return "models";
    case SectionKind::kRetiredShardManifest:
      return "retired-shard-manifest";
    case SectionKind::kRetiredInt8Embeddings:
      return "retired-int8";
  }
  return "unknown";
}

SectionBuilder* SnapshotWriter::AddSection(SectionKind kind) {
  sections_.emplace_back(kind, std::make_unique<SectionBuilder>());
  return sections_.back().second.get();
}

Status SnapshotWriter::WriteTo(std::ostream& out) const {
  // Lay out: header, TOC, then 64-byte-aligned payloads.
  const size_t toc_offset = kHeaderSize;
  const size_t toc_size = sections_.size() * kTocEntrySize;
  std::vector<TocEntry> toc(sections_.size());
  size_t cursor = AlignUp(toc_offset + toc_size, kSectionAlignment);
  for (size_t i = 0; i < sections_.size(); ++i) {
    const std::string& payload = sections_[i].second->data();
    toc[i].kind = static_cast<uint32_t>(sections_[i].first);
    toc[i].reserved = 0;
    toc[i].offset = cursor;
    toc[i].size = payload.size();
    toc[i].checksum = XxHash64(payload.data(), payload.size());
    cursor = AlignUp(cursor + payload.size(), kSectionAlignment);
  }

  Header header{};
  std::memcpy(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  header.version = kSnapshotVersion;
  header.section_count = static_cast<uint32_t>(sections_.size());
  header.file_size = cursor;
  header.toc_offset = toc_offset;
  header.toc_checksum = XxHash64(toc.data(), toc_size);

  auto write = [&out](const void* data, size_t n) -> Status {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(n));
    if (!out.good()) return Status::IoError("snapshot write failed");
    return Status::OK();
  };
  auto pad_to = [&](size_t target, size_t written) -> Status {
    static const char zeros[kSectionAlignment] = {};
    return write(zeros, target - written);
  };

  LAN_RETURN_NOT_OK(write(&header, sizeof(header)));
  LAN_RETURN_NOT_OK(write(toc.data(), toc_size));
  size_t written = toc_offset + toc_size;
  for (size_t i = 0; i < sections_.size(); ++i) {
    LAN_RETURN_NOT_OK(pad_to(toc[i].offset, written));
    const std::string& payload = sections_[i].second->data();
    LAN_RETURN_NOT_OK(write(payload.data(), payload.size()));
    written = toc[i].offset + payload.size();
  }
  LAN_RETURN_NOT_OK(pad_to(cursor, written));
  return Status::OK();
}

Status SnapshotWriter::WriteToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return ErrnoIoError("cannot open for writing", path);
  LAN_RETURN_NOT_OK(WriteTo(out));
  out.flush();
  if (!out.good()) return ErrnoIoError("write failed", path);
  return Status::OK();
}

Result<Snapshot> Snapshot::Validate(std::shared_ptr<const void> owner,
                                    const uint8_t* data, size_t size) {
  if (size < kHeaderSize) return Status::IoError("snapshot too small");
  Header header;
  std::memcpy(&header, data, sizeof(header));
  if (std::memcmp(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    return Status::IoError("bad snapshot magic");
  }
  if (header.version != kSnapshotVersion) {
    return Status::IoError(
        StrFormat("unsupported snapshot version %u", header.version));
  }
  if (header.file_size != size) {
    return Status::IoError(
        StrFormat("snapshot size mismatch: header says %llu, file has %llu",
                  static_cast<unsigned long long>(header.file_size),
                  static_cast<unsigned long long>(size)));
  }
  const size_t toc_size =
      static_cast<size_t>(header.section_count) * kTocEntrySize;
  if (header.toc_offset != kHeaderSize || kHeaderSize + toc_size > size) {
    return Status::IoError("snapshot toc out of bounds");
  }
  if (XxHash64(data + header.toc_offset, toc_size) != header.toc_checksum) {
    return Status::IoError("snapshot toc checksum mismatch");
  }

  Snapshot snap;
  snap.owner_ = std::move(owner);
  snap.data_ = data;
  snap.size_ = size;
  snap.version_ = header.version;
  snap.sections_.reserve(header.section_count);
  for (uint32_t i = 0; i < header.section_count; ++i) {
    TocEntry entry;
    std::memcpy(&entry, data + header.toc_offset + i * kTocEntrySize,
                sizeof(entry));
    if (entry.offset % kSectionAlignment != 0 || entry.offset > size ||
        entry.size > size - entry.offset) {
      return Status::IoError(StrFormat("snapshot section %u out of bounds",
                                       entry.kind));
    }
    if (XxHash64(data + entry.offset, entry.size) != entry.checksum) {
      return Status::IoError(
          StrFormat("snapshot section %s checksum mismatch",
                    SectionKindName(static_cast<SectionKind>(entry.kind))));
    }
    snap.sections_.push_back({static_cast<SectionKind>(entry.kind),
                              entry.offset, entry.size, entry.checksum});
  }
  return snap;
}

Result<Snapshot> Snapshot::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoIoError("cannot open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = ErrnoIoError("cannot stat", path);
    ::close(fd);
    return status;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::IoError("snapshot too small: " + path);
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (addr == MAP_FAILED) return ErrnoIoError("cannot mmap", path);
  auto mapping = std::make_shared<MappedFile>();
  mapping->addr = addr;
  mapping->len = size;
  return Validate(std::move(mapping), static_cast<const uint8_t*>(addr),
                  size);
}

bool Snapshot::Has(SectionKind kind) const {
  for (const SectionInfo& s : sections_) {
    if (s.kind == kind) return true;
  }
  return false;
}

std::span<const uint8_t> Snapshot::Section(SectionKind kind) const {
  for (const SectionInfo& s : sections_) {
    if (s.kind == kind) return {data_ + s.offset, s.size};
  }
  return {};
}

std::string Snapshot::Describe() const {
  std::string out = StrFormat("snapshot v%u, %llu bytes, %zu sections\n",
                              version_,
                              static_cast<unsigned long long>(size_),
                              sections_.size());
  for (const SectionInfo& s : sections_) {
    out += StrFormat("  %-22s offset=%-10llu size=%-10llu xxh64=%016llx\n",
                     SectionKindName(s.kind),
                     static_cast<unsigned long long>(s.offset),
                     static_cast<unsigned long long>(s.size),
                     static_cast<unsigned long long>(s.checksum));
  }
  return out;
}

}  // namespace lan
