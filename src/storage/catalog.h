// File catalog: maps each backup generation's files onto byte ranges of its
// logical stream, enabling file-granular restore.
//
// The paper's Fig. 1 motivates de-linearization with a *single file* split
// into N fragments; whole-generation restores amortize seeks across
// gigabytes, but a single-file restore pays the file's fragment count
// directly. The catalog is what turns "restore generation 7" into "restore
// /user/data/file_42 from generation 7".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace defrag {

/// One file's placement within a generation's logical stream.
struct CatalogEntry {
  std::string path;
  std::uint64_t stream_offset = 0;
  std::uint64_t size = 0;
};

/// Per-generation file listing.
class GenerationCatalog {
 public:
  /// Files must be added in stream order (offsets non-decreasing).
  void add(std::string path, std::uint64_t stream_offset, std::uint64_t size);

  const std::vector<CatalogEntry>& entries() const { return entries_; }
  std::optional<CatalogEntry> find(const std::string& path) const;
  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  std::vector<CatalogEntry> entries_;
  std::uint64_t total_bytes_ = 0;
};

class Catalog {
 public:
  GenerationCatalog& create(std::uint32_t generation);
  const GenerationCatalog& get(std::uint32_t generation) const;
  bool contains(std::uint32_t generation) const {
    return generations_.contains(generation);
  }

 private:
  std::map<std::uint32_t, GenerationCatalog> generations_;
};

}  // namespace defrag
