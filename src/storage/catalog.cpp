#include "storage/catalog.h"

#include "common/check.h"

namespace defrag {

void GenerationCatalog::add(std::string path, std::uint64_t stream_offset,
                            std::uint64_t size) {
  DEFRAG_CHECK_MSG(entries_.empty() ||
                       stream_offset >= entries_.back().stream_offset +
                                            entries_.back().size,
                   "catalog entries must be added in stream order");
  entries_.push_back(CatalogEntry{std::move(path), stream_offset, size});
  total_bytes_ = stream_offset + size;
}

std::optional<CatalogEntry> GenerationCatalog::find(
    const std::string& path) const {
  for (const auto& e : entries_) {
    if (e.path == path) return e;
  }
  return std::nullopt;
}

GenerationCatalog& Catalog::create(std::uint32_t generation) {
  auto [it, inserted] = generations_.try_emplace(generation);
  DEFRAG_CHECK_MSG(inserted, "catalog for generation already exists");
  return it->second;
}

const GenerationCatalog& Catalog::get(std::uint32_t generation) const {
  auto it = generations_.find(generation);
  DEFRAG_CHECK_MSG(it != generations_.end(), "unknown catalog generation");
  return it->second;
}

}  // namespace defrag
