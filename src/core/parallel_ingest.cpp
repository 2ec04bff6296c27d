#include "core/parallel_ingest.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/check.h"
#include "common/fingerprint.h"
#include "dedup/chunk_prep.h"
#include "index/paged_index.h"
#include "index/sharded_index.h"
#include "obs/trace.h"
#include "storage/container.h"
#include "storage/container_store.h"
#include "storage/disk_model.h"
#include "storage/recipe.h"

namespace defrag {

namespace {

/// Abandons a held claim on unwind so kPending waiters never spin on a
/// claim whose append threw; dismissed on the publish that normally
/// follows the append immediately.
class ClaimGuard {
 public:
  ClaimGuard(ShardedPagedIndex& index, const Fingerprint& fp)
      : index_(index), fp_(fp) {}
  ~ClaimGuard() noexcept {
    if (armed_) index_.abandon_claim(fp_);
  }
  ClaimGuard(const ClaimGuard&) = delete;
  ClaimGuard& operator=(const ClaimGuard&) = delete;
  void dismiss() { armed_ = false; }

 private:
  ShardedPagedIndex& index_;
  const Fingerprint& fp_;
  bool armed_ = true;
};

/// A duplicate whose location was unknown when its chunk was processed
/// (the claimant had not published yet). `entry` is its slot in the
/// stream-ordered recipe entry list (SIZE_MAX when no recipe is built).
struct PendingDup {
  Fingerprint fp;
  std::uint64_t offset = 0;
  std::uint32_t size = 0;
  std::size_t entry = SIZE_MAX;
};

/// How long a feed waits for another stream's in-flight claim before
/// declaring the process wedged. Claims publish microseconds after they
/// are observed pending; this bound only trips on a genuine liveness bug.
constexpr auto kPendingWaitLimit = std::chrono::seconds(120);

}  // namespace

ParallelIngestor::ParallelIngestor(const ParallelIngestParams& params)
    : params_(params),
      chunker_(make_chunker(params.chunker_kind, params.chunker)),
      index_(params.index_shards, params.index),
      store_(params.container_bytes, params.compress_containers) {}

ParallelIngestor::Stream::Stream(ParallelIngestor& ingestor, Recipe* recipe)
    : ingestor_(ingestor),
      recipe_(recipe),
      sim_(ingestor.params_.disk),
      appender_(ingestor.store_.open_stream()) {
  appender_.park();
}

void ParallelIngestor::Stream::feed(ByteView data) {
  const obs::TraceSpan span("parallel_ingest.feed", "ingest");
  DEFRAG_CHECK_MSG(!finished_, "feed() on a finished ingest stream");
  if (data.empty()) return;
  if (carried_ == 0 && data.size() > ingestor_.params_.chunker.max_size) {
    // Nothing carried: chunk the caller's bytes in place, keep the tail.
    charge(data.size());
    appender_.resume();
    const ByteView tail = data.subspan(ingest(data, /*final=*/false));
    appender_.park();
    std::memcpy(room(tail.size()), tail.data(), tail.size());
    carried_ = tail.size();
    return;
  }
  std::memcpy(room(data.size()), data.data(), data.size());
  consume(data.size());
}

std::uint8_t* ParallelIngestor::Stream::prepare(std::size_t n) {
  DEFRAG_CHECK_MSG(!finished_, "prepare() on a finished ingest stream");
  std::uint8_t* const at = room(n);
  prepared_ = n;
  return at;
}

void ParallelIngestor::Stream::commit(std::size_t n) {
  const obs::TraceSpan span("parallel_ingest.feed", "ingest");
  DEFRAG_CHECK_MSG(!finished_, "commit() on a finished ingest stream");
  DEFRAG_CHECK_MSG(n <= prepared_, "commit() past the prepared room");
  prepared_ = 0;
  consume(n);
}

void ParallelIngestor::Stream::charge(std::size_t n) {
  st_.logical_bytes += n;
  // Chunking + fingerprinting CPU, charged like the serial engines.
  sim_.compute(static_cast<double>(n) / 1e6 /
               ingestor_.params_.cpu_mb_per_s);
}

std::uint8_t* ParallelIngestor::Stream::room(std::size_t n) {
  if (carried_ + n > capacity_) {
    // The carry is at most max_size between calls, so this capacity also
    // fits every later piece of up to `n` bytes: a steady sender's buffer
    // is allocated once.
    const std::size_t cap = ingestor_.params_.chunker.max_size + n;
    auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
    if (carried_ > 0) std::memcpy(grown.get(), buf_.get(), carried_);
    buf_ = std::move(grown);
    capacity_ = cap;
  }
  return buf_.get() + carried_;
}

void ParallelIngestor::Stream::consume(std::size_t n) {
  if (n == 0) return;
  charge(n);
  carried_ += n;
  // Defer: once the buffer exceeds max_size its first chunk is certain to
  // complete, so each chunking pass consumes the whole previous carry and
  // every byte is chunked at most twice, however small the pieces.
  if (carried_ <= ingestor_.params_.chunker.max_size) return;
  appender_.resume();
  const std::uint64_t used =
      ingest(ByteView(buf_.get(), carried_), /*final=*/false);
  appender_.park();
  carried_ -= used;
  std::memmove(buf_.get(), buf_.get() + used, carried_);
}

StreamIngestStats ParallelIngestor::Stream::finish() {
  const obs::TraceSpan span("parallel_ingest.finish", "ingest");
  DEFRAG_CHECK_MSG(!finished_, "finish() called twice");
  appender_.resume();
  ingest(ByteView(buf_.get(), carried_), /*final=*/true);
  buf_.reset();
  carried_ = 0;
  appender_.close();
  finished_ = true;
  st_.io = sim_.stats();
  st_.sim_seconds = sim_.elapsed_seconds();
  return st_;
}

std::uint64_t ParallelIngestor::Stream::ingest(ByteView buf, bool final) {
  if (buf.empty()) return 0;
  ShardedPagedIndex& index = ingestor_.index_;
  const std::vector<StreamChunk> chunks = chunk_and_fingerprint(
      *ingestor_.chunker_, buf, /*hold_back_last=*/!final);
  st_.chunk_count += chunks.size();

  // Stream-ordered locations; pending duplicates get theirs at resolution.
  std::vector<RecipeEntry> entries;
  if (recipe_ != nullptr) entries.resize(chunks.size());
  std::vector<PendingDup> pending;

  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const StreamChunk& c = chunks[i];
    const ByteView data = buf.subspan(c.stream_offset, c.size);
    ChunkLocation loc;
    const ShardedPagedIndex::ClaimResult claim =
        index.lookup_or_claim(c.fp, sim_);
    switch (claim.state) {
      case ShardedPagedIndex::ClaimState::kClaimed: {
        ClaimGuard guard(index, c.fp);
        loc = appender_.append(c.fp, data, kInvalidSegment, sim_);
        index.publish(c.fp, IndexValue{loc, kInvalidSegment}, sim_);
        guard.dismiss();
        ++st_.unique_chunks;
        st_.unique_bytes += c.size;
        break;
      }
      case ShardedPagedIndex::ClaimState::kPending:
        // The claimant has not published yet; queue the fingerprint and
        // resolve (and charge) its published-location lookup below.
        ++st_.pending_dup_chunks;
        pending.push_back(PendingDup{c.fp, c.stream_offset, c.size,
                                     recipe_ != nullptr ? i : SIZE_MAX});
        ++st_.dup_chunks;
        st_.dup_bytes += c.size;
        break;
      case ShardedPagedIndex::ClaimState::kExisting:
        loc = claim.value.location;
        ++st_.dup_chunks;
        st_.dup_bytes += c.size;
        break;
    }
    if (recipe_ != nullptr) entries[i] = RecipeEntry{c.fp, loc};
  }

  // Resolve pending duplicates while `buf` still holds their bytes: wait
  // for each claimant's publish (it lands chunk-by-chunk, not at the
  // claimant's stream end) and pay the published-location lookup this
  // stream skipped inline. If the claimant abandoned (unwound before
  // publishing), contend for the re-issued claim and store the chunk from
  // this stream's own data.
  const auto wait_start = std::chrono::steady_clock::now();
  for (const PendingDup& p : pending) {
    std::optional<ChunkLocation> loc;
    while (!loc.has_value()) {
      if (const std::optional<IndexValue> hit = index.peek(p.fp)) {
        index.lookup(p.fp, sim_);  // the charged lookup this dup skipped
        ++charged_;
        loc = hit->location;
        break;
      }
      if (!index.claim_pending(p.fp)) {
        // Claim abandoned (or published in between; the claim call below
        // re-tests). lookup_or_claim charges like the lookup either way.
        const ShardedPagedIndex::ClaimResult retry =
            index.lookup_or_claim(p.fp, sim_);
        ++charged_;
        if (retry.state == ShardedPagedIndex::ClaimState::kExisting) {
          loc = retry.value.location;
          break;
        }
        if (retry.state == ShardedPagedIndex::ClaimState::kClaimed) {
          ClaimGuard guard(index, p.fp);
          const ByteView data = buf.subspan(p.offset, p.size);
          const ChunkLocation stored =
              appender_.append(p.fp, data, kInvalidSegment, sim_);
          index.publish(p.fp, IndexValue{stored, kInvalidSegment}, sim_);
          guard.dismiss();
          // This chunk is unique after all — the original claimant never
          // stored it.
          ++st_.unique_chunks;
          st_.unique_bytes += p.size;
          --st_.dup_chunks;
          st_.dup_bytes -= p.size;
          --st_.pending_dup_chunks;
          --charged_;  // that was an append, not a dup-location lookup
          loc = stored;
          break;
        }
        // kPending again: another waiter re-claimed; keep waiting for its
        // publish (undo the speculative charge — the loop pays on success).
        --charged_;
      }
      DEFRAG_CHECK_MSG(
          std::chrono::steady_clock::now() - wait_start < kPendingWaitLimit,
          "pending duplicate's claimant neither published nor abandoned");
      std::this_thread::yield();
    }
    if (recipe_ != nullptr && p.entry != SIZE_MAX) {
      entries[p.entry].location = *loc;
    }
  }
  DEFRAG_CHECK_MSG(charged_ == st_.pending_dup_chunks,
                   "charged published-location lookups != resolved "
                   "pending duplicates");

  if (recipe_ != nullptr) {
    for (const RecipeEntry& e : entries) {
      DEFRAG_CHECK_MSG(e.location.valid(),
                       "recipe entry without a resolved location");
      recipe_->add(e.fp, e.location);
    }
  }
  return chunks.empty() ? 0
                        : chunks.back().stream_offset + chunks.back().size;
}

StreamIngestStats ParallelIngestor::ingest_stream(ByteView stream,
                                                  Recipe* recipe) {
  const obs::TraceSpan span("parallel_ingest.stream", "ingest");
  Stream s(*this, recipe);
  s.feed(stream);
  return s.finish();
}

}  // namespace defrag
