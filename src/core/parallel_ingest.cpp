#include "core/parallel_ingest.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
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
      appender_(ingestor.store_.open_stream()),
      seam_(ingestor.chunker_->max_chunk_size()) {
  appender_.park();
}

ParallelIngestor::Stream::~Stream() noexcept {
  // Helpers may still read the queued buffers: wait for the jobs they
  // started, drop the rest. The appender then seals the containers.
  for (Slot* s : queued_) {
    for (const std::shared_ptr<PieceJob>& job : s->jobs) {
      if (job != nullptr) job->settle(/*run=*/false);
    }
  }
}

void ParallelIngestor::Stream::feed(ByteView data) {
  const obs::TraceSpan span("parallel_ingest.feed", "ingest");
  DEFRAG_CHECK_MSG(!finished_, "feed() on a finished ingest stream");
  if (data.empty()) return;
  if (st_.logical_bytes == 0) {
    // Nothing before it: chunk the caller's bytes in place, keep the tail.
    charge(data.size());
    const std::vector<StreamChunk> chunks =
        chunk_and_fingerprint(*ingestor_.chunker_, data,
                              /*hold_back_last=*/true);
    appender_.resume();
    place(data, chunks);
    appender_.park();
    const std::uint64_t kept =
        chunks.empty() ? 0 : chunks.back().stream_offset + chunks.back().size;
    open(0);
    tail_ = data.size() - kept;
    std::memcpy(open_->buf.get() + seam_ - tail_, data.data() + kept, tail_);
    committed_ = data.size();
    return;
  }
  std::memcpy(prepare(data.size()), data.data(), data.size());
  commit(data.size());
}

std::uint8_t* ParallelIngestor::Stream::prepare(std::size_t n) {
  DEFRAG_CHECK_MSG(!finished_, "prepare() on a finished ingest stream");
  finish_ready();
  open(n);
  prepared_ = n;
  return open_->buf.get() + seam_ + open_->size;
}

void ParallelIngestor::Stream::commit(std::size_t n) {
  const obs::TraceSpan span("parallel_ingest.feed", "ingest");
  DEFRAG_CHECK_MSG(!finished_, "commit() on a finished ingest stream");
  DEFRAG_CHECK_MSG(n <= prepared_, "commit() past the prepared room");
  prepared_ = 0;
  if (n == 0) return;
  charge(n);
  open_->size += n;
  if (open_->size >= kPieceBytes) enqueue(/*final=*/false);
  finish_ready();
}

void ParallelIngestor::Stream::flush() {
  DEFRAG_CHECK_MSG(!finished_, "flush() on a finished ingest stream");
  if (open_ != nullptr && open_->size > 0) enqueue(/*final=*/false);
  while (!queued_.empty()) finish_front();
}

StreamIngestStats ParallelIngestor::Stream::finish() {
  const obs::TraceSpan span("parallel_ingest.finish", "ingest");
  DEFRAG_CHECK_MSG(!finished_, "finish() called twice");
  for (;;) {
    if (queued_.empty()) {
      if (open_ == nullptr) break;
      enqueue(/*final=*/true);
    }
    const bool last = queued_.front()->final;
    finish_front();
    if (last) break;
  }
  free_.clear();
  slots_.clear();
  open_ = nullptr;
  appender_.resume();
  appender_.close();
  finished_ = true;
  st_.io = sim_.stats();
  st_.sim_seconds = sim_.elapsed_seconds();
  return st_;
}

void ParallelIngestor::Stream::charge(std::size_t n) {
  st_.logical_bytes += n;
  // Chunking + fingerprinting CPU, charged like the serial engines.
  sim_.compute(static_cast<double>(n) / 1e6 /
               ingestor_.params_.cpu_mb_per_s);
}

void ParallelIngestor::Stream::open(std::size_t n) {
  while (open_ == nullptr) {
    if (!free_.empty()) {
      open_ = free_.back();
      free_.pop_back();
      open_->size = 0;
    } else if (slots_.size() < hardware_threads()) {
      slots_.push_back(std::make_unique<Slot>());
      open_ = slots_.back().get();
    } else {
      finish_front();  // every buffer is in flight; may reopen its own
    }
  }
  Slot& s = *open_;
  const std::size_t need = seam_ + s.size + n;
  if (need > s.capacity) {
    // A piece is queued once it holds kPieceBytes, so this capacity fits
    // every later piece of up to `n` bytes: a steady sender's buffers are
    // allocated once.
    const std::size_t cap = std::max<std::size_t>(need, seam_ + kPieceBytes);
    auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
    if (s.capacity > 0) std::memcpy(grown.get(), s.buf.get(), seam_ + s.size);
    s.buf = std::move(grown);
    high_water_ += cap - s.capacity;
    s.capacity = cap;
  }
}

void ParallelIngestor::Stream::enqueue(bool final) {
  Slot& s = *open_;
  open_ = nullptr;
  const std::uint64_t end = seam_ + s.size;
  const ByteView buf(s.buf.get(), end);
  const std::uint64_t width = std::clamp<std::uint64_t>(
      s.size / kPieceBytes, 1, hardware_threads());
  const std::vector<std::uint64_t> starts =
      piece_starts(seam_, end, committed_, width, seam_);
  for (std::size_t k = 0; k < starts.size(); ++k) {
    s.jobs.push_back(std::make_shared<PieceJob>(
        *ingestor_.chunker_, buf, starts[k],
        k + 1 < starts.size() ? starts[k + 1] : end,
        final && k + 1 == starts.size()));
    PieceJob::post(s.jobs.back());
  }
  s.final = final;
  committed_ += s.size;
  queued_.push_back(&s);
}

void ParallelIngestor::Stream::finish_front() {
  Slot& s = *queued_.front();
  const std::uint64_t end = seam_ + s.size;
  const ByteView buf(s.buf.get(), end);
  // The jobs cover contiguous bytes: each one's held-back chunk already
  // lies in front of the next.
  std::uint64_t t = seam_ - tail_;
  appender_.resume();
  for (std::size_t k = 0; k < s.jobs.size(); ++k) {
    const std::shared_ptr<PieceJob> job = std::move(s.jobs[k]);
    const std::vector<StreamChunk> chunks =
        finish_piece(*ingestor_.chunker_, buf, t, *job,
                     s.final && k + 1 == s.jobs.size());
    place(buf, chunks);
    if (!chunks.empty()) t = chunks.back().stream_offset + chunks.back().size;
  }
  appender_.park();
  s.jobs.clear();
  tail_ = end - t;
  queued_.pop_front();
  // The held-back tail goes in front of the next piece; with none yet,
  // this buffer becomes the open one.
  Slot* const next = queued_.empty() ? open_ : queued_.front();
  if (next == nullptr && !s.final) {
    std::memmove(s.buf.get() + seam_ - tail_, s.buf.get() + t, tail_);
    s.size = 0;
    open_ = &s;
    return;
  }
  if (next != nullptr) {
    std::memcpy(next->buf.get() + seam_ - tail_, s.buf.get() + t, tail_);
  }
  free_.push_back(&s);
}

void ParallelIngestor::Stream::finish_ready() {
  const auto done = [](const std::shared_ptr<PieceJob>& job) {
    return job->done();
  };
  while (!queued_.empty() &&
         std::all_of(queued_.front()->jobs.begin(),
                     queued_.front()->jobs.end(), done)) {
    finish_front();
  }
}

void ParallelIngestor::Stream::place(ByteView buf,
                                     const std::vector<StreamChunk>& chunks) {
  if (chunks.empty()) return;
  ShardedPagedIndex& index = ingestor_.index_;
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
}

StreamIngestStats ParallelIngestor::ingest_stream(ByteView stream,
                                                  Recipe* recipe) {
  const obs::TraceSpan span("parallel_ingest.stream", "ingest");
  Stream s(*this, recipe);
  s.feed(stream);
  return s.finish();
}

}  // namespace defrag
