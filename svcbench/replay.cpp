#include "replay.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "chunking/chunker.h"
#include "common/bytes.h"
#include "common/fingerprint.h"
#include "common/sha_mb.h"
#include "core/parallel_ingest.h"
#include "dedup/restore_strategies.h"
#include "index/sharded_index.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "service/tenant.h"
#include "storage/container.h"
#include "storage/container_store.h"
#include "storage/disk_model.h"
#include "storage/recipe.h"

namespace svcbench {

using defrag::ByteView;
using defrag::Bytes;
using defrag::ChunkLocation;
using defrag::ChunkRef;
using defrag::ContainerStore;
using defrag::Fingerprint;
using defrag::ShardedPagedIndex;
using defrag::obs::TraceSpan;
using Clock = std::chrono::steady_clock;

namespace {

/// How long a kPending duplicate may wait for its claimant's publish before
/// the replay declares the claimant lost (claims publish within a chunk).
constexpr auto kPendingWaitLimit = std::chrono::seconds(60);

/// Replay client c's spans carry request id kReplayTrackBase + c: one
/// Chrome-trace track per client, apart from the service pass's tracks.
constexpr std::uint64_t kReplayTrackBase = 2000;

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// The layers one round's clients share, built like the daemon builds them
/// (ServerConfig's default ingest parameters). `ingestor` is a second,
/// independent plane that ingests the same streams through the production
/// ParallelIngestor, so its time can be compared with the layer sum.
struct ReplayPlane {
  explicit ReplayPlane(const defrag::ParallelIngestParams& p)
      : params(p),
        chunker(defrag::make_chunker(p.chunker_kind, p.chunker)),
        index(p.index_shards, p.index),
        store(p.container_bytes, p.compress_containers),
        ingestor(p) {}

  defrag::ParallelIngestParams params;
  std::unique_ptr<defrag::Chunker> chunker;
  ShardedPagedIndex index;
  ContainerStore store;
  defrag::service::TenantCatalog catalog;
  defrag::ParallelIngestor ingestor;
};

class ReplayClient final : public Target {
 public:
  ReplayClient(ReplayPlane& plane, std::string tenant, std::uint64_t track)
      : plane_(plane), tenant_(std::move(tenant)), track_(track) {}

  std::uint32_t backup(ByteView stream) override {
    const defrag::obs::RequestScope scope(track_);
    const TraceSpan span("replay.backup", "replay");
    ++t_.streams;
    t_.stream_bytes += stream.size();

    std::vector<ChunkRef> refs;
    {
      const TraceSpan s("replay.chunk", "replay");
      const Clock::time_point t0 = Clock::now();
      plane_.chunker->split_to(
          stream, [&refs](const ChunkRef& r) { refs.push_back(r); });
      t_.chunk_s += since(t0);
    }
    t_.chunks += refs.size();

    std::vector<Fingerprint> fps(refs.size());
    {
      const TraceSpan s("replay.fingerprint", "replay");
      const Clock::time_point t0 = Clock::now();
      defrag::simd::FingerprintBatch batch;
      for (std::size_t i = 0; i < refs.size(); ++i) {
        batch.add(stream.subspan(refs[i].offset, refs[i].size), &fps[i]);
      }
      batch.flush();
      t_.fingerprint_s += since(t0);
    }

    // Index and append alternate per chunk, so they share one span and are
    // split by per-call timing.
    std::vector<ChunkLocation> locs(refs.size());
    {
      const TraceSpan s("replay.dedup", "replay");
      defrag::DiskSim sim(plane_.params.disk);
      ContainerStore::StreamAppender appender = plane_.store.open_stream();
      std::vector<std::size_t> pending;
      for (std::size_t i = 0; i < refs.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        const ShardedPagedIndex::ClaimResult claim =
            plane_.index.lookup_or_claim(fps[i], sim);
        const Clock::time_point t1 = Clock::now();
        t_.index_s += std::chrono::duration<double>(t1 - t0).count();
        switch (claim.state) {
          case ShardedPagedIndex::ClaimState::kClaimed: {
            locs[i] = appender.append(
                fps[i], stream.subspan(refs[i].offset, refs[i].size),
                defrag::kInvalidSegment, sim);
            const Clock::time_point t2 = Clock::now();
            t_.append_s += std::chrono::duration<double>(t2 - t1).count();
            plane_.index.publish(
                fps[i], defrag::IndexValue{locs[i], defrag::kInvalidSegment},
                sim);
            t_.index_s += since(t2);
            ++t_.appends;
            break;
          }
          case ShardedPagedIndex::ClaimState::kPending:
            pending.push_back(i);
            ++t_.index_pending;
            break;
          case ShardedPagedIndex::ClaimState::kExisting:
            locs[i] = claim.value.location;
            ++t_.index_hits;
            break;
        }
      }
      const Clock::time_point t0 = Clock::now();
      for (const std::size_t i : pending) locs[i] = wait_published(fps[i]);
      t_.index_s += since(t0);
      const Clock::time_point t1 = Clock::now();
      appender.close();
      t_.append_s += since(t1);
    }

    defrag::Recipe recipe(tenant_);
    for (std::size_t i = 0; i < refs.size(); ++i) recipe.add(fps[i], locs[i]);
    std::uint32_t id = 0;
    {
      const TraceSpan s("replay.catalog", "replay");
      const Clock::time_point t0 = Clock::now();
      id = plane_.catalog.commit(tenant_, std::move(recipe));
      t_.catalog_s += since(t0);
    }
    {
      const TraceSpan s("replay.ingest_stream", "replay");
      defrag::Recipe same(tenant_);
      const Clock::time_point t0 = Clock::now();
      plane_.ingestor.ingest_stream(stream, &same);
      t_.ingest_stream_s += since(t0);
    }
    return id;
  }

  void restore(std::uint32_t id, std::uint64_t expected_bytes,
               Bytes& out) override {
    const defrag::obs::RequestScope scope(track_);
    const TraceSpan span("replay.restore", "replay");
    const std::shared_ptr<const defrag::Recipe> recipe =
        plane_.catalog.find(tenant_, id);
    if (recipe == nullptr) throw std::runtime_error("replay: unknown backup");
    {
      const TraceSpan s("replay.wait_sealed", "replay");
      const Clock::time_point t0 = Clock::now();
      std::set<defrag::ContainerId> referenced;
      for (const defrag::RecipeEntry& e : recipe->entries()) {
        referenced.insert(e.location.container);
      }
      for (const defrag::ContainerId c : referenced) {
        plane_.store.wait_sealed(c);
      }
      t_.wait_sealed_s += since(t0);
    }
    const TraceSpan s("replay.assemble", "replay");
    out.clear();
    out.reserve(expected_bytes);
    const Clock::time_point t0 = Clock::now();
    const defrag::RestoreResult rr = defrag::restore_with_strategy(
        plane_.store, *recipe, plane_.params.disk, defrag::RestoreOptions{},
        &out);
    t_.restore_s += since(t0);
    ++t_.restores;
    t_.restored_bytes += out.size();
    t_.container_loads += rr.container_loads;
    t_.cache_hits +=
        rr.cache_hit_rate * static_cast<double>(recipe->entries().size());
    t_.recipe_entries += recipe->entries().size();
  }

  const LayerTotals& totals() const { return t_; }

 private:
  /// A kPending duplicate's location, once its claimant (another client of
  /// this round) publishes it.
  ChunkLocation wait_published(const Fingerprint& fp) const {
    const Clock::time_point start = Clock::now();
    for (;;) {
      if (const auto hit = plane_.index.peek(fp)) return hit->location;
      if (Clock::now() - start > kPendingWaitLimit) {
        throw std::runtime_error("replay: pending claim never published");
      }
      std::this_thread::yield();
    }
  }

  ReplayPlane& plane_;
  std::string tenant_;
  std::uint64_t track_;
  LayerTotals t_;
};

}  // namespace

LayerTotals& LayerTotals::operator+=(const LayerTotals& o) {
  chunk_s += o.chunk_s;
  fingerprint_s += o.fingerprint_s;
  index_s += o.index_s;
  append_s += o.append_s;
  catalog_s += o.catalog_s;
  ingest_stream_s += o.ingest_stream_s;
  streams += o.streams;
  stream_bytes += o.stream_bytes;
  chunks += o.chunks;
  index_hits += o.index_hits;
  index_pending += o.index_pending;
  appends += o.appends;
  seals += o.seals;
  page_hits += o.page_hits;
  page_faults += o.page_faults;
  wait_sealed_s += o.wait_sealed_s;
  restore_s += o.restore_s;
  restores += o.restores;
  restored_bytes += o.restored_bytes;
  container_loads += o.container_loads;
  cache_hits += o.cache_hits;
  recipe_entries += o.recipe_entries;
  tally += o.tally;
  return *this;
}

LayerTotals run_replay(Workload w, std::uint64_t seed, std::uint64_t rounds) {
  LayerTotals total;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    ReplayPlane plane{defrag::ParallelIngestParams{}};
    std::vector<std::unique_ptr<ReplayClient>> clients;
    std::vector<Target*> targets;
    for (std::size_t c = 0; c < client_count(w); ++c) {
      clients.push_back(std::make_unique<ReplayClient>(
          plane, tenant_name("replay", round, c), kReplayTrackBase + c));
      targets.push_back(clients.back().get());
    }
    total.tally += run_round(w, seed, round, targets);
    for (const auto& c : clients) total += c->totals();
    total.seals += plane.store.container_count();
    total.page_hits += plane.index.page_cache_hits();
    total.page_faults += plane.index.page_cache_misses();
  }
  return total;
}

}  // namespace svcbench
