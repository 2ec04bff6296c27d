// Append-only container store: the simulated disk's data log.
//
// Writers stream chunks into the open container; when it fills it is sealed
// and flushed (sequential write, charged to the caller's DiskSim). Readers
// load whole containers or just their metadata sections, each costing one
// seek plus the transfer.
//
// Thread safety: the store's shared state (the container table and the
// serial open container) is guarded by an internal Mutex, so the serial
// API may be called from any single thread and the *concurrent* append
// path below is safe from many.
//
// Concurrent appends — StreamAppender: each ingest stream opens its own
// appender via open_stream(). An appender owns a private open container
// and appends to it without touching the store lock; only rolling to a
// fresh container (and close()) takes the Mutex to register the new
// container in the shared table. This preserves the paper's sequential-
// placement invariant *per stream*: one stream's chunks land back-to-back
// in that stream's containers, exactly as a serial ingest would place
// them, so SPL/rewrite decisions computed over a stream's containers are
// unchanged. Container IDs interleave across streams (allocation order),
// which is irrelevant to locality — locality is within-container.
//
// Mixing rules (checked): once open_stream() has been called, the serial
// append()/flush()/open_container() path is disabled (they operate on the
// table's tail, which appenders invalidate). Accounting that reads
// container payloads (total_*_bytes) requires quiescence — close every
// appender first; this is DCHECKed. Readers may load/peek sealed
// containers concurrently with other streams' appends only if the
// container's seal happened-before the read (join the writer, or observe
// its close()) — or by going through wait_sealed()/load_sealed(), which
// block until the seal is *published* under the store mutex and are
// therefore safe from any thread at any time (the concurrent-restore path
// of the service daemon).
//
// Parked appenders: an appender whose owner goes idle mid-stream (a service
// session waiting for its client's next frame) parks its open container.
// wait_sealed() seals a parked container itself instead of waiting on the
// owner, so a stalled writer never blocks a reader; the owner finds the
// seal on resume() and rolls to a fresh container at its next append.
// Placement therefore changes only when a reader actually waits.
//
// The ObsHandles counters are process-wide relaxed atomics (see
// obs/metrics.h) and safe from any thread.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/fingerprint.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "storage/container.h"
#include "storage/disk_model.h"

namespace defrag {

class ContainerStore {
 public:
  /// `compress_on_seal` enables DDFS-style local LZSS compression of each
  /// container when it seals; reads then transfer the compressed size.
  explicit ContainerStore(std::uint64_t container_capacity = 4ull << 20,
                          bool compress_on_seal = false);

  /// Moves are quiescence-only (no concurrent access to either store, no
  /// open appenders — DCHECKed); the compactor uses them to swap in a
  /// rewritten store. The mutex itself is not moved.
  ContainerStore(ContainerStore&& other) noexcept
      DEFRAG_NO_THREAD_SAFETY_ANALYSIS;
  ContainerStore& operator=(ContainerStore&& other) noexcept
      DEFRAG_NO_THREAD_SAFETY_ANALYSIS;
  ContainerStore(const ContainerStore&) = delete;
  ContainerStore& operator=(const ContainerStore&) = delete;

  /// One stream's private append handle (see file comment). Movable,
  /// non-copyable; the destructor seals any open container.
  class StreamAppender {
   public:
    StreamAppender(StreamAppender&& other) noexcept;
    StreamAppender& operator=(StreamAppender&&) = delete;
    StreamAppender(const StreamAppender&) = delete;
    StreamAppender& operator=(const StreamAppender&) = delete;
    ~StreamAppender() noexcept;

    /// Append a chunk to this stream's open container, rolling to a fresh
    /// one as needed. Charges the sequential write to `sim`. Not while
    /// parked (checked).
    ChunkLocation append(const Fingerprint& fp, ByteView data,
                         SegmentId segment, DiskSim& sim);

    /// Seal the open container and release the appender slot. Idempotent.
    /// After close() the stream's containers are safely readable by threads
    /// that synchronize with the closer. Carries the "store.stream_seal"
    /// failpoint (before any mutation), so explicit closes are injectable;
    /// the destructor seals through the noexcept finish() path instead.
    void close();

    /// Hand the open container to the store while the owner is idle: from
    /// here until resume(), wait_sealed() may seal it on the owner's
    /// behalf. The owner must not use the appender until resume().
    void park();

    /// End a park(). If a reader sealed the open container meanwhile, the
    /// next append() starts a fresh one. No-op when not parked.
    void resume();

   private:
    friend class ContainerStore;
    explicit StreamAppender(ContainerStore* store) : store_(store) {}

    /// Seal + release without fault injection (dtor-safe cleanup half).
    void finish() noexcept;

    ContainerStore* store_ = nullptr;
    Container* open_ = nullptr;  // exclusively owned until sealed
    bool parked_ = false;
  };

  /// Open a concurrent append handle. Disables the serial append path for
  /// the store's remaining lifetime (checked).
  StreamAppender open_stream();

  /// Append a chunk to the open container, sealing/rolling as needed.
  /// Charges the sequential data write to `sim`. Returns the chunk location.
  /// Serial path only — incompatible with open_stream() (checked).
  ChunkLocation append(const Fingerprint& fp, ByteView data, SegmentId segment,
                       DiskSim& sim);

  /// Seal the open container (end of a backup stream). Charges nothing: the
  /// data was already charged on append. Serial path only.
  void flush();

  /// Load a container for data access (restore path): one seek + full
  /// container transfer.
  const Container& load(ContainerId id, DiskSim& sim) const;

  /// Whether `id` exists and its seal has been *published* to the store
  /// (all seal sites publish under mu_, so a true return from any thread
  /// happens-after the sealing writes — the payload is safely readable).
  bool sealed_visible(ContainerId id) const;

  /// Block until container `id` exists and its seal is published. The
  /// concurrent-restore barrier: a service session restoring a recipe that
  /// references another stream's container waits here until that stream
  /// rolls, parks or closes its appender, then reads race-free. A parked
  /// container is sealed here, by the caller; otherwise the wait is bounded
  /// by the writer's work between two parks (one ingest call).
  void wait_sealed(ContainerId id) const;

  /// wait_sealed() + load(): the safe read path under concurrent appends.
  const Container& load_sealed(ContainerId id, DiskSim& sim) const;

  /// Load only the metadata section (DDFS locality-preserved caching):
  /// one seek + metadata transfer.
  const std::vector<ContainerEntry>& load_metadata(ContainerId id,
                                                   DiskSim& sim) const;

  /// Direct in-memory access without I/O charging (tests, accounting).
  const Container& peek(ContainerId id) const;

  /// Container currently open for serial appends, or kInvalidContainer.
  ContainerId open_container() const;

  std::size_t container_count() const;
  std::uint64_t container_capacity() const { return capacity_; }

  /// Total (raw) data bytes stored across all containers. Requires
  /// quiescence: no open StreamAppender (DCHECKed).
  std::uint64_t total_data_bytes() const;

  /// Total physical bytes on disk (<= total_data_bytes when local
  /// compression is on). Requires quiescence like total_data_bytes().
  std::uint64_t total_stored_bytes() const;

  bool compress_on_seal() const { return compress_on_seal_; }

 private:
  /// Serial-path open container, creating one as needed.
  Container& writable() DEFRAG_REQUIRES(mu_);

  /// Register and return a fresh container for an appender.
  Container* allocate_container() DEFRAG_EXCLUDES(mu_);

  /// Appender bookkeeping around close().
  void appender_closed() DEFRAG_EXCLUDES(mu_);

  /// Record that `id` sealed while mu_ was held (serial path) and wake
  /// wait_sealed() waiters.
  void publish_seal_locked(ContainerId id) const DEFRAG_REQUIRES(mu_);

  /// Publish a seal performed off-lock (StreamAppender roll/close): takes
  /// mu_, which is what gives readers the happens-before edge with the
  /// sealing writes.
  void publish_seal(ContainerId id) DEFRAG_EXCLUDES(mu_);

  const Container& container_at(ContainerId id) const DEFRAG_EXCLUDES(mu_);

  std::uint64_t capacity_;
  bool compress_on_seal_;

  // Outermost data-plane lock: nothing else is acquired while mu_ is held
  // (obs counters are lock-free handles resolved at construction).
  mutable Mutex mu_{lock_order::kContainerStore};
  std::vector<std::unique_ptr<Container>> containers_ DEFRAG_GUARDED_BY(mu_);
  // Store-side seal publication, parallel to containers_. StreamAppenders
  // seal their private container off-lock; readers must never touch a
  // container's own state concurrently, so seals become *visible* only via
  // this vector, written under mu_ (serial-path seal sites already hold it;
  // appenders publish through publish_seal()). kParked marks an idle
  // appender's container that wait_sealed() may seal — hence mutable: a
  // const reader's wait can complete the owner's seal.
  enum class SealState : std::uint8_t { kOpen, kParked, kPublished };
  mutable std::vector<SealState> seal_state_ DEFRAG_GUARDED_BY(mu_);
  mutable CondVar seal_cv_;
  bool stream_mode_ DEFRAG_GUARDED_BY(mu_) = false;
  std::size_t active_appenders_ DEFRAG_GUARDED_BY(mu_) = 0;

  // Hot-path handles into the process-wide registry ("storage.container.*"),
  // resolved once at construction; pointers so stores stay assignable.
  // Shared by every store in the process.
  struct ObsHandles {
    obs::Counter* appends;
    obs::Counter* bytes_appended;
    obs::Counter* seals;
    obs::Counter* loads;
    obs::Counter* bytes_loaded;
    obs::Counter* metadata_loads;
  };
  ObsHandles obs_;
};

}  // namespace defrag
