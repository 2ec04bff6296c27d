#include "storage/container_store.h"

#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/fingerprint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/container.h"
#include "storage/disk_model.h"

namespace defrag {

ContainerStore::ContainerStore(std::uint64_t container_capacity,
                               bool compress_on_seal)
    : capacity_(container_capacity),
      compress_on_seal_(compress_on_seal),
      obs_{&obs::MetricsRegistry::global().counter("storage.container.appends"),
           &obs::MetricsRegistry::global().counter(
               "storage.container.bytes_appended"),
           &obs::MetricsRegistry::global().counter("storage.container.seals"),
           &obs::MetricsRegistry::global().counter("storage.container.loads"),
           &obs::MetricsRegistry::global().counter(
               "storage.container.bytes_loaded"),
           &obs::MetricsRegistry::global().counter(
               "storage.container.metadata_loads")} {
  DEFRAG_CHECK(capacity_ >= 64 * 1024);
}

// Quiescence-only move: both stores are exclusively owned by the caller, so
// no lock is needed (or analyzable from an init list) — hence the
// DEFRAG_NO_THREAD_SAFETY_ANALYSIS on the declarations.
ContainerStore::ContainerStore(ContainerStore&& other) noexcept
    : capacity_(other.capacity_),
      compress_on_seal_(other.compress_on_seal_),
      containers_(std::move(other.containers_)),
      seal_state_(std::move(other.seal_state_)),
      stream_mode_(other.stream_mode_),
      active_appenders_(other.active_appenders_),
      obs_(other.obs_) {
  DEFRAG_DCHECK(active_appenders_ == 0);
  other.containers_.clear();
  other.seal_state_.clear();
  other.stream_mode_ = false;
}

ContainerStore& ContainerStore::operator=(ContainerStore&& other) noexcept {
  if (this == &other) return *this;
  DEFRAG_DCHECK(active_appenders_ == 0 && other.active_appenders_ == 0);
  capacity_ = other.capacity_;
  compress_on_seal_ = other.compress_on_seal_;
  containers_ = std::move(other.containers_);
  seal_state_ = std::move(other.seal_state_);
  stream_mode_ = other.stream_mode_;
  obs_ = other.obs_;
  other.containers_.clear();
  other.seal_state_.clear();
  other.stream_mode_ = false;
  return *this;
}

Container& ContainerStore::writable() {
  if (containers_.empty() || containers_.back()->sealed()) {
    containers_.push_back(std::make_unique<Container>(
        static_cast<ContainerId>(containers_.size()), capacity_));
    seal_state_.push_back(SealState::kOpen);
  }
  return *containers_.back();
}

ChunkLocation ContainerStore::append(const Fingerprint& fp, ByteView data,
                                     SegmentId segment, DiskSim& sim) {
  DEFRAG_CHECK_MSG(data.size() <= capacity_,
                   "chunk larger than container capacity");
  DEFRAG_FAILPOINT("store.serial_append");
  MutexLock lock(mu_);
  DEFRAG_CHECK_MSG(!stream_mode_,
                   "serial append() on a store with open_stream() appenders");
  Container* c = &writable();
  if (!c->fits(static_cast<std::uint32_t>(data.size()))) {
    c->seal(compress_on_seal_);
    publish_seal_locked(c->id());
    obs_.seals->add(1);
    c = &writable();
  }
  // Container writes are sequential at the log head and flushed write-behind;
  // the metadata section is written alongside the data, so count both.
  sim.write_behind(data.size() + kContainerEntryBytes);
  obs_.appends->add(1);
  obs_.bytes_appended->add(data.size());
  return c->append(fp, data, segment);
}

void ContainerStore::flush() {
  DEFRAG_FAILPOINT("store.serial_seal");
  MutexLock lock(mu_);
  DEFRAG_CHECK_MSG(!stream_mode_,
                   "serial flush() on a store with open_stream() appenders");
  if (containers_.empty() || containers_.back()->sealed()) return;
  containers_.back()->seal(compress_on_seal_);
  publish_seal_locked(containers_.back()->id());
  obs_.seals->add(1);
}

ContainerStore::StreamAppender ContainerStore::open_stream() {
  MutexLock lock(mu_);
  // Entering stream mode seals any serial-path open container first, so the
  // appenders never share a tail with the serial writer.
  if (!stream_mode_ && !containers_.empty() && !containers_.back()->sealed()) {
    containers_.back()->seal(compress_on_seal_);
    publish_seal_locked(containers_.back()->id());
    obs_.seals->add(1);
  }
  stream_mode_ = true;
  ++active_appenders_;
  return StreamAppender(this);
}

Container* ContainerStore::allocate_container() {
  MutexLock lock(mu_);
  containers_.push_back(std::make_unique<Container>(
      static_cast<ContainerId>(containers_.size()), capacity_));
  seal_state_.push_back(SealState::kOpen);
  return containers_.back().get();
}

void ContainerStore::publish_seal_locked(ContainerId id) const {
  DEFRAG_CHECK_MSG(id < seal_state_.size(), "publishing unknown container");
  seal_state_[id] = SealState::kPublished;
  // Tagged with the requesting session's rid (RequestScope), this instant
  // places each container seal on the request's trace track — the deepest
  // point the service's request context reaches. Lock order fine: trace(40)
  // above container_store(10).
  obs::TraceRecorder::global().record_instant("store.seal", "storage");
  seal_cv_.notify_all();
}

void ContainerStore::publish_seal(ContainerId id) {
  MutexLock lock(mu_);
  publish_seal_locked(id);
}

bool ContainerStore::sealed_visible(ContainerId id) const {
  MutexLock lock(mu_);
  return id < seal_state_.size() && seal_state_[id] == SealState::kPublished;
}

void ContainerStore::wait_sealed(ContainerId id) const {
  MutexLock lock(mu_);
  while (id >= seal_state_.size() || seal_state_[id] != SealState::kPublished) {
    if (id < seal_state_.size() && seal_state_[id] == SealState::kParked) {
      // The owner is idle and handed the container over at park(): seal it
      // here rather than wait on the owner's pace. It rolls on resume().
      containers_[id]->seal(compress_on_seal_);
      publish_seal_locked(id);
      obs_.seals->add(1);
      return;
    }
    seal_cv_.wait(mu_);
  }
}

const Container& ContainerStore::load_sealed(ContainerId id,
                                             DiskSim& sim) const {
  wait_sealed(id);
  return load(id, sim);
}

void ContainerStore::appender_closed() {
  MutexLock lock(mu_);
  DEFRAG_CHECK(active_appenders_ >= 1);
  --active_appenders_;
}

ContainerStore::StreamAppender::StreamAppender(StreamAppender&& other) noexcept
    : store_(std::exchange(other.store_, nullptr)),
      open_(std::exchange(other.open_, nullptr)),
      parked_(std::exchange(other.parked_, false)) {}

ContainerStore::StreamAppender::~StreamAppender() noexcept { finish(); }

ChunkLocation ContainerStore::StreamAppender::append(const Fingerprint& fp,
                                                     ByteView data,
                                                     SegmentId segment,
                                                     DiskSim& sim) {
  DEFRAG_CHECK_MSG(store_ != nullptr, "append on a closed StreamAppender");
  DEFRAG_CHECK_MSG(!parked_, "append on a parked StreamAppender");
  DEFRAG_CHECK_MSG(data.size() <= store_->capacity_,
                   "chunk larger than container capacity");
  DEFRAG_FAILPOINT("store.stream_append");
  // The open container is exclusively ours until sealed, so appends run
  // lock-free; only rolling to a fresh container touches the store.
  if (open_ != nullptr && !open_->fits(static_cast<std::uint32_t>(data.size()))) {
    open_->seal(store_->compress_on_seal_);
    store_->publish_seal(open_->id());
    store_->obs_.seals->add(1);
    open_ = nullptr;
  }
  if (open_ == nullptr) open_ = store_->allocate_container();
  sim.write_behind(data.size() + kContainerEntryBytes);
  store_->obs_.appends->add(1);
  store_->obs_.bytes_appended->add(data.size());
  return open_->append(fp, data, segment);
}

void ContainerStore::StreamAppender::close() {
  // The failpoint fires only on the explicit close() path — before any
  // mutation, so an injected fault leaves the appender open and retryable.
  // The destructor seals via finish() directly (noexcept cleanup must not
  // inject throws).
  if (store_ == nullptr) return;
  DEFRAG_FAILPOINT("store.stream_seal");
  finish();
}

void ContainerStore::StreamAppender::park() {
  if (store_ == nullptr || parked_) return;
  parked_ = true;
  if (open_ == nullptr) return;
  MutexLock lock(store_->mu_);
  store_->seal_state_[open_->id()] = SealState::kParked;
  // A reader may already be blocked on this container; let it seal it.
  store_->seal_cv_.notify_all();
}

void ContainerStore::StreamAppender::resume() {
  if (!parked_) return;
  parked_ = false;
  if (open_ == nullptr) return;
  MutexLock lock(store_->mu_);
  SealState& state = store_->seal_state_[open_->id()];
  if (state == SealState::kPublished) {
    open_ = nullptr;  // a reader sealed it; append() starts a fresh one
  } else {
    state = SealState::kOpen;
  }
}

void ContainerStore::StreamAppender::finish() noexcept {
  if (store_ == nullptr) return;
  resume();
  if (open_ != nullptr) {
    open_->seal(store_->compress_on_seal_);
    store_->publish_seal(open_->id());
    store_->obs_.seals->add(1);
    open_ = nullptr;
  }
  store_->appender_closed();
  store_ = nullptr;
}

const Container& ContainerStore::container_at(ContainerId id) const {
  MutexLock lock(mu_);
  DEFRAG_CHECK_MSG(id < containers_.size(), "unknown container id");
  // Containers are heap-allocated and never removed, so the reference stays
  // valid after the table lock drops.
  return *containers_[id];
}

const Container& ContainerStore::load(ContainerId id, DiskSim& sim) const {
  DEFRAG_FAILPOINT("store.load");
  const Container& c = container_at(id);
  sim.seek();
  sim.read(c.stored_bytes() + c.metadata_bytes());
  obs_.loads->add(1);
  obs_.bytes_loaded->add(c.stored_bytes() + c.metadata_bytes());
  return c;
}

const std::vector<ContainerEntry>& ContainerStore::load_metadata(
    ContainerId id, DiskSim& sim) const {
  const Container& c = container_at(id);
  sim.seek();
  sim.read(c.metadata_bytes());
  obs_.metadata_loads->add(1);
  return c.entries();
}

const Container& ContainerStore::peek(ContainerId id) const {
  return container_at(id);
}

ContainerId ContainerStore::open_container() const {
  MutexLock lock(mu_);
  if (stream_mode_ || containers_.empty() || containers_.back()->sealed()) {
    return kInvalidContainer;
  }
  return containers_.back()->id();
}

std::size_t ContainerStore::container_count() const {
  MutexLock lock(mu_);
  return containers_.size();
}

std::uint64_t ContainerStore::total_data_bytes() const {
  MutexLock lock(mu_);
  DEFRAG_DCHECK(active_appenders_ == 0);
  std::uint64_t total = 0;
  for (const auto& c : containers_) total += c->data_bytes();
  return total;
}

std::uint64_t ContainerStore::total_stored_bytes() const {
  MutexLock lock(mu_);
  DEFRAG_DCHECK(active_appenders_ == 0);
  std::uint64_t total = 0;
  for (const auto& c : containers_) total += c->stored_bytes();
  return total;
}

}  // namespace defrag
