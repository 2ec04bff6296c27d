#include "service/scheduler.h"

#include <sys/socket.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/sync.h"
#include "obs/log.h"

namespace defrag::service {

SessionScheduler::~SessionScheduler() noexcept { drain(); }

std::string SessionScheduler::reason(Admission a) {
  switch (a) {
    case Admission::kAdmitted:
      return "admitted";
    case Admission::kDraining:
      return "server is draining for shutdown";
    case Admission::kServerFull:
      return "server at max concurrent sessions";
    case Admission::kTenantQuota:
      return "tenant at max concurrent sessions";
  }
  return "rejected";
}

void SessionScheduler::finish_session(std::uint64_t id) {
  MutexLock lock(mu_);
  auto node = conns_.extract(id);
  DEFRAG_CHECK_MSG(!node.empty(), "session finished twice");
  // Moving the handle of the thread we are running ON is fine — it is
  // just a handle; a reaper joins it after this function returns.
  finished_.push_back(std::move(node.mapped().thread));
  idle_cv_.notify_all();
}

bool SessionScheduler::launch(int fd, std::function<void(int)> body) {
  MutexLock lock(mu_);
  if (draining_) return false;
  const std::uint64_t id = next_id_++;
  Conn& conn = conns_[id];
  conn.fd = fd;
  // The body runs as soon as the thread spawns, but finish_session() needs
  // mu_ — which this call still holds — so the handle is always stored in
  // conns_ before the body can extract it.
  // throw-graph: boundary=Session::run
  conn.thread = std::thread([this, id, fd, fn = std::move(body)] {
    fn(fd);
    finish_session(id);
  });
  return true;
}

SessionScheduler::Admission SessionScheduler::admit(const std::string& tenant) {
  MutexLock lock(mu_);
  if (draining_) return Admission::kDraining;
  if (admitted_ >= limits_.max_sessions) return Admission::kServerFull;
  std::size_t& tenant_count = admitted_per_tenant_[tenant];
  if (tenant_count >= limits_.max_sessions_per_tenant) {
    if (tenant_count == 0) admitted_per_tenant_.erase(tenant);
    return Admission::kTenantQuota;
  }
  ++tenant_count;
  ++admitted_;
  return Admission::kAdmitted;
}

void SessionScheduler::release(const std::string& tenant) {
  MutexLock lock(mu_);
  const auto it = admitted_per_tenant_.find(tenant);
  DEFRAG_CHECK_MSG(it != admitted_per_tenant_.end() && it->second > 0,
                   "release() without a matching admit()");
  if (--it->second == 0) admitted_per_tenant_.erase(it);
  DEFRAG_CHECK_MSG(admitted_ > 0, "admitted-session count underflow");
  --admitted_;
}

bool SessionScheduler::enter_backup(int fd) {
  MutexLock lock(mu_);
  if (draining_) return false;
  in_backup_.insert(fd);
  return true;
}

bool SessionScheduler::leave_backup(int fd) {
  MutexLock lock(mu_);
  in_backup_.erase(fd);
  return draining_;
}

void SessionScheduler::drain() {
  std::vector<std::thread> to_join;
  {
    MutexLock lock(mu_);
    if (!draining_) {
      DEFRAG_LOG_INFO("scheduler.drain",
                      {"live_sessions", conns_.size()},
                      {"admitted", admitted_});
    }
    draining_ = true;
    // SHUT_RD, not RDWR: a session mid-operation finishes it and writes
    // its response; only its *next* blocking read sees EOF. A session
    // inside a backup still has frames to read; it stops by itself once it
    // has answered BACKUP_DONE (leave_backup reports the drain).
    for (auto& [id, conn] : conns_) {
      if (!in_backup_.contains(conn.fd)) ::shutdown(conn.fd, SHUT_RD);
    }
    while (!conns_.empty()) idle_cv_.wait(mu_);
    to_join.swap(finished_);
    drained_ = true;
  }
  for (std::thread& t : to_join) t.join();
  MutexLock lock(mu_);
  DEFRAG_CHECK_MSG(admitted_ == 0, "drained with admitted sessions");
}

void SessionScheduler::reap_finished() {
  std::vector<std::thread> to_join;
  {
    MutexLock lock(mu_);
    to_join.swap(finished_);
  }
  for (std::thread& t : to_join) t.join();
}

std::size_t SessionScheduler::active_sessions() const {
  MutexLock lock(mu_);
  return admitted_;
}

std::size_t SessionScheduler::active_for(const std::string& tenant) const {
  MutexLock lock(mu_);
  const auto it = admitted_per_tenant_.find(tenant);
  return it == admitted_per_tenant_.end() ? 0 : it->second;
}

bool SessionScheduler::draining() const {
  MutexLock lock(mu_);
  return draining_;
}

std::map<std::string, std::size_t> SessionScheduler::active_by_tenant() const {
  MutexLock lock(mu_);
  return admitted_per_tenant_;
}

}  // namespace defrag::service
