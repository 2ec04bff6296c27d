// svcbench: the service benchmark's shared vocabulary.
//
// A run is a sequence of *rounds*. Each round starts from an empty dedup
// plane, builds its backup streams from (seed, round) through src/workload,
// and plays one workload's closed-loop schedule: every client issues its
// next request only after the previous reply. The schedule is written once
// (schedule.cpp) against the Target interface below and played twice:
//
//  - service_pass.cpp drives an in-process defrag-serve Server over its
//    AF_UNIX socket and times every request as the client sees it;
//  - replay.cpp (traced runs only) feeds the same streams through each
//    layer's public functions and times the layers.
//
// README.md lists the workloads, metrics and the layer -> end-to-end map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"

namespace svcbench {

enum class Workload { kFirstWrite, kAgedSeries, kMixedTenants };

const char* workload_name(Workload w);
std::optional<Workload> parse_workload(std::string_view name);

/// Clients (connections, one tenant each) a round of `w` runs.
std::size_t client_count(Workload w);

/// Tenant of client `client` in round `round` of a pass named `pass`. The
/// daemon's per-tenant counters are process-wide, so every pass of a run
/// and every round of a pass uses its own tenants.
std::string tenant_name(std::string_view pass, std::uint64_t round,
                        std::size_t client);

/// One client's side of a round. Implementations time themselves; the
/// schedule only issues requests and checks restores.
class Target {
 public:
  virtual ~Target() = default;
  /// Back up one stream; returns the tenant-scoped backup id.
  virtual std::uint32_t backup(defrag::ByteView stream) = 0;
  /// Restore backup `id` into `out` (replaced); `expected_bytes` sizes it.
  virtual void restore(std::uint32_t id, std::uint64_t expected_bytes,
                       defrag::Bytes& out) = 0;
};

/// Request accounting of one or more rounds.
struct Tally {
  std::uint64_t attempted = 0;
  /// Failed or refused requests, restores that were not bit-identical, and
  /// scheduled requests a failure kept from being sent.
  std::uint64_t failed = 0;

  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    return *this;
  }
};

/// Play round `round` of `w`: targets[i] is client i (client_count(w) of
/// them). Clients run on their own threads when there are several. Streams
/// are materialized outside every Target call, and each restore is checked
/// against the SHA-256 of the stream it came from.
Tally run_round(Workload w, std::uint64_t seed, std::uint64_t round,
                const std::vector<Target*>& targets);

}  // namespace svcbench
