// The end-to-end pass: rounds of a workload played against an in-process
// defrag-serve, timed as its clients see them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace svcbench {

struct BackupSample {
  std::uint64_t round = 0;  // the round it belongs to
  double total_s = 0.0;   // BACKUP_BEGIN sent -> BACKUP_DONE received
  double send_s = 0.0;    // BEGIN, its OK, and every DATA frame written
  double commit_s = 0.0;  // BACKUP_END sent -> BACKUP_DONE received
  std::uint64_t logical_bytes = 0;  // bytes the client sent
  std::uint64_t unique_bytes = 0;   // from BACKUP_DONE
};

struct RestoreSample {
  std::uint64_t round = 0;  // the round it belongs to
  double total_s = 0.0;  // RESTORE sent -> RESTORE_DONE received
  double ttfb_s = 0.0;   // RESTORE sent -> first RESTORE_DATA received
  std::uint64_t bytes = 0;
  std::uint64_t container_loads = 0;
};

struct ServicePassOptions {
  /// Names the pass's tenants (see tenant_name()).
  std::string pass = "pass";
  /// Rounds first_round, first_round + 1, ... keep starting until `seconds`
  /// of wall time have passed (at least one round runs) ...
  std::uint64_t first_round = 0;
  double seconds = 0.0;
  /// ... or, when nonzero, exactly this many rounds run.
  std::uint64_t rounds = 0;
  /// Directory for the daemon socket (a relative path keeps it short).
  std::string socket_dir = ".";
  /// Daemon set-ups timed back to back before each round (see
  /// measure_setups()); 0 times none.
  std::size_t setups_per_round = 0;
};

struct ServicePassResult {
  std::uint64_t rounds = 0;
  double wall_s = 0.0;  // the whole pass, input generation included
  std::vector<BackupSample> backups;
  std::vector<RestoreSample> restores;
  Tally tally;
  /// The fastest set-up of each round's batch.
  std::vector<double> setup_minima;
  /// Every round's METRICS export agreed with what its clients saw.
  bool crosscheck_ok = true;
  /// `system.cpu.isa_level` from the last round's METRICS export (-1 when
  /// absent).
  double isa_level_gauge = -1.0;

  ServicePassResult& operator+=(const ServicePassResult& o);
};

ServicePassResult run_service_pass(Workload w, std::uint64_t seed,
                                   const ServicePassOptions& options);

/// Set-up time, `n` times back to back: a fresh Server from construction to
/// its first HELLO_OK, then drained and destroyed.
std::vector<double> measure_setups(const std::string& socket_dir,
                                   std::size_t n);

}  // namespace svcbench
