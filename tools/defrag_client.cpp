// defrag-client: command-line client for a running defrag-serve.
//
//   defrag-client backup       --socket PATH --tenant NAME
//                              [--generations N] [--files N] [--seed N]
//                              [--in FILE]
//   defrag-client restore      --socket PATH --tenant NAME --id N [--out F]
//   defrag-client list         --socket PATH --tenant NAME
//   defrag-client metrics      --socket PATH [--tenant NAME] [--out FILE]
//   defrag-client stats        --socket PATH
//   defrag-client health       --socket PATH
//   defrag-client shutdown     --socket PATH [--tenant NAME]
//   defrag-client smoke        --socket PATH [--tenants T] [--sessions S]
//                              [--generations G] [--files N] [--seed N]
//   defrag-client probe-reject --socket PATH --sessions N [--tenant NAME]
//
// `backup` streams N generations of the synthetic backup series (one
// BACKUP round trip each), or with --in the bytes of FILE as one backup,
// and prints the server's dedup stats. `restore --out F` writes each
// RESTORE_DATA frame to F as it arrives. `smoke` is
// the concurrency exerciser the service_smoke ctest runs: T tenants x S
// sessions, every session backing up G generations concurrently and then
// restoring each one, failing unless every restore is bit-identical.
// `probe-reject` opens sessions (held open) until the server rejects one,
// verifying admission control from the outside. `stats` and `health` query
// the daemon's live introspection endpoints over an unadmitted connection,
// so they answer even when the server is full or draining.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/sha256.h"
#include "common/units.h"
#include "service/cli_config.h"
#include "service/client.h"
#include "service/socket.h"
#include "service/wire.h"
#include "workload/backup_series.h"

namespace {

using namespace defrag;

int usage() {
  std::fprintf(
      stderr,
      "usage: defrag-client <backup|restore|list|metrics|stats|health|"
      "shutdown|smoke|probe-reject> --socket PATH [--tenant NAME] "
      "[options]\n");
  return 2;
}

void print_backup(std::uint32_t n, const service::BackupDoneResponse& r) {
  std::printf("backup %u: id=%u %s logical -> %s unique (%llu chunks)\n", n,
              r.backup_id, format_bytes(r.logical_bytes).c_str(),
              format_bytes(r.unique_bytes).c_str(),
              static_cast<unsigned long long>(r.chunk_count));
}

int cmd_backup(const cli::Args& args) {
  service::Client client(args.get("socket", "/tmp/defrag-serve.sock"),
                         args.get("tenant", "default"));
  const std::string in_path = args.get("in", "");
  if (!in_path.empty()) {
    std::ifstream in(in_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s for reading\n", in_path.c_str());
      return 2;
    }
    const Bytes data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    print_backup(1, client.backup(in_path, ByteView(data)));
    return 0;
  }
  const std::uint32_t generations = args.get_u32("generations", 3);
  workload::SingleUserSeries series(args.get_u64("seed", 42),
                                    cli::fs_from(args));
  for (std::uint32_t g = 1; g <= generations; ++g) {
    const workload::Backup b = series.next();
    print_backup(g, client.backup("gen-" + std::to_string(g),
                                  ByteView(b.stream)));
  }
  return 0;
}

int cmd_restore(const cli::Args& args) {
  service::Client client(args.get("socket", "/tmp/defrag-serve.sock"),
                         args.get("tenant", "default"));
  const std::uint32_t id = args.get_u32("id", 1);
  const std::string out_path = args.get("out", "");
  std::ofstream out;
  if (!out_path.empty()) {
    out.open(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 2;
    }
  }
  // Frames go to the file as they arrive; the client never holds more
  // than one.
  const service::RestoreDoneResponse done =
      client.restore(id, [&](ByteView frame) {
        if (out.is_open()) {
          out.write(reinterpret_cast<const char*>(frame.data()),
                    static_cast<std::streamsize>(frame.size()));
        }
      });
  if (out.is_open() && !out.flush()) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("restore %u: %s (%llu container loads)%s%s\n", id,
              format_bytes(done.logical_bytes).c_str(),
              static_cast<unsigned long long>(done.container_loads),
              out_path.empty() ? "" : " -> ", out_path.c_str());
  return 0;
}

int cmd_list(const cli::Args& args) {
  service::Client client(args.get("socket", "/tmp/defrag-serve.sock"),
                         args.get("tenant", "default"));
  const service::BackupListResponse r = client.list();
  for (const service::BackupInfo& b : r.backups) {
    std::printf("%4u  %-24s %s\n", b.id, b.label.c_str(),
                format_bytes(b.logical_bytes).c_str());
  }
  std::printf("%zu backups for tenant '%s'\n", r.backups.size(),
              client.tenant().c_str());
  return 0;
}

int cmd_metrics(const cli::Args& args) {
  service::Client client(args.get("socket", "/tmp/defrag-serve.sock"),
                         args.get("tenant", "metrics-reader"));
  const std::string json = client.metrics_json();
  const std::string out_path = args.get("out", "");
  if (out_path.empty()) {
    std::printf("%s\n", json.c_str());
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 2;
  }
  out << json;
  std::printf("metrics: wrote %zu bytes to %s\n", json.size(),
              out_path.c_str());
  return 0;
}

int cmd_stats(const cli::Args& args) {
  const service::StatsResponse s =
      service::fetch_stats(args.get("socket", "/tmp/defrag-serve.sock"));
  std::printf("uptime: %.1fs\n", static_cast<double>(s.uptime_us) / 1e6);
  std::printf("sessions: %u active / %u max (%llu accepted, %llu rejected, "
              "%llu served)\n",
              s.active_sessions, s.max_sessions,
              static_cast<unsigned long long>(s.sessions_accepted),
              static_cast<unsigned long long>(s.sessions_rejected),
              static_cast<unsigned long long>(s.sessions_served));
  std::printf("backups: %llu (%s ingested)   restores: %llu (%s restored)\n",
              static_cast<unsigned long long>(s.backups),
              format_bytes(s.bytes_ingested).c_str(),
              static_cast<unsigned long long>(s.restores),
              format_bytes(s.bytes_restored).c_str());
  for (const service::TenantStatsRow& t : s.tenants) {
    std::printf("tenant %-24s %u/%u sessions  %llu backups  %s\n",
                t.tenant.c_str(), t.active_sessions, t.session_quota,
                static_cast<unsigned long long>(t.backups),
                format_bytes(t.logical_bytes).c_str());
  }
  return 0;
}

int cmd_health(const cli::Args& args) {
  const service::HealthResponse h =
      service::fetch_health(args.get("socket", "/tmp/defrag-serve.sock"));
  std::printf("%s uptime=%.1fs active_sessions=%u protocol=v%u\n",
              h.serving ? "SERVING" : "DRAINING",
              static_cast<double>(h.uptime_us) / 1e6, h.active_sessions,
              h.protocol_version);
  return h.serving ? 0 : 1;
}

int cmd_shutdown(const cli::Args& args) {
  service::Client client(args.get("socket", "/tmp/defrag-serve.sock"),
                         args.get("tenant", "admin"));
  client.shutdown_server();
  std::printf("shutdown acknowledged\n");
  return 0;
}

/// One smoke session: back up `generations` of a deterministic series,
/// then restore each and compare digests. Returns failure text or "".
std::string run_smoke_session(const std::string& socket_path,
                              const std::string& tenant, std::uint64_t seed,
                              std::uint32_t generations,
                              const workload::FsParams& fs) {
  try {
    service::Client client(socket_path, tenant);
    workload::SingleUserSeries series(seed, fs);
    std::vector<std::uint32_t> ids;
    std::vector<Sha256::Digest> digests;
    for (std::uint32_t g = 1; g <= generations; ++g) {
      const workload::Backup b = series.next();
      digests.push_back(Sha256::hash(b.stream));
      const service::BackupDoneResponse r =
          client.backup(tenant + "-gen-" + std::to_string(g),
                        ByteView(b.stream));
      ids.push_back(r.backup_id);
    }
    for (std::uint32_t g = 0; g < generations; ++g) {
      const Bytes restored = client.restore(ids[g]);
      if (Sha256::hash(restored) != digests[g]) {
        return tenant + ": restore of backup " + std::to_string(ids[g]) +
               " is not bit-identical";
      }
    }
  } catch (const std::exception& e) {
    return tenant + ": " + e.what();
  }
  return "";
}

int cmd_smoke(const cli::Args& args) {
  const std::string socket_path = args.get("socket", "/tmp/defrag-serve.sock");
  const std::size_t tenants = args.get_size("tenants", 2);
  const std::size_t sessions = args.get_size("sessions", 4);
  const std::uint32_t generations = args.get_u32("generations", 2);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const workload::FsParams fs = cli::fs_from(args);

  // tenants x sessions concurrent clients; sessions of one tenant share a
  // seed base so their generations deduplicate against each other, which
  // exercises the cross-stream claim/publish path server-side.
  std::vector<std::string> failures(tenants * sessions);
  std::vector<std::thread> threads;
  threads.reserve(tenants * sessions);
  for (std::size_t t = 0; t < tenants; ++t) {
    for (std::size_t s = 0; s < sessions; ++s) {
      const std::size_t slot = t * sessions + s;
      threads.emplace_back([&, t, s, slot] {
        failures[slot] = run_smoke_session(
            socket_path, "tenant-" + std::to_string(t), seed + t * 1000 + s,
            generations, fs);
      });
    }
  }
  for (std::thread& th : threads) th.join();

  int failed = 0;
  for (const std::string& f : failures) {
    if (!f.empty()) {
      std::fprintf(stderr, "smoke FAIL: %s\n", f.c_str());
      ++failed;
    }
  }
  if (failed > 0) return 1;
  std::printf("smoke OK: %zu tenants x %zu sessions x %u generations, all "
              "restores bit-identical\n",
              tenants, sessions, generations);
  return 0;
}

int cmd_probe_reject(const cli::Args& args) {
  const std::string socket_path = args.get("socket", "/tmp/defrag-serve.sock");
  const std::string tenant = args.get("tenant", "probe");
  const std::size_t attempts = args.get_size("sessions", 10);

  // Held-open admitted sessions; the server must reject the overflow with
  // a clean REJECTED (not a hangup or a protocol error).
  std::vector<service::Client> held;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < attempts; ++i) {
    try {
      held.emplace_back(socket_path, tenant);
    } catch (const service::RejectedError& e) {
      ++rejected;
      std::printf("attempt %zu: REJECTED (%s)\n", i + 1, e.what());
    }
  }
  std::printf("probe-reject: %zu admitted, %zu rejected of %zu attempts\n",
              held.size(), rejected, attempts);
  if (held.empty() || rejected == 0) {
    std::fprintf(stderr, "probe-reject: expected both admissions and "
                         "rejections\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = cli::parse_args(argc, argv);
  if (!args) return usage();
  try {
    if (args->command == "backup") return cmd_backup(*args);
    if (args->command == "restore") return cmd_restore(*args);
    if (args->command == "list") return cmd_list(*args);
    if (args->command == "metrics") return cmd_metrics(*args);
    if (args->command == "stats") return cmd_stats(*args);
    if (args->command == "health") return cmd_health(*args);
    if (args->command == "shutdown") return cmd_shutdown(*args);
    if (args->command == "smoke") return cmd_smoke(*args);
    if (args->command == "probe-reject") return cmd_probe_reject(*args);
  } catch (const service::RejectedError& e) {
    std::fprintf(stderr, "rejected: %s\n", e.what());
    return 3;
  } catch (const service::RemoteError& e) {
    std::fprintf(stderr, "server error: %s\n", e.what());
    return 1;
  } catch (const service::SocketError& e) {
    std::fprintf(stderr, "socket error: %s\n", e.what());
    return 1;
  } catch (const service::WireError& e) {
    std::fprintf(stderr, "protocol error: %s\n", e.what());
    return 1;
  }
  return usage();
}
