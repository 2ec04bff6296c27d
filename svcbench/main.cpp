// svcbench — end-to-end and per-layer benchmark of defrag-serve.
//
//   svcbench --workload first_write|aged_series|mixed_tenants --seed N
//            --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 plays rounds of the workload against an in-process daemon for
// about S seconds with tracing off and prints the end-to-end metrics.
// --trace 1 plays rounds for about S/2 seconds, each once untraced and once
// with the global TraceRecorder on, then replays them through the
// layers; it prints the per-layer metrics and writes a Chrome trace to
// DIR. Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status 0 means the run completed (correct may still be false);
// anything else is a usage or runtime error. README.md defines every
// metric.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/cpu.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "replay.h"
#include "service_pass.h"
#include "storage/disk_model.h"

namespace svcbench {
namespace {

/// Daemon set-ups timed back to back before each --trace 0 round. setup_s
/// is the fastest of them all: the batches spread over the run, and its
/// fastest set-up is the one no slow spell on the host happened to hit.
constexpr std::size_t kSetupsPerRound = 9;

/// Warm-up rounds stop once a round page-faults in less than this much new
/// memory (the heap has reached its working size), or after kMaxWarmUps.
constexpr long kSteadyFaultBytes = 1 << 20;
constexpr std::uint64_t kMaxWarmUps = 3;

struct Args {
  Workload workload = Workload::kFirstWrite;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        const std::optional<Workload> w = parse_workload(value);
        if (!w.has_value()) return std::nullopt;
        a.workload = *w;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        a.trace = value == "1";
      } else if (key == "--out-dir") {
        a.out_dir = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !(a.seconds > 0.0)) {
    return std::nullopt;
  }
  return a;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Linearly interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}


double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

long minor_faults() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

/// The rounds of a run whose slowest request took at most as long as the
/// median round's slowest: the faster half. `round_s[i]` is round i's
/// slowest request.
std::vector<bool> faster_half(const std::vector<double>& round_s) {
  const double median = quantile(round_s, 0.5);
  std::vector<bool> keep(round_s.size());
  for (std::size_t i = 0; i < round_s.size(); ++i) {
    keep[i] = round_s[i] <= median;
  }
  return keep;
}

/// The largest `total_s` per round of the samples in `v` (rounds 0..n-1).
template <typename Sample>
std::vector<double> slowest_per_round(const std::vector<Sample>& v,
                                      std::uint64_t n) {
  std::vector<double> out(n, 0.0);
  for (const Sample& s : v) {
    out.at(s.round) = std::max(out.at(s.round), s.total_s);
  }
  return out;
}

/// Metrics in print order; rendered as a table and as the result JSON.
class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    rows_.push_back(Row{std::move(name), value, std::move(unit)});
  }

  void print_table(std::ostream& os) const {
    for (const Row& r : rows_) {
      os << "  " << std::left << std::setw(34) << r.name << std::right
         << std::setw(16) << std::setprecision(6) << r.value << " " << r.unit
         << "\n";
    }
  }

  void print_json(std::ostream& os, bool correct, const Tally& t) const {
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "\"" << rows_[i].name
         << "\": {\"value\": " << shortest(rows_[i].value) << ", \"unit\": \""
         << rows_[i].unit << "\"}";
    }
    os << "}}\n";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };

  /// Every digit the double carries (shortest round-trip form).
  static std::string shortest(double v) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
  }

  std::vector<Row> rows_;
};

void print_env(const Args& a, const ServicePassResult& r) {
  const char* force = std::getenv("DEFRAG_FORCE_SCALAR");
  std::cout << "env: nproc=" << std::thread::hardware_concurrency()
            << " isa_level="
            << defrag::cpu::isa_level_name(defrag::cpu::active_isa_level())
            << " system.cpu.isa_level=" << r.isa_level_gauge
            << " DEFRAG_FORCE_SCALAR=" << (force != nullptr ? force : "unset")
            << "\n";
  std::cout << "run: workload=" << workload_name(a.workload)
            << " seed=" << a.seed << " seconds=" << a.seconds
            << " trace=" << (a.trace ? 1 : 0) << " rounds=" << r.rounds
            << " wall_s=" << r.wall_s
            << " backups=" << r.backups.size()
            << " restores=" << r.restores.size() << "\n";
}

/// Untimed rounds before any timed one, the same rounds the timed pass
/// starts with: the heap grows to its working size and the lazily
/// initialized kernels warm up on them, not on the first measured
/// requests. A round that still grows the heap page-faults in new memory,
/// which made a timed backup's send phase 2-3x slower. Their requests are
/// checked like any other.
ServicePassResult warm_up(const Args& a) {
  ServicePassResult res;
  const long steady_faults = kSteadyFaultBytes / ::sysconf(_SC_PAGESIZE);
  for (std::uint64_t round = 0; round < kMaxWarmUps; ++round) {
    ServicePassOptions opt;
    opt.pass = "warmup";
    opt.first_round = round;
    opt.rounds = 1;
    opt.socket_dir = a.out_dir;
    const long before = minor_faults();
    res += run_service_pass(a.workload, a.seed, opt);
    if (minor_faults() - before < steady_faults) break;
  }
  return res;
}

int run_untraced(const Args& a) {
  const ServicePassResult warm = warm_up(a);
  ServicePassOptions opt;
  opt.pass = "timed";
  opt.seconds = a.seconds;
  opt.socket_dir = a.out_dir;
  opt.setups_per_round = kSetupsPerRound;
  const ServicePassResult r = run_service_pass(a.workload, a.seed, opt);

  // Wall-clock metrics come from the faster half of the rounds, ranked by
  // their slowest backup for backups and by their slowest restore for
  // restores. A slow spell on the host (compute running 40-60% slower for
  // a fraction of a second to tens of seconds) raises the slowest request
  // of the rounds it hits, which then fall on the discarded half. A change
  // to the code moves every round, and a tail it adds recurs in every
  // round, so both still show. The rest use every round.
  const std::vector<bool> fast_backup =
      faster_half(slowest_per_round(r.backups, r.rounds));
  const std::vector<bool> fast_restore =
      faster_half(slowest_per_round(r.restores, r.rounds));
  std::vector<double> backup_s, restore_s, ttfb_s;
  double backup_total = 0, restore_total = 0, sim_total = 0;
  std::uint64_t logical = 0, unique = 0;
  std::uint64_t timed_logical = 0, timed_restored = 0, sim_restored = 0;
  for (const BackupSample& b : r.backups) {
    logical += b.logical_bytes;
    unique += b.unique_bytes;
    if (!fast_backup[b.round]) continue;
    backup_s.push_back(b.total_s);
    backup_total += b.total_s;
    timed_logical += b.logical_bytes;
  }
  const defrag::DiskModel disk;
  for (const RestoreSample& s : r.restores) {
    // Paper Eq. (1): every container load is one positioning operation.
    sim_total +=
        defrag::fragmented_read_seconds(disk, s.container_loads, s.bytes);
    sim_restored += s.bytes;
    if (!fast_restore[s.round]) continue;
    restore_s.push_back(s.total_s);
    ttfb_s.push_back(s.ttfb_s);
    restore_total += s.total_s;
    timed_restored += s.bytes;
  }
  const auto mb = [](std::uint64_t bytes) {
    return static_cast<double>(bytes) / 1e6;
  };

  Report report;
  report.add("setup_s",
             *std::min_element(r.setup_minima.begin(), r.setup_minima.end()),
             "s");
  report.add("backup_mb_s", ratio(mb(timed_logical), backup_total), "MB/s");
  report.add("backup_p50_ms", quantile(backup_s, 0.5) * 1e3, "ms");
  report.add("backup_p90_ms", quantile(backup_s, 0.9) * 1e3, "ms");
  report.add("restore_mb_s", ratio(mb(timed_restored), restore_total),
             "MB/s");
  report.add("restore_p50_ms", quantile(restore_s, 0.5) * 1e3, "ms");
  report.add("restore_ttfb_p50_ms", quantile(ttfb_s, 0.5) * 1e3, "ms");
  report.add("sim_restore_mb_s", ratio(mb(sim_restored), sim_total), "MB/s");
  report.add("stored_per_logical",
             ratio(static_cast<double>(unique), static_cast<double>(logical)),
             "ratio");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");

  print_env(a, r);
  if (backup_s.size() < 100) {
    std::cout << "note: backup_p90_ms rests on fewer than 10 samples above "
                 "it\n";
  }
  std::cout << "end-to-end ("
            << r.setup_minima.size() * kSetupsPerRound << " setups; "
            << backup_s.size() << " of " << r.backups.size() << " backups, "
            << restore_s.size() << " of " << r.restores.size()
            << " restores in the faster half of rounds):\n";
  report.print_table(std::cout);
  Tally tally = warm.tally;
  tally += r.tally;
  const bool crosscheck_ok = warm.crosscheck_ok && r.crosscheck_ok;
  std::cout << "  " << std::left << std::setw(34) << "failed_ops_frac"
            << std::right << std::setw(16)
            << ratio(static_cast<double>(tally.failed),
                     static_cast<double>(tally.attempted))
            << " ratio\n";
  std::cout << "crosscheck: " << (crosscheck_ok ? "ok" : "MISMATCH") << "\n";
  report.print_json(std::cout, tally.failed == 0 && crosscheck_ok, tally);
  return 0;
}

double request_seconds(const ServicePassResult& r) {
  double s = 0.0;
  for (const BackupSample& b : r.backups) s += b.total_s;
  for (const RestoreSample& x : r.restores) s += x.total_s;
  return s;
}

/// One row of a share table: a layer's busy time next to the service time
/// it is part of.
void print_share(const char* layer, double layer_s, double whole_s) {
  std::cout << "  " << std::left << std::setw(34) << layer << std::right
            << std::setw(12) << std::setprecision(4) << layer_s * 1e3
            << " ms " << std::setw(8) << std::setprecision(3)
            << 100.0 * ratio(layer_s, whole_s) << " %\n";
}

struct Share {
  const char* layer;
  double s;
};

/// Prints one share row per layer; returns the layer with the most time.
const char* print_shares(std::initializer_list<Share> layers, double whole_s) {
  const Share* top = layers.begin();
  for (const Share& l : layers) {
    print_share(l.layer, l.s, whole_s);
    if (l.s > top->s) top = &l;
  }
  return top->layer;
}

int run_traced(const Args& a) {
  const ServicePassResult warm = warm_up(a);
  // Each round plays untraced and traced, in alternating order, so drift
  // over the run and whatever one pass leaves behind for the next (freed
  // memory, warm caches) fall on both sides alike. The replay then plays
  // the same rounds again.
  defrag::obs::TraceRecorder& recorder = defrag::obs::TraceRecorder::global();
  recorder.clear();
  ServicePassResult plain;
  ServicePassResult traced;
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  for (std::uint64_t round = 0; round == 0 || elapsed() < a.seconds / 2;
       ++round) {
    ServicePassOptions opt;
    opt.first_round = round;
    opt.rounds = 1;
    opt.socket_dir = a.out_dir;
    const auto play = [&](bool trace) {
      opt.pass = trace ? "traced" : "plain";
      if (trace) recorder.enable();
      (trace ? traced : plain) += run_service_pass(a.workload, a.seed, opt);
      if (trace) recorder.disable();
    };
    play(round % 2 == 1);
    play(round % 2 == 0);
  }
  recorder.enable();
  const LayerTotals L = run_replay(a.workload, a.seed, plain.rounds);
  recorder.disable();
  const std::string trace_path = a.out_dir + "/svcbench-trace-" +
                                 workload_name(a.workload) + "-" +
                                 std::to_string(a.seed) + ".json";
  {
    std::ofstream os(trace_path);
    recorder.write_chrome_json(os);
    if (!os) throw std::runtime_error("cannot write " + trace_path);
  }

  std::vector<double> send_s, commit_s, assemble_s, transfer_s;
  double commit_total = 0, restore_total = 0, transfer_total = 0;
  for (const BackupSample& b : traced.backups) {
    send_s.push_back(b.send_s);
    commit_s.push_back(b.commit_s);
    commit_total += b.commit_s;
  }
  for (const RestoreSample& r : traced.restores) {
    assemble_s.push_back(r.ttfb_s);
    transfer_s.push_back(r.total_s - r.ttfb_s);
    restore_total += r.total_s;
    transfer_total += r.total_s - r.ttfb_s;
  }
  const double mb = static_cast<double>(L.stream_bytes) / 1e6;
  const double restored_mb = static_cast<double>(L.restored_bytes) / 1e6;
  const double chunk_path_s = L.chunk_s + L.fingerprint_s + L.index_s +
                              L.append_s;
  const auto per = [](double num, std::uint64_t den) {
    return ratio(num, static_cast<double>(den));
  };

  Report report;
  report.add("service.backup_send_ms", quantile(send_s, 0.5) * 1e3, "ms");
  report.add("service.backup_commit_ms", quantile(commit_s, 0.5) * 1e3, "ms");
  report.add("service.restore_assemble_ms", quantile(assemble_s, 0.5) * 1e3,
             "ms");
  report.add("service.restore_transfer_ms", quantile(transfer_s, 0.5) * 1e3,
             "ms");
  report.add("chunking.split_mb_s", ratio(mb, L.chunk_s), "MB/s");
  report.add("chunking.mean_chunk_bytes",
             per(static_cast<double>(L.stream_bytes), L.chunks), "bytes");
  report.add("fingerprint.sha_mb_s", ratio(mb, L.fingerprint_s), "MB/s");
  report.add("index.claim_us_per_chunk", per(L.index_s * 1e6, L.chunks), "us");
  report.add("index.hit_ratio", per(static_cast<double>(L.index_hits),
                                    L.chunks), "ratio");
  report.add("index.pending_ratio", per(static_cast<double>(L.index_pending),
                                        L.chunks), "ratio");
  report.add("index.page_faults_per_lookup",
             per(static_cast<double>(L.page_faults),
                 L.page_hits + L.page_faults), "ratio");
  report.add("storage.append_us_per_chunk", per(L.append_s * 1e6, L.appends),
             "us");
  report.add("storage.seals", per(static_cast<double>(L.seals), L.streams),
             "1/backup");
  report.add("storage.container_loads_per_mb",
             ratio(static_cast<double>(L.container_loads), restored_mb),
             "1/MB");
  report.add("storage.wait_sealed_ms", per(L.wait_sealed_s * 1e3, L.restores),
             "ms");
  report.add("restore.assemble_mb_s", ratio(restored_mb, L.restore_s), "MB/s");
  report.add("restore.cache_hit_rate", per(L.cache_hits, L.recipe_entries),
             "ratio");
  report.add("catalog.commit_us", per(L.catalog_s * 1e6, L.streams), "us");
  report.add("ingest.stream_ms", per(L.ingest_stream_s * 1e3, L.streams), "ms");
  report.add("ingest.unattributed_frac",
             1.0 - ratio(chunk_path_s, L.ingest_stream_s), "ratio");
  report.add("trace.overhead_frac",
             ratio(request_seconds(traced), request_seconds(plain)) - 1.0,
             "ratio");

  print_env(a, traced);
  std::cout << "trace: " << recorder.event_count() << " events -> "
            << trace_path << "\n";
  std::cout << "per-layer (" << traced.backups.size() << " backups, "
            << traced.restores.size() << " restores traced; replay of "
            << L.streams << " streams, " << L.restores << " restores):\n";
  report.print_table(std::cout);

  // Shares: replayed layer time against the traced service time of the
  // same requests.
  std::cout << "share of service.backup_commit (" << commit_total * 1e3
            << " ms over " << traced.backups.size() << " backups):\n";
  const char* backup_dominant = print_shares(
      {{"chunking (split_to)", L.chunk_s},
       {"fingerprint (FingerprintBatch)", L.fingerprint_s},
       {"index (claim + publish)", L.index_s},
       {"storage (append + seal)", L.append_s},
       {"catalog (commit)", L.catalog_s},
       {"ingest unattributed", L.ingest_stream_s - chunk_path_s}},
      commit_total);
  print_share("rest of commit (wire, session)",
              commit_total - L.ingest_stream_s - L.catalog_s, commit_total);
  std::cout << "share of restore (" << restore_total * 1e3 << " ms over "
            << traced.restores.size() << " restores; assembly phase "
            << (restore_total - transfer_total) * 1e3 << " ms):\n";
  const char* restore_dominant = print_shares(
      {{"storage (wait_sealed)", L.wait_sealed_s},
       {"restore (restore_with_strategy)", L.restore_s},
       {"service (RESTORE_DATA transfer)", transfer_total}},
      restore_total);
  std::cout << "dominant layer: backup commit -> " << backup_dominant
            << "; restore -> " << restore_dominant << "\n";

  Tally tally = warm.tally;
  tally += plain.tally;
  tally += traced.tally;
  tally += L.tally;
  const bool crosscheck_ok =
      warm.crosscheck_ok && plain.crosscheck_ok && traced.crosscheck_ok;
  const bool correct = tally.failed == 0 && crosscheck_ok;
  std::cout << "crosscheck: " << (crosscheck_ok ? "ok" : "MISMATCH") << "\n";
  report.print_json(std::cout, correct, tally);
  return 0;
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) {
  using namespace svcbench;
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args.has_value()) {
    std::cerr << "usage: svcbench --workload first_write|aged_series|"
                 "mixed_tenants --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n";
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  // Every allocation from one heap, and no trimming: buffers of a
  // generation's size are reused, as in a daemon that has been serving for a
  // while. Left to glibc, whether a buffer is a fresh mmap (and page-faults
  // afresh) depends on a threshold that moves with the order of frees and
  // on whether a generation exceeds its 32 MiB cap, so it differs from run
  // to run and from seed to seed. Per-thread arenas are unmapped when their
  // thread's daemon goes, so each round's new session threads faulted their
  // memory in again.
  ::mallopt(M_MMAP_MAX, 0);
  ::mallopt(M_ARENA_MAX, 1);
  ::mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  defrag::obs::Logger::global().set_level(defrag::obs::LogLevel::kWarn);
  try {
    return args->trace ? run_traced(*args) : run_untraced(*args);
  } catch (const std::exception& e) {
    std::cerr << "svcbench: " << e.what() << "\n";
    return 1;
  }
}
