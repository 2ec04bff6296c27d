// The three workloads' closed-loop schedules (see README.md for why each
// exists) and the per-round input generation behind them.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/sha256.h"
#include "common/sha_mb.h"
#include "workload/backup_series.h"
#include "workload/fs_model.h"

namespace svcbench {

using defrag::ByteView;
using defrag::Bytes;
using defrag::Sha256;
using defrag::workload::FileSystemModel;
using defrag::workload::FsParams;
using defrag::workload::SingleUserSeries;

namespace {

// Every file system has the shape `defrag-client backup` sends by default
// (48 files of ~256 KiB mean size, log-uniform over [mean/8, 8 * mean], in
// 32 KiB extents), with multi-extent files so the mutation model ages a
// series as it does on the client's default input.
constexpr std::uint32_t kFiles = 48;
constexpr std::uint64_t kMeanFileBytes = 256 << 10;

// first_write: fresh file systems per round, no shared content.
constexpr std::uint32_t kFreshFsPerRound = 8;
// aged_series: one file system backed up this many generations (the
// paper's single-user series has 20), then every generation restored, from
// the oldest to the newest.
constexpr std::uint32_t kAgedGenerations = 20;
// mixed_tenants: each tenant backs up kMixedSteps generations of one shared
// series, tenant c starting kMixedStagger * c generations in.
constexpr std::uint32_t kMixedSteps = 6;
constexpr std::uint32_t kMixedStagger = 2;

FsParams fs_params() {
  FsParams p;
  p.initial_files = kFiles;
  p.mean_file_bytes = kMeanFileBytes;
  return p;
}

// The shape's mean initial size is 23.8 MB, with a 15% spread between seeds.
// Request latency follows size, so with a run's few series its p90 would
// mostly report which series came out largest. Every file system therefore
// starts within 5% of the mean.
constexpr double kFsMeanBytes = 23.8e6;
constexpr double kFsSizeTolerance = 0.05;

/// The first seed derived from `seed` whose file system starts within
/// kFsSizeTolerance of kFsMeanBytes. About one seed in four qualifies, and
/// building a model without materializing it is cheap.
std::uint64_t fs_seed(std::uint64_t seed) {
  for (std::uint64_t k = 0;; ++k) {
    const std::uint64_t candidate = defrag::derive_seed(seed, k);
    const double bytes = static_cast<double>(
        FileSystemModel(candidate, fs_params()).logical_bytes());
    if (std::abs(bytes / kFsMeanBytes - 1.0) <= kFsSizeTolerance) {
      return candidate;
    }
  }
}

/// Piece size of stream_digest().
constexpr std::size_t kDigestPiece = 64 << 10;

/// SHA-256 of the SHA-256 digests of the stream's 64 KiB pieces. Every byte
/// is SHA-256-checked, and the pieces hash lanes-in-parallel
/// (simd::sha256_many), so checking stays cheap next to the requests.
Sha256::Digest stream_digest(ByteView data) {
  std::vector<ByteView> pieces;
  for (std::size_t off = 0; off < data.size(); off += kDigestPiece) {
    pieces.push_back(data.subspan(off, std::min(kDigestPiece,
                                                data.size() - off)));
  }
  std::vector<Sha256::Digest> digests(pieces.size());
  defrag::simd::sha256_many(pieces.data(), pieces.size(), digests.data());
  Sha256 top;
  for (const Sha256::Digest& d : digests) top.update(ByteView(d));
  return top.finish();
}

/// One backup stream and the digest every restore of it must reproduce.
struct Input {
  Bytes bytes;
  Sha256::Digest digest{};
};

Input make_input(Bytes bytes) {
  Input in;
  in.digest = stream_digest(bytes);
  in.bytes = std::move(bytes);
  return in;
}

/// Issues one client's requests and keeps its tally. A request that throws
/// ends the client's schedule: it and every request not yet sent count as
/// failed (`planned` is the client's full schedule length).
class ClientRun {
 public:
  ClientRun(Target& target, std::uint64_t planned) : target_(target) {
    tally_.attempted = planned;
  }

  std::uint32_t backup(const Input& in) {
    ++issued_;
    return target_.backup(in.bytes);
  }

  void restore(std::uint32_t id, std::uint64_t bytes,
               const Sha256::Digest& digest) {
    ++issued_;
    target_.restore(id, bytes, out_);
    if (out_.size() != bytes || stream_digest(out_) != digest) {
      ++tally_.failed;
      std::cerr << "svcbench: restore of backup " << id
                << " is not bit-identical\n";
    }
  }

  void abort(const std::exception& e) {
    std::cerr << "svcbench: request failed: " << e.what() << "\n";
    tally_.failed += tally_.attempted - issued_ + 1;
  }

  const Tally& tally() const { return tally_; }

 private:
  Target& target_;
  Tally tally_;
  std::uint64_t issued_ = 0;
  Bytes out_;
};

Tally first_write(std::uint64_t round_seed, Target& target) {
  ClientRun run(target, 2ull * kFreshFsPerRound);
  try {
    std::vector<std::uint32_t> ids;
    std::vector<std::uint64_t> sizes;
    std::vector<Sha256::Digest> digests;
    for (std::uint32_t i = 0; i < kFreshFsPerRound; ++i) {
      const FileSystemModel fs(fs_seed(defrag::derive_seed(round_seed, i)),
                               fs_params());
      const Input in = make_input(fs.materialize_stream());
      ids.push_back(run.backup(in));
      sizes.push_back(in.bytes.size());
      digests.push_back(in.digest);
    }
    for (std::uint32_t i = 0; i < kFreshFsPerRound; ++i) {
      run.restore(ids[i], sizes[i], digests[i]);
    }
  } catch (const std::exception& e) {
    run.abort(e);
  }
  return run.tally();
}

Tally aged_series(std::uint64_t round_seed, Target& target) {
  ClientRun run(target, 2ull * kAgedGenerations);
  try {
    SingleUserSeries series(fs_seed(round_seed), fs_params());
    std::vector<std::uint32_t> ids;
    std::vector<std::uint64_t> sizes;
    std::vector<Sha256::Digest> digests;
    for (std::uint32_t g = 0; g < kAgedGenerations; ++g) {
      const Input in = make_input(series.next().stream);
      ids.push_back(run.backup(in));
      sizes.push_back(in.bytes.size());
      digests.push_back(in.digest);
    }
    for (std::uint32_t g = 0; g < kAgedGenerations; ++g) {
      run.restore(ids[g], sizes[g], digests[g]);
    }
  } catch (const std::exception& e) {
    run.abort(e);
  }
  return run.tally();
}

/// One mixed_tenants client: alternately back up its next generation of
/// the shared series and restore one of its own older backups (chosen from
/// the seed), so writes and reads from all three tenants overlap.
Tally mixed_client(std::uint64_t round_seed, std::size_t client,
                   const std::vector<Input>& shared, Target& target) {
  ClientRun run(target, 2ull * kMixedSteps);
  defrag::Xoshiro256 rng(defrag::derive_seed(round_seed, 1000 + client));
  try {
    std::vector<std::uint32_t> ids;
    std::vector<const Input*> backed_up;
    for (std::uint32_t s = 0; s < kMixedSteps; ++s) {
      const Input& in = shared[s + kMixedStagger * client];
      ids.push_back(run.backup(in));
      backed_up.push_back(&in);
      // An older backup when there is one (the first step restores itself).
      const std::size_t pick = s == 0 ? 0 : rng.next() % s;
      run.restore(ids[pick], backed_up[pick]->bytes.size(),
                  backed_up[pick]->digest);
    }
  } catch (const std::exception& e) {
    run.abort(e);
  }
  return run.tally();
}

Tally mixed_tenants(std::uint64_t round_seed,
                    const std::vector<Target*>& targets) {
  // Materialized up front: three clients read it concurrently.
  SingleUserSeries series(fs_seed(round_seed), fs_params());
  std::vector<Input> shared;
  const std::size_t gens =
      kMixedSteps + kMixedStagger * (targets.size() - 1);
  for (std::size_t g = 0; g < gens; ++g) {
    shared.push_back(make_input(series.next().stream));
  }
  std::vector<Tally> tallies(targets.size());
  {
    std::vector<std::jthread> threads;  // joined at scope exit, also on throw
    for (std::size_t c = 0; c < targets.size(); ++c) {
      threads.emplace_back([&, c] {
        tallies[c] = mixed_client(round_seed, c, shared, *targets[c]);
      });
    }
  }
  Tally total;
  for (const Tally& t : tallies) total += t;
  return total;
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kFirstWrite:
      return "first_write";
    case Workload::kAgedSeries:
      return "aged_series";
    case Workload::kMixedTenants:
      return "mixed_tenants";
  }
  return "unknown";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kFirstWrite, Workload::kAgedSeries,
                           Workload::kMixedTenants}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

std::size_t client_count(Workload w) {
  return w == Workload::kMixedTenants ? 3 : 1;
}

std::string tenant_name(std::string_view pass, std::uint64_t round,
                        std::size_t client) {
  return std::string(pass) + "-r" + std::to_string(round) + "-c" +
         std::to_string(client);
}

Tally run_round(Workload w, std::uint64_t seed, std::uint64_t round,
                const std::vector<Target*>& targets) {
  const std::uint64_t round_seed = defrag::derive_seed(seed, round);
  switch (w) {
    case Workload::kFirstWrite:
      return first_write(round_seed, *targets.at(0));
    case Workload::kAgedSeries:
      return aged_series(round_seed, *targets.at(0));
    case Workload::kMixedTenants:
      return mixed_tenants(round_seed, targets);
  }
  return {};
}

}  // namespace svcbench
