#include "service/cli_config.h"

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>

#include "dedup/engine.h"
#include "workload/fs_model.h"

namespace defrag::cli {

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  const auto it = options.find(name);
  return it == options.end() ? fallback : it->second;
}

namespace {

/// A malformed numeric option is a usage error: say which and exit 2. The
/// tools print their own usage errors to stderr; this is the same message
/// from their shared option parser.
[[noreturn]] void bad_value(const std::string& name, const std::string& v) {
  // defrag-lint: allow=printf (a command-line tool's usage error)
  std::fprintf(stderr, "--%s: bad value '%s'\n", name.c_str(), v.c_str());
  std::exit(2);
}

/// Option `name` as a T: the whole token, in T's range (so no sign on an
/// unsigned T) and, for a double, finite; `fallback` when absent.
template <typename T>
T get_number(const std::map<std::string, std::string>& options,
             const std::string& name, T fallback) {
  const auto it = options.find(name);
  if (it == options.end()) return fallback;
  const std::string& v = it->second;
  T out{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (ec != std::errc{} || ptr != end) bad_value(name, v);
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(out)) bad_value(name, v);
  }
  return out;
}

}  // namespace

std::uint64_t Args::get_u64(const std::string& name,
                            std::uint64_t fallback) const {
  return get_number(options, name, fallback);
}

std::uint32_t Args::get_u32(const std::string& name,
                            std::uint32_t fallback) const {
  return get_number(options, name, fallback);
}

std::size_t Args::get_size(const std::string& name,
                           std::size_t fallback) const {
  return get_number(options, name, fallback);
}

double Args::get_double(const std::string& name, double fallback) const {
  return get_number(options, name, fallback);
}

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) return std::nullopt;
    token = token.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[token] = argv[++i];
    } else {
      args.options[token] = "";  // boolean flag
    }
  }
  return args;
}

std::optional<EngineKind> engine_by_name(const std::string& name) {
  if (name == "ddfs") return EngineKind::kDdfs;
  if (name == "silo") return EngineKind::kSilo;
  if (name == "sparse") return EngineKind::kSparse;
  if (name == "defrag") return EngineKind::kDefrag;
  if (name == "cbr") return EngineKind::kCbr;
  return std::nullopt;
}

workload::FsParams fs_from(const Args& args) {
  workload::FsParams fs;
  fs.initial_files = args.get_u32("files", 48);
  fs.mean_file_bytes = args.get_u64("file-bytes", 262144);
  return fs;
}

}  // namespace defrag::cli
