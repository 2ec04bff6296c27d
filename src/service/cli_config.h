// Shared command-line plumbing for the defrag tools.
//
// defrag-cli, defrag-serve and defrag-client all parse the same
// `<command> --option value --flag` shape; this module is the one
// implementation (it grew out of defrag_cli.cpp when the service tools
// arrived). Parsing stays deliberately dumb — string options with typed
// accessors, no registration tables — because the tools' usage text is
// the interface contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "dedup/engine.h"
#include "workload/fs_model.h"

namespace defrag::cli {

/// `<command> [--option value | --flag]...` parsed argv. Option values
/// must not start with "--" (that reads as the next option). The numeric
/// accessors return `fallback` for an absent option and parse a present
/// one strictly (the whole token, in range, unsigned ones without a sign,
/// doubles finite); a malformed value prints `--<name>: bad value '<v>'`
/// and exits 2.
struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  bool flag(const std::string& name) const { return options.contains(name); }
  std::string get(const std::string& name, const std::string& fallback) const;
  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const;
  std::uint32_t get_u32(const std::string& name, std::uint32_t fallback) const;
  std::size_t get_size(const std::string& name, std::size_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
};

/// nullopt when argv has no command or a token is not `--option`-shaped;
/// callers print their usage text.
std::optional<Args> parse_args(int argc, char** argv);

/// Engine selector shared by every tool ("ddfs", "silo", "sparse",
/// "defrag", "cbr").
std::optional<EngineKind> engine_by_name(const std::string& name);

/// Synthetic-filesystem shape from the common --files / --file-bytes
/// options.
workload::FsParams fs_from(const Args& args);

}  // namespace defrag::cli
