#include "obs/log.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/sync.h"
#include "obs/json_writer.h"
#include "obs/request_context.h"

namespace defrag::obs {
namespace {

// The one place in src/ allowed to talk to stdio directly, apart from the
// command-line tools' usage errors (service/cli_config.cpp): this IS the
// sink the rest of the tree logs through. Flushed per line so daemon
// readiness/teardown lines survive pipes and crashes.
void default_sink(std::string_view line) {
  // defrag-lint: allow=printf (the logger's own sink)
  std::fprintf(stderr, "%.*s\n", static_cast<int>(line.size()), line.data());
  std::fflush(stderr);
}

// UTC wall-clock "2026-08-08T12:34:56.789Z". Uses gmtime_r (thread-safe);
// millisecond precision is plenty for correlating with traces, which carry
// the precise microsecond timeline.
std::string format_timestamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  // Room for the widest output the format allows for any int fields, so
  // the compiler can prove it is never truncated (a real timestamp uses 24
  // bytes).
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  return buf;
}

// Human format quotes a string value only when it would be ambiguous.
bool needs_quotes(std::string_view v) {
  if (v.empty()) return true;
  for (const char c : v) {
    if (c == ' ' || c == '"' || c == '=' || c == '\\' ||
        static_cast<unsigned char>(c) < 0x20) {
      return true;
    }
  }
  return false;
}

void append_field_human(std::string& out, std::string_view key,
                        const std::string& value, bool is_string) {
  out += ' ';
  out += key;
  out += '=';
  if (is_string && needs_quotes(value)) {
    out += json_quote(value);
  } else {
    out += value;
  }
}

void append_field_json(std::string& out, std::string_view key,
                       const std::string& value, bool is_string) {
  out += ',';
  out += json_quote(key);
  out += ':';
  if (is_string) {
    out += json_quote(value);
  } else {
    out += value;
  }
}

}  // namespace

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      break;
  }
  return "off";
}

std::optional<LogLevel> parse_log_level(std::string_view name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return std::nullopt;
}

LogField::LogField(std::string_view k, double v)
    : key(k), value(json_number(v)), is_string(false) {}

Logger::Logger() : sink_(default_sink) {}

Logger& Logger::global() {
  static Logger* instance = new Logger();  // defrag-lint: allow=raw-new
  return *instance;
}

void Logger::set_sink(Sink sink) {
  MutexLock lock(mu_);
  sink_ = sink ? std::move(sink) : Sink(default_sink);
}

void Logger::set_rate_limit(std::uint32_t max_per_window,
                            double window_seconds) {
  MutexLock lock(mu_);
  rate_max_ = max_per_window;
  rate_window_ = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(window_seconds));
  windows_.clear();
}

void Logger::log(LogLevel level, std::string_view event,
                 std::initializer_list<LogField> fields) {
  if (!should_log(level)) return;
  MutexLock lock(mu_);
  std::uint64_t suppressed = 0;
  if (rate_max_ > 0) {
    const auto now = std::chrono::steady_clock::now();
    auto it = windows_.find(event);
    if (it == windows_.end()) {
      it = windows_.emplace(std::string(event), RateWindow{now, 0, 0}).first;
    }
    RateWindow& win = it->second;
    if (now - win.start >= rate_window_) {
      win.start = now;
      win.emitted = 0;
      // Carry the dropped-line count into the new window's first line.
      suppressed = win.suppressed;
      win.suppressed = 0;
    }
    if (win.emitted >= rate_max_) {
      ++win.suppressed;
      return;
    }
    ++win.emitted;
  }
  emit_locked(level, event, fields, suppressed);
}

void Logger::emit_locked(LogLevel level, std::string_view event,
                         std::initializer_list<LogField> fields,
                         std::uint64_t suppressed) {
  const std::uint64_t rid = RequestScope::current_rid();
  std::string line;
  line.reserve(128);
  if (json_.load(std::memory_order_relaxed)) {
    line += "{\"ts\":";
    line += json_quote(format_timestamp());
    line += ",\"level\":";
    line += json_quote(to_string(level));
    line += ",\"event\":";
    line += json_quote(event);
    if (rid != 0) {
      line += ",\"rid\":";
      line += std::to_string(rid);
    }
    for (const LogField& f : fields) {
      append_field_json(line, f.key, f.value, f.is_string);
    }
    if (suppressed > 0) {
      append_field_json(line, "suppressed", std::to_string(suppressed), false);
    }
    line += '}';
  } else {
    line += format_timestamp();
    line += ' ';
    for (const char c : to_string(level)) {
      line += static_cast<char>(c >= 'a' && c <= 'z' ? c - ('a' - 'A') : c);
    }
    line += ' ';
    line += event;
    if (rid != 0) {
      append_field_human(line, "rid", std::to_string(rid), false);
    }
    for (const LogField& f : fields) {
      append_field_human(line, f.key, f.value, f.is_string);
    }
    if (suppressed > 0) {
      append_field_human(line, "suppressed", std::to_string(suppressed), false);
    }
  }
  sink_(line);
}

}  // namespace defrag::obs
