#include "src/obs/log.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "src/obs/json.h"
#include "src/obs/obs.h"

namespace artc::obs {
namespace internal {

// Default level: info. Debug lines exist for the hot subsystems and must be
// opt-in, but warnings/errors replacing legacy stderr prints stay visible.
std::atomic<uint8_t> g_log_level{static_cast<uint8_t>(LogLevel::kInfo)};

}  // namespace internal

namespace {

struct LogSink {
  std::mutex mu;
  std::FILE* file = nullptr;  // nullptr = stderr
  // Token bucket. tokens is in lines; refilled from the steady clock.
  double rate = 500.0;   // lines/sec; <= 0 disables limiting
  double burst = 128.0;  // bucket capacity
  double tokens = 128.0;
  std::chrono::steady_clock::time_point last_refill =
      std::chrono::steady_clock::now();
  uint64_t dropped_since_emit = 0;
};

LogSink& Sink() {
  // Leaked: log sites may fire from detached threads during teardown.
  static LogSink* sink = new LogSink();
  return *sink;
}

std::atomic<uint64_t> g_dropped_total{0};

uint32_t ThisThreadLogId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

int64_t WallMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - ProcessEpoch())
      .count();
}

}  // namespace

const char* LogLevelName(LogLevel level) {
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
      return "off";
  }
  return "?";
}

bool ParseLogLevel(std::string_view name, LogLevel* out) {
  for (LogLevel l : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                     LogLevel::kError, LogLevel::kOff}) {
    if (name == LogLevelName(l)) {
      *out = l;
      return true;
    }
  }
  return false;
}

void LogField::AppendTo(std::string* out) const {
  out->push_back('"');
  AppendJsonEscaped(out, key_);
  out->push_back('"');
  out->push_back(':');
  char buf[64];
  switch (kind_) {
    case Kind::kInt:
      std::snprintf(buf, sizeof(buf), "%" PRId64, i_);
      *out += buf;
      break;
    case Kind::kUint:
      std::snprintf(buf, sizeof(buf), "%" PRIu64, u_);
      *out += buf;
      break;
    case Kind::kDouble:
      // %.17g round-trips doubles; trailing-garbage-free for typical rates.
      std::snprintf(buf, sizeof(buf), "%.12g", d_);
      *out += buf;
      break;
    case Kind::kBool:
      *out += b_ ? "true" : "false";
      break;
    case Kind::kString:
      out->push_back('"');
      AppendJsonEscaped(out, s_);
      out->push_back('"');
      break;
  }
}

void SetLogLevel(LogLevel level) {
  internal::g_log_level.store(static_cast<uint8_t>(level),
                              std::memory_order_relaxed);
}

bool SetLogFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return false;
  }
  LogSink& sink = Sink();
  std::lock_guard<std::mutex> lk(sink.mu);
  if (sink.file != nullptr) {
    std::fclose(sink.file);
  }
  sink.file = f;
  return true;
}

void SetLogRateLimit(double lines_per_sec, double burst) {
  LogSink& sink = Sink();
  std::lock_guard<std::mutex> lk(sink.mu);
  sink.rate = lines_per_sec;
  sink.burst = burst > 1.0 ? burst : 1.0;
  sink.tokens = sink.burst;
  sink.last_refill = std::chrono::steady_clock::now();
}

uint64_t LogDroppedLines() {
  return g_dropped_total.load(std::memory_order_relaxed);
}

namespace internal {

std::string FormatLogLine(LogLevel level, const char* component,
                          std::string_view msg, const LogField* fields,
                          size_t field_count, int64_t wall_ms, int64_t host_ns,
                          uint32_t tid, uint64_t dropped) {
  std::string out;
  out.reserve(128 + msg.size() + field_count * 24);
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"ts_ms\":%" PRId64 ",\"host_ns\":%" PRId64
                ",\"level\":\"%s\",\"tid\":%u,\"component\":\"",
                wall_ms, host_ns, LogLevelName(level), tid);
  out += buf;
  AppendJsonEscaped(&out, component != nullptr ? component : "?");
  out += "\",\"msg\":\"";
  AppendJsonEscaped(&out, msg);
  out.push_back('"');
  if (dropped > 0) {
    std::snprintf(buf, sizeof(buf), ",\"dropped\":%" PRIu64, dropped);
    out += buf;
  }
  if (field_count > 0) {
    out += ",\"fields\":{";
    for (size_t i = 0; i < field_count; ++i) {
      if (i > 0) {
        out.push_back(',');
      }
      fields[i].AppendTo(&out);
    }
    out.push_back('}');
  }
  out += "}\n";
  return out;
}

}  // namespace internal

void Log(LogLevel level, const char* component, std::string_view msg,
         std::initializer_list<LogField> fields) {
  if (!LogEnabledFor(level) || level == LogLevel::kOff) {
    return;
  }
  const int64_t wall_ms = WallMs();
  const int64_t host_ns = HostNs();
  const uint32_t tid = ThisThreadLogId();

  LogSink& sink = Sink();
  uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lk(sink.mu);
    if (sink.rate > 0 && level != LogLevel::kError) {
      const auto now = std::chrono::steady_clock::now();
      const double dt = std::chrono::duration<double>(now - sink.last_refill).count();
      sink.last_refill = now;
      sink.tokens = std::min(sink.burst, sink.tokens + dt * sink.rate);
      if (sink.tokens < 1.0) {
        sink.dropped_since_emit++;
        g_dropped_total.fetch_add(1, std::memory_order_relaxed);
        ARTC_OBS_COUNT("log.dropped_lines", 1);
        return;
      }
      sink.tokens -= 1.0;
    }
    dropped = sink.dropped_since_emit;
    sink.dropped_since_emit = 0;
    const std::string line = internal::FormatLogLine(
        level, component, msg, fields.begin(), fields.size(), wall_ms, host_ns,
        tid, dropped);
    std::FILE* f = sink.file != nullptr ? sink.file : stderr;
    std::fwrite(line.data(), 1, line.size(), f);
    std::fflush(f);
  }
  ARTC_OBS_COUNT("log.lines", 1);
}

void InitLogFromEnv() {
  const char* level = std::getenv("ARTC_LOG_LEVEL");
  if (level != nullptr && level[0] != '\0') {
    LogLevel parsed;
    if (ParseLogLevel(level, &parsed)) {
      SetLogLevel(parsed);
    } else {
      LogWarn("obs", "unrecognized ARTC_LOG_LEVEL ignored",
              {{"value", level}});
    }
  }
  const char* out = std::getenv("ARTC_LOG_OUT");
  if (out != nullptr && out[0] != '\0') {
    if (!SetLogFile(out)) {
      LogWarn("obs", "cannot open ARTC_LOG_OUT, keeping stderr",
              {{"path", out}});
    }
  }
  const char* rate = std::getenv("ARTC_LOG_RATE");
  if (rate != nullptr && rate[0] != '\0') {
    const double r = std::strtod(rate, nullptr);
    SetLogRateLimit(r, r > 0 ? r / 4 + 1 : 128.0);
  }
}

}  // namespace artc::obs
