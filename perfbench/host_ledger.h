// Host-time accounting for the benchmark's traced run.
//
// SpanLog keeps every span (name, start, end, parent, track) in memory and
// writes them out once, at exit. HostLedger partitions the host time of one
// simulated replay into per-state self time: every span boundary charges
// the host interval since the previous boundary, anywhere in the
// simulation, either to the calling fiber's current state (no simulated
// context switch happened in between, so that fiber ran the whole
// interval) or to `switched_ns` (a switch happened, so the interval mixes
// fibers and scheduler work and is not attributed to a state; it is only
// split by the state of the fiber that opened it). TimingEnv wraps
// core::SimReplayEnv and opens a span around each WaitOn, Execute and
// Notify; it consumes no virtual time, so the replay it drives is
// bit-identical to an untraced one.
#ifndef PERFBENCH_HOST_LEDGER_H_
#define PERFBENCH_HOST_LEDGER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/sim_env.h"
#include "src/sim/simulation.h"

namespace perfbench {

namespace core = artc::core;
namespace obs = artc::obs;
namespace sim = artc::sim;
namespace trace = artc::trace;
using artc::TimeNs;

using Clock = std::chrono::steady_clock;

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  int64_t start_ns = 0;  // host ns since the log's origin
  int64_t end_ns = 0;
  uint32_t parent = kNoParent;  // index into SpanLog::spans()
  uint16_t name = 0;            // index into SpanLog::names()
  uint16_t track = 0;           // simulated thread for replay leaf spans
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  uint16_t Name(const std::string& name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) {
      return it->second;
    }
    const auto id = static_cast<uint16_t>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
  }

  int64_t NowNs() const { return Since(Clock::now()); }
  int64_t Since(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  uint32_t Begin(uint16_t name, uint32_t parent, int64_t start_ns, uint16_t track = 0) {
    spans_.push_back(Span{start_ns, start_ns, parent, name, track});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  uint32_t Begin(uint16_t name, uint32_t parent) { return Begin(name, parent, NowNs()); }
  void End(uint32_t span, int64_t end_ns) { spans_[span].end_ns = end_ns; }
  void End(uint32_t span) { End(span, NowNs()); }
  double Seconds(uint32_t span) const {
    return static_cast<double>(spans_[span].end_ns - spans_[span].start_ns) * 1e-9;
  }

  void Clear() { spans_.clear(); }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  // Binary dump: "PBSPANS1", name count, NUL-terminated names, span count,
  // then the Span records as laid out above. Returns false on I/O failure.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      return false;
    }
    bool ok = std::fwrite("PBSPANS1", 1, 8, f) == 8;
    const uint64_t name_count = names_.size();
    ok = ok && std::fwrite(&name_count, sizeof name_count, 1, f) == 1;
    for (const std::string& n : names_) {
      ok = ok && std::fwrite(n.c_str(), 1, n.size() + 1, f) == n.size() + 1;
    }
    const uint64_t span_count = spans_.size();
    ok = ok && std::fwrite(&span_count, sizeof span_count, 1, f) == 1;
    ok = ok && (spans_.empty() ||
                std::fwrite(spans_.data(), sizeof(Span), spans_.size(), f) == spans_.size());
    return std::fclose(f) == 0 && ok;
  }

 private:
  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint16_t> ids_;
  std::vector<Span> spans_;
};

// What a fiber is doing between two span boundaries.
enum class HostState : uint8_t {
  kEngine,   // replay engine code outside any Env call (and the harness)
  kWait,     // inside Env::WaitOn
  kExecute,  // inside Env::Execute (VFS + storage work)
  kNotify,   // inside Env::Notify
  kInit,     // inside SimReplayEnv::Initialize (snapshot restore)
  kCapture,  // Vfs::CaptureSnapshot after the replay
  kCount,
};

inline const char* HostStateName(HostState s) {
  static constexpr std::array<const char*, static_cast<size_t>(HostState::kCount)> kNames = {
      "replay.engine", "replay.wait", "replay.execute",
      "replay.notify", "vfs.init",    "vfs.capture"};
  return kNames[static_cast<size_t>(s)];
}

struct HostTotals {
  std::array<int64_t, static_cast<size_t>(HostState::kCount)> self_ns{};
  std::array<uint64_t, static_cast<size_t>(HostState::kCount)> calls{};
  // Intervals that contain a simulated switch, by the state of the fiber
  // that opened the interval (it ran first, then yielded).
  std::array<int64_t, static_cast<size_t>(HostState::kCount)> switched_ns{};
  int64_t tail_ns = 0;      // last boundary -> Simulation::Run() return
  int64_t init_wall_ns = 0; // Initialize span, switches included

  void Add(const HostTotals& o) {
    for (size_t i = 0; i < self_ns.size(); ++i) {
      self_ns[i] += o.self_ns[i];
      calls[i] += o.calls[i];
      switched_ns[i] += o.switched_ns[i];
    }
    tail_ns += o.tail_ns;
    init_wall_ns += o.init_wall_ns;
  }
  int64_t Self(HostState s) const { return self_ns[static_cast<size_t>(s)]; }
  uint64_t Calls(HostState s) const { return calls[static_cast<size_t>(s)]; }
  int64_t Switched() const {
    int64_t n = 0;
    for (int64_t v : switched_ns) {
      n += v;
    }
    return n;
  }
};

class HostLedger {
 public:
  HostLedger(sim::Simulation* sim, SpanLog* log, uint32_t parent)
      : sim_(sim), log_(log), parent_(parent) {
    for (size_t i = 0; i < names_.size(); ++i) {
      names_[i] = log_->Name(HostStateName(static_cast<HostState>(i)));
    }
  }

  // Brackets Simulation::Run().
  void Start() {
    last_ns_ = log_->NowNs();
    last_switches_ = sim_->switch_count();
    last_state_ = HostState::kEngine;
  }
  void Finish() { totals_.tail_ns += log_->NowNs() - last_ns_; }

  // Called from inside a simulated thread.
  uint32_t Begin(HostState s) {
    const int64_t now = Charge();
    const sim::SimThreadId tid = sim_->CurrentThread();
    Stack(tid).push_back(s);
    last_state_ = s;
    ++totals_.calls[static_cast<size_t>(s)];
    return log_->Begin(names_[static_cast<size_t>(s)], parent_, now,
                       static_cast<uint16_t>(sim::LocalIndexOfThread(tid)));
  }
  void End(uint32_t span) {
    const int64_t now = Charge();
    std::vector<HostState>& stack = Stack(sim_->CurrentThread());
    stack.pop_back();
    last_state_ = stack.empty() ? HostState::kEngine : stack.back();
    log_->End(span, now);
  }

  const HostTotals& totals() const { return totals_; }

 private:
  std::vector<HostState>& Stack(sim::SimThreadId tid) {
    const size_t i = sim::LocalIndexOfThread(tid);
    if (i >= stacks_.size()) {
      stacks_.resize(i + 1);
    }
    return stacks_[i];
  }

  int64_t Charge() {
    const int64_t now = log_->NowNs();
    const uint64_t switches = sim_->switch_count();
    // Without a switch the calling fiber ran the whole interval, in the
    // state it entered at the previous boundary.
    auto& bucket = switches != last_switches_ ? totals_.switched_ns : totals_.self_ns;
    bucket[static_cast<size_t>(last_state_)] += now - last_ns_;
    last_ns_ = now;
    last_switches_ = switches;
    return now;
  }

  sim::Simulation* sim_;
  SpanLog* log_;
  uint32_t parent_;
  std::array<uint16_t, static_cast<size_t>(HostState::kCount)> names_{};
  std::vector<std::vector<HostState>> stacks_;  // per simulated thread
  int64_t last_ns_ = 0;
  uint64_t last_switches_ = 0;
  HostState last_state_ = HostState::kEngine;  // of the fiber at the last boundary
  HostTotals totals_;
};

// Env for core::Replay<> that forwards to SimReplayEnv and records a span
// around each WaitOn, Execute and Notify.
class TimingEnv {
 public:
  static constexpr obs::ClockDomain kObsClockDomain = core::SimReplayEnv::kObsClockDomain;

  TimingEnv(core::SimReplayEnv* env, HostLedger* ledger) : env_(env), ledger_(ledger) {}

  TimeNs Now() const { return env_->Now(); }
  void SleepNs(TimeNs d) { env_->SleepNs(d); }
  void RunThreads(size_t n, std::function<void(size_t)> body) {
    env_->RunThreads(n, std::move(body));
  }
  template <typename Pred>
  void WaitOn(uint32_t idx, Pred pred) {
    const uint32_t span = ledger_->Begin(HostState::kWait);
    env_->WaitOn(idx, pred);
    ledger_->End(span);
  }
  void Notify(uint32_t idx) {
    const uint32_t span = ledger_->Begin(HostState::kNotify);
    env_->Notify(idx);
    ledger_->End(span);
  }
  int64_t Execute(const trace::TraceEvent& ev, const core::ExecContext& ctx) {
    const uint32_t span = ledger_->Begin(HostState::kExecute);
    const int64_t ret = env_->Execute(ev, ctx);
    ledger_->End(span);
    return ret;
  }
  uint32_t ObsCurrentTrack() const { return env_->ObsCurrentTrack(); }
  TimeNs StorageServiceNs() const { return env_->StorageServiceNs(); }

 private:
  core::SimReplayEnv* env_;
  HostLedger* ledger_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_LEDGER_H_
