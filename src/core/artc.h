// High-level ARTC facade: one-call compile + initialize + replay against a
// simulated storage target. This is the public API the benchmark harnesses
// and examples use; the individual pieces (Compile, Replay, SimReplayEnv)
// remain available for finer control.
#ifndef SRC_CORE_ARTC_H_
#define SRC_CORE_ARTC_H_

#include <string>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/emulation.h"
#include "src/core/replay_engine.h"
#include "src/core/report.h"
#include "src/sim/schedule.h"
#include "src/sim/simulation.h"
#include "src/storage/storage_stack.h"
#include "src/vfs/vfs.h"

namespace artc::core {

// Describes a simulated replay target: storage hardware, file system, OS
// personality, and replay behaviour.
struct SimTarget {
  storage::StorageConfig storage = storage::MakeNamedConfig("hdd");
  std::string fs_profile = "ext4";
  std::string platform = "linux";
  EmulationPolicy emulation;
  ReplayOptions replay;     // pacing
  uint64_t seed = 1;        // simulated-scheduler seed
  sim::SimBackend sim_backend = sim::SimBackend::kFibers;  // kept only because perfbench/ reads it
  // Scheduler choice-point policy for the simulation. kDefault keeps the
  // built-in seeded-random scheduler and is bit-identical to not setting a
  // policy at all; kRandom / kPct explore alternative legal interleavings
  // of the same replay (used by the src/check/ harness).
  sim::ScheduleSpec schedule;
  bool drop_caches_after_init = true;
  bool delta_init = false;
  // Turns on the process-wide observability switch (obs::Enable) for this
  // replay, so instrumented spans/counters are collected even without
  // ARTC_TRACE_OUT in the environment. The caller still decides where the
  // data goes (obs::FlushOutputs or direct registry/tracer reads).
  bool obs = false;
};

struct SimReplayResult {
  ReplayReport report;
  EdgeStats edge_stats;
  uint64_t model_warnings = 0;
  // Simulator diagnostics for the whole run (init + replay): total simulated
  // context switches and the final virtual clock. A pure function of the
  // benchmark and the target; tests/virtual_golden_test.cc pins both.
  uint64_t sim_switches = 0;
  TimeNs sim_end_time = 0;
  // Storage-stack counters for this run only (the obs registry accumulates
  // process-wide): cache hits/misses, media traffic, RAID stripe balance.
  storage::StorageCounters storage;
};

// Compiles the trace under `options` and replays it on the simulated target.
SimReplayResult ReplayOnSimTarget(const trace::Trace& t,
                                  const trace::FsSnapshot& snapshot,
                                  const CompileOptions& options, const SimTarget& target);

// Convenience: replays a pre-compiled benchmark (used when comparing several
// targets without recompiling). `bench` is only read, so many host threads
// may replay the same compiled artifact concurrently (each call builds its
// own simulation/storage/vfs world) — the sharing contract behind
// core::CompiledBenchmarkPtr that the sweep engine and artcd rely on.
//
// When `final_state` is non-null, the simulated file system is captured into
// it right after the replay finishes (still inside the simulation, at zero
// virtual cost), so callers can digest the end state without re-running.
// Virtual results are bit-identical with capture on or off.
SimReplayResult ReplayCompiledOnSimTarget(const CompiledBenchmark& bench,
                                          const SimTarget& target,
                                          trace::FsSnapshot* final_state);
SimReplayResult ReplayCompiledOnSimTarget(const CompiledBenchmark& bench,
                                          const SimTarget& target);

// Replays several compiled benchmarks *concurrently* on one simulated
// target: their snapshots are overlaid into a single tree and each
// benchmark's replay threads run side by side — the paper's multi-trace
// mode ("a workload similar to a user browsing photos in iPhoto while
// listening to music in iTunes", Sec. 4.3.2). Returns one report per
// benchmark plus the combined wall time.
struct MultiReplayResult {
  std::vector<ReplayReport> reports;  // parallel to the input benchmarks
  TimeNs wall_time = 0;
};
MultiReplayResult ReplayConcurrentlyOnSimTarget(
    const std::vector<const CompiledBenchmark*>& benches, const SimTarget& target);

}  // namespace artc::core

#endif  // SRC_CORE_ARTC_H_
