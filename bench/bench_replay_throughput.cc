// Replay-simulator throughput harness: measures how fast the simulator
// replays a large synthetic multithreaded trace in *host* time, for each
// Simulation context-switch backend (user-space fibers vs. one host OS
// thread per simulated thread). Prints a single JSON object so successive
// PRs can track the perf trajectory, and fails (exit 1) if the two
// backends disagree on any virtual-time result — they share the scheduler
// and must be bit-identical for the same seed.
//
// Usage:
//   bench_replay_throughput [--threads=N] [--reads=N] [--seed=N]
//                           [--backend=fibers|threads|both]
//
// Defaults produce a ~100k-action, 16-thread trace.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "src/core/artc.h"
#include "src/obs/obs.h"
#include "src/sim/simulation.h"
#include "src/workloads/micro.h"
#include "src/workloads/workload.h"

namespace artc::bench {
namespace {

struct BackendRun {
  const char* name = "";
  double host_wall_ms = 0;
  uint64_t sim_switches = 0;
  TimeNs virtual_end_ns = 0;
  TimeNs replay_virtual_ns = 0;
  uint64_t failed_events = 0;
};

BackendRun TimeReplay(const core::CompiledBenchmark& bench, sim::SimBackend backend,
                      uint64_t seed) {
  core::SimTarget target;
  target.seed = seed;
  target.sim_backend = backend;
  auto start = std::chrono::steady_clock::now();
  core::SimReplayResult result = core::ReplayCompiledOnSimTarget(bench, target);
  auto end = std::chrono::steady_clock::now();

  BackendRun run;
  run.name = sim::SimBackendName(backend);
  run.host_wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(end - start)
          .count();
  run.sim_switches = result.sim_switches;
  run.virtual_end_ns = result.sim_end_time;
  run.replay_virtual_ns = result.report.wall_time;
  run.failed_events = result.report.failed_events;
  return run;
}

void PrintBackendJson(const BackendRun& run, size_t actions, bool trailing_comma) {
  double secs = run.host_wall_ms / 1000.0;
  std::printf(
      "    {\"backend\": \"%s\", \"host_wall_ms\": %.1f, \"sim_switches\": %llu, "
      "\"switches_per_sec\": %.0f, \"actions_per_sec\": %.0f, "
      "\"virtual_end_ns\": %lld, \"replay_virtual_ns\": %lld, "
      "\"failed_events\": %llu}%s\n",
      run.name, run.host_wall_ms, static_cast<unsigned long long>(run.sim_switches),
      secs > 0 ? static_cast<double>(run.sim_switches) / secs : 0.0,
      secs > 0 ? static_cast<double>(actions) / secs : 0.0,
      static_cast<long long>(run.virtual_end_ns),
      static_cast<long long>(run.replay_virtual_ns),
      static_cast<unsigned long long>(run.failed_events), trailing_comma ? "," : "");
}

uint64_t FlagValue(int argc, char** argv, const char* name, uint64_t def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtoull(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return def;
}

std::string StringFlag(int argc, char** argv, const char* name, const char* def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return def;
}

int Main(int argc, char** argv) {
  const uint32_t threads = static_cast<uint32_t>(FlagValue(argc, argv, "threads", 16));
  const uint32_t reads = static_cast<uint32_t>(FlagValue(argc, argv, "reads", 6500));
  const uint64_t seed = FlagValue(argc, argv, "seed", 1);
  const std::string which = StringFlag(argc, argv, "backend", "both");
  sim::SimBackend single_backend = sim::SimBackend::kFibers;
  if (which != "both" && !sim::ParseSimBackendName(which, &single_backend)) {
    std::fprintf(stderr,
                 "unknown --backend=%s (expected fibers, threads, or both)\n",
                 which.c_str());
    return 2;
  }

  workloads::RandomReaders::Options opt;
  opt.threads = threads;
  opt.reads_per_thread = reads;
  workloads::RandomReaders workload(opt);
  workloads::TracedRun traced = workloads::TraceWorkload(workload, {});
  core::CompiledBenchmark bench = core::Compile(traced.trace, traced.snapshot, {});
  const size_t actions = bench.actions.size();

  std::printf("{\n");
  std::printf("  \"workload\": \"%s\",\n", traced.workload_name.c_str());
  std::printf("  \"replay_threads\": %zu,\n", bench.thread_actions.size());
  std::printf("  \"actions\": %zu,\n", actions);
  std::printf("  \"seed\": %llu,\n", static_cast<unsigned long long>(seed));
  std::printf("  \"backends\": [\n");

  bool ran_fibers = which == "both" || which == "fibers";
  bool ran_threads = which == "both" || which == "threads";
  BackendRun fibers, threads_run;
  if (ran_fibers) {
    fibers = TimeReplay(bench, sim::SimBackend::kFibers, seed);
    PrintBackendJson(fibers, actions, /*trailing_comma=*/ran_threads);
  }
  if (ran_threads) {
    threads_run = TimeReplay(bench, sim::SimBackend::kThreads, seed);
    PrintBackendJson(threads_run, actions, /*trailing_comma=*/false);
  }
  std::printf("  ],\n");

  bool virtual_match = true;
  if (ran_fibers && ran_threads) {
    virtual_match = fibers.virtual_end_ns == threads_run.virtual_end_ns &&
                    fibers.replay_virtual_ns == threads_run.replay_virtual_ns &&
                    fibers.sim_switches == threads_run.sim_switches;
    double speedup =
        fibers.host_wall_ms > 0 ? threads_run.host_wall_ms / fibers.host_wall_ms : 0.0;
    std::printf("  \"speedup_fibers_over_threads\": %.2f,\n", speedup);
    std::printf("  \"virtual_match\": %s\n", virtual_match ? "true" : "false");
  } else {
    std::printf("  \"virtual_match\": null\n");
  }
  std::printf("}\n");
  return virtual_match ? 0 : 1;
}

}  // namespace
}  // namespace artc::bench

int main(int argc, char** argv) {
  artc::bench::HarnessObsSession obs_session(argc, argv);
  return artc::bench::Main(argc, argv);
}
