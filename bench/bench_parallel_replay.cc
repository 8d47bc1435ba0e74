// Suite-replay throughput harness: N copies of the 104k-action 16-thread
// synthetic trace replayed with core::ReplaySuite on a host thread pool
// (one standalone fiber simulation per copy per worker) versus a serial
// loop of the same N standalone replays. Per-copy virtual metrics must
// match exactly (exit 1 otherwise); the throughput ratio is the multi-core
// speedup (== 1 on a single-core host: worker count never changes virtual
// results, only wall time).
//
// Usage:
//   bench_parallel_replay [--threads=N] [--reads=N] [--seed=N] [--copies=N]
//                         [--jobs=N]
//
// --jobs=0 (default) uses ARTC_JOBS or the host core count.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/artc.h"
#include "src/core/suite.h"
#include "src/obs/obs.h"
#include "src/util/thread_pool.h"
#include "src/workloads/micro.h"
#include "src/workloads/workload.h"

namespace artc::bench {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct RunMetrics {
  double host_wall_ms = 0;
  uint64_t sim_switches = 0;
  TimeNs virtual_end_ns = 0;
  TimeNs replay_virtual_ns = 0;
  uint64_t failed_events = 0;
};

bool SameVirtual(const RunMetrics& a, const RunMetrics& b) {
  return a.sim_switches == b.sim_switches && a.virtual_end_ns == b.virtual_end_ns &&
         a.replay_virtual_ns == b.replay_virtual_ns &&
         a.failed_events == b.failed_events;
}

RunMetrics FromResult(const core::SimReplayResult& result) {
  RunMetrics m;
  m.sim_switches = result.sim_switches;
  m.virtual_end_ns = result.sim_end_time;
  m.replay_virtual_ns = result.report.wall_time;
  m.failed_events = result.report.failed_events;
  return m;
}

void PrintRun(const char* name, const RunMetrics& m, size_t actions,
              const char* indent, bool trailing_comma) {
  double secs = m.host_wall_ms / 1000.0;
  std::printf(
      "%s\"%s\": {\"host_wall_ms\": %.1f, \"actions_per_sec\": %.0f, "
      "\"sim_switches\": %llu, \"virtual_end_ns\": %lld, "
      "\"replay_virtual_ns\": %lld, \"failed_events\": %llu}%s\n",
      indent, name, m.host_wall_ms,
      secs > 0 ? static_cast<double>(actions) / secs : 0.0,
      static_cast<unsigned long long>(m.sim_switches),
      static_cast<long long>(m.virtual_end_ns),
      static_cast<long long>(m.replay_virtual_ns),
      static_cast<unsigned long long>(m.failed_events), trailing_comma ? "," : "");
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

int Main(int argc, char** argv) {
  const uint32_t threads = static_cast<uint32_t>(FlagValue(argc, argv, "threads", 16));
  const uint32_t reads = static_cast<uint32_t>(FlagValue(argc, argv, "reads", 6500));
  const uint64_t seed = FlagValue(argc, argv, "seed", 1);
  const size_t copies = static_cast<size_t>(FlagValue(argc, argv, "copies", 8));
  const size_t jobs = static_cast<size_t>(FlagValue(argc, argv, "jobs", 0));

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
  std::printf("  \"copies\": %zu,\n", copies);

  std::vector<const core::CompiledBenchmark*> benches(copies, &bench);
  core::SimTarget target;
  target.seed = seed;

  auto serial_start = std::chrono::steady_clock::now();
  std::vector<RunMetrics> serial_runs;
  for (size_t k = 0; k < copies; ++k) {
    serial_runs.push_back(FromResult(core::ReplayCompiledOnSimTarget(bench, target)));
  }
  const double serial_ms = MsSince(serial_start);

  util::ThreadPool pool(jobs);
  auto suite_start = std::chrono::steady_clock::now();
  std::vector<core::SimReplayResult> suite = core::ReplaySuite(benches, target, &pool);
  const double suite_ms = MsSince(suite_start);

  bool suite_match = suite.size() == copies;
  RunMetrics serial_total, suite_total;
  serial_total.host_wall_ms = serial_ms;
  suite_total.host_wall_ms = suite_ms;
  for (size_t k = 0; k < copies && suite_match; ++k) {
    RunMetrics copy = FromResult(suite[k]);
    suite_match = SameVirtual(copy, serial_runs[k]);
    serial_total.sim_switches += serial_runs[k].sim_switches;
    serial_total.failed_events += serial_runs[k].failed_events;
    serial_total.virtual_end_ns =
        std::max(serial_total.virtual_end_ns, serial_runs[k].virtual_end_ns);
    serial_total.replay_virtual_ns =
        std::max(serial_total.replay_virtual_ns, serial_runs[k].replay_virtual_ns);
    suite_total.sim_switches += copy.sim_switches;
    suite_total.failed_events += copy.failed_events;
    suite_total.virtual_end_ns =
        std::max(suite_total.virtual_end_ns, copy.virtual_end_ns);
    suite_total.replay_virtual_ns =
        std::max(suite_total.replay_virtual_ns, copy.replay_virtual_ns);
  }

  const size_t total_actions = actions * copies;
  std::printf("  \"suite\": {\n");
  PrintRun("serial_fibers", serial_total, total_actions, "    ", true);
  PrintRun("parallel", suite_total, total_actions, "    ", true);
  std::printf("    \"workers\": %zu,\n", pool.worker_count());
  std::printf("    \"speedup_parallel_over_serial\": %.2f,\n",
              suite_ms > 0 ? serial_ms / suite_ms : 0.0);
  std::printf("    \"virtual_match\": %s\n", suite_match ? "true" : "false");
  std::printf("  }\n");
  std::printf("}\n");
  return suite_match ? 0 : 1;
}

}  // namespace
}  // namespace artc::bench

int main(int argc, char** argv) {
  artc::bench::HarnessObsSession obs_session(argc, argv);
  return artc::bench::Main(argc, argv);
}
