// Golden virtual-time values for three fixed end-to-end pipelines: a traced
// random-readers run replayed on the fiber simulator, the compile of
// the 104k-action random-readers trace, and the compile + replay + critical
// path of the 200k-action lockserver trace. Every number is a pure function
// of the simulator, the compiler and the seeds, so none depends on the host
// or the build type and each is asserted exactly.
//
// A deliberate change to compile or replay semantics must update the table;
// the failure message prints the new value. Host-time throughput of the same
// stages is measured by perfbench/ (replay_actions_per_s,
// ingest_actions_per_s, stream_ingest_actions_per_s).
#include <gtest/gtest.h>

#include <cstdint>

#include "src/core/artc.h"
#include "src/core/compiler.h"
#include "src/obs/critpath.h"
#include "src/workloads/micro.h"
#include "src/workloads/synthetic_gen.h"
#include "src/workloads/workload.h"

namespace artc {
namespace {

core::CompiledBenchmark CompileRandomReaders(uint32_t threads, uint32_t reads,
                                             const core::CompileOptions& copt) {
  workloads::RandomReaders::Options opt;
  opt.threads = threads;
  opt.reads_per_thread = reads;
  workloads::RandomReaders workload(opt);
  workloads::TracedRun traced = workloads::TraceWorkload(workload, {});
  return core::Compile(traced.trace, traced.snapshot, copt);
}

// random-readers-8 (8 threads x 2000 reads), replay seed 1.
TEST(VirtualGolden, RandomReaders8ReplayOnFibers) {
  const core::CompiledBenchmark bench = CompileRandomReaders(8, 2000, {});
  EXPECT_EQ(bench.actions.size(), 16016u);
  EXPECT_EQ(bench.thread_actions.size(), 8u);

  core::SimTarget target;
  target.seed = 1;
  const core::SimReplayResult result = core::ReplayCompiledOnSimTarget(bench, target);
  EXPECT_EQ(result.sim_switches, 16067u);
  EXPECT_EQ(result.sim_end_time, 36628850280);
  EXPECT_EQ(result.report.wall_time, 36628850280);
  EXPECT_EQ(result.report.failed_events, 0u);
}

// random-readers-16 (16 threads x 6500 reads): a read-only workload on
// per-thread files compiles to almost no edges, and pruning finds none
// redundant.
TEST(VirtualGolden, RandomReaders16CompileEdges) {
  const core::CompiledBenchmark pruned = CompileRandomReaders(16, 6500, {});
  core::CompileOptions copt;
  copt.prune_redundant_deps = false;
  const core::CompiledBenchmark unpruned = CompileRandomReaders(16, 6500, copt);

  EXPECT_EQ(pruned.actions.size(), 104032u);
  EXPECT_EQ(pruned.thread_actions.size(), 16u);
  EXPECT_EQ(unpruned.dep_arena.size(), 15u);  // edges emitted
  EXPECT_EQ(pruned.dep_arena.size(), 15u);    // edges after pruning
  EXPECT_EQ(pruned.edge_stats.TotalPruned(), 0u);
  EXPECT_EQ(pruned.dep_arena.size() + pruned.edge_stats.TotalPruned(),
            unpruned.dep_arena.size());
}

// Lockserver (8 threads, 200k actions, generator seed 31), replay seed 7:
// the sync rules' edge counts and the replay's lock-stall attribution.
TEST(VirtualGolden, LockserverCompileReplayAndStalls) {
  workloads::SynthOptions opt;
  opt.scenario = workloads::SynthScenario::kLockServer;
  opt.threads = 8;
  opt.events = 200000;
  opt.seed = 31;
  const trace::TraceBundle bundle = workloads::GenerateSyntheticBundle(opt);
  const core::CompiledBenchmark bench =
      core::Compile(bundle.trace, bundle.snapshot, {});

  auto edges_by = [&](core::RuleTag rule) {
    return bench.edge_stats.count_by_rule[static_cast<size_t>(rule)];
  };
  const uint64_t sync_edges =
      edges_by(core::RuleTag::kMutex) + edges_by(core::RuleTag::kBarrier) +
      edges_by(core::RuleTag::kCond) + edges_by(core::RuleTag::kJoin);
  EXPECT_EQ(bench.actions.size(), 200000u);
  EXPECT_EQ(bench.thread_actions.size(), 9u);
  EXPECT_EQ(bench.dep_arena.size(), 44048u);
  EXPECT_EQ(sync_edges, 45937u);

  core::SimTarget target;
  target.seed = 7;
  const core::SimReplayResult replay = core::ReplayCompiledOnSimTarget(bench, target);
  EXPECT_EQ(replay.report.failed_events, 0u);
  EXPECT_EQ(replay.report.wall_time, 2433767932);

  const obs::CritPathReport cp = obs::AnalyzeSimReplay(bench, replay);
  EXPECT_EQ(cp.StallByRule(core::RuleTag::kMutex), 1960081845);
  EXPECT_EQ(cp.StallByRule(core::RuleTag::kBarrier), 115791361);
}

}  // namespace
}  // namespace artc
