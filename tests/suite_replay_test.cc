// Tests for core::ReplaySuite: every element of a suite replay is exactly a
// standalone ReplayCompiledOnSimTarget of the same benchmark, in input
// order, whatever the pool size (null = serial, 1, 2, 4) and under
// exploration schedules. The SimParallel cases keep the worker-count
// independence property of parallel suite replay under its original names.
// Independent simulations run concurrently on pool workers here, which is
// what the TSan job watches.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/artc.h"
#include "src/core/suite.h"
#include "src/sim/schedule.h"
#include "src/util/thread_pool.h"
#include "src/workloads/micro.h"
#include "src/workloads/workload.h"

namespace artc {
namespace {

using core::CompiledBenchmark;
using core::SimReplayResult;
using core::SimTarget;

CompiledBenchmark CompileReaders(uint32_t threads, uint32_t reads) {
  workloads::RandomReaders::Options opt;
  opt.threads = threads;
  opt.reads_per_thread = reads;
  opt.file_bytes = 16ULL << 20;
  workloads::RandomReaders workload(opt);
  workloads::TracedRun run = workloads::TraceWorkload(workload, {});
  return core::Compile(run.trace, run.snapshot, {});
}

void ExpectSameRun(const SimReplayResult& a, const SimReplayResult& b,
                   const std::string& label) {
  EXPECT_EQ(a.sim_end_time, b.sim_end_time) << label;
  EXPECT_EQ(a.sim_switches, b.sim_switches) << label;
  EXPECT_EQ(a.report.wall_time, b.report.wall_time) << label;
  EXPECT_EQ(a.report.failed_events, b.report.failed_events) << label;
  EXPECT_EQ(a.storage.media_read_blocks, b.storage.media_read_blocks) << label;
  EXPECT_EQ(a.storage.cache_hit_blocks, b.storage.cache_hit_blocks) << label;
  ASSERT_EQ(a.report.outcomes.size(), b.report.outcomes.size()) << label;
  for (size_t i = 0; i < a.report.outcomes.size(); ++i) {
    ASSERT_EQ(a.report.outcomes[i].issue, b.report.outcomes[i].issue)
        << label << " action " << i;
    ASSERT_EQ(a.report.outcomes[i].complete, b.report.outcomes[i].complete)
        << label << " action " << i;
  }
}

// Replays `benches` standalone and then as a suite at every pool size,
// requiring element-wise equality.
void ExpectSuiteMatchesStandalone(const std::vector<const CompiledBenchmark*>& benches,
                                  const SimTarget& target) {
  std::vector<SimReplayResult> standalone;
  for (const CompiledBenchmark* bench : benches) {
    standalone.push_back(core::ReplayCompiledOnSimTarget(*bench, target));
  }
  // Two different workloads: a result landing in the wrong slot must show.
  ASSERT_NE(standalone[0].report.outcomes.size(), standalone[1].report.outcomes.size());
  ASSERT_NE(standalone[0].sim_end_time, standalone[1].sim_end_time);

  std::vector<SimReplayResult> serial = core::ReplaySuite(benches, target, nullptr);
  ASSERT_EQ(serial.size(), benches.size());
  for (size_t k = 0; k < benches.size(); ++k) {
    ExpectSameRun(serial[k], standalone[k], "serial, element " + std::to_string(k));
  }
  for (size_t workers : {1u, 2u, 4u}) {
    util::ThreadPool pool(workers);
    std::vector<SimReplayResult> suite = core::ReplaySuite(benches, target, &pool);
    ASSERT_EQ(suite.size(), benches.size());
    for (size_t k = 0; k < benches.size(); ++k) {
      ExpectSameRun(suite[k], standalone[k],
                    "workers=" + std::to_string(workers) + ", element " +
                        std::to_string(k));
    }
  }
}

TEST(SuiteReplay, MatchesStandaloneReplaysAtEveryPoolSize) {
  CompiledBenchmark small = CompileReaders(2, 30);
  CompiledBenchmark wide = CompileReaders(3, 25);
  SimTarget target;
  target.seed = 2026;
  ExpectSuiteMatchesStandalone({&small, &wide, &small, &wide, &wide}, target);
}

TEST(SuiteReplay, MatchesStandaloneUnderRandomSchedule) {
  CompiledBenchmark small = CompileReaders(2, 30);
  CompiledBenchmark wide = CompileReaders(3, 25);
  SimTarget target;
  target.seed = 7;
  target.schedule.kind = sim::ScheduleKind::kRandom;
  target.schedule.seed = 33;
  ExpectSuiteMatchesStandalone({&wide, &small, &small}, target);
}

// Parallel suite replay of identical benchmarks: every element equals the
// one standalone replay, whichever pool worker ran it.
TEST(SimParallel, SuiteShardsMatchStandaloneRuns) {
  CompiledBenchmark bench = CompileReaders(2, 30);
  SimTarget target;
  target.seed = 2026;
  SimReplayResult standalone = core::ReplayCompiledOnSimTarget(bench, target);

  util::ThreadPool pool(2);
  std::vector<SimReplayResult> suite =
      core::ReplaySuite({&bench, &bench, &bench}, target, &pool);
  ASSERT_EQ(suite.size(), 3u);
  for (size_t k = 0; k < suite.size(); ++k) {
    ExpectSameRun(suite[k], standalone, "element " + std::to_string(k));
  }
}

// Host workers only affect wall time, never virtual time: a one-worker
// suite replay and wider pools give identical results element by element.
TEST(SimParallel, SuiteIndependentOfWorkerCount) {
  CompiledBenchmark small = CompileReaders(2, 30);
  CompiledBenchmark wide = CompileReaders(3, 25);
  std::vector<const CompiledBenchmark*> benches = {&small, &wide, &wide, &small};
  SimTarget target;
  target.seed = 555;

  util::ThreadPool one(1);
  std::vector<SimReplayResult> serial = core::ReplaySuite(benches, target, &one);
  ASSERT_EQ(serial.size(), benches.size());
  for (size_t workers : {2u, 4u}) {
    util::ThreadPool pool(workers);
    std::vector<SimReplayResult> par = core::ReplaySuite(benches, target, &pool);
    ASSERT_EQ(par.size(), serial.size());
    for (size_t k = 0; k < par.size(); ++k) {
      ExpectSameRun(par[k], serial[k],
                    "workers=" + std::to_string(workers) + ", element " +
                        std::to_string(k));
    }
  }
}

TEST(SuiteReplay, EmptySuiteReturnsNoResults) {
  util::ThreadPool pool(2);
  EXPECT_TRUE(core::ReplaySuite({}, SimTarget{}, &pool).empty());
  EXPECT_TRUE(core::ReplaySuite({}, SimTarget{}, nullptr).empty());
}

}  // namespace
}  // namespace artc
