// Differential test for the two Simulation context-switch backends: the
// fiber backend (default) and the host-thread token-passing backend must
// produce bit-identical schedules for the same seed — same virtual end
// time, same switch count, same side-effect order, same replay reports. The
// scheduler (ready list, RNG, event queue) is shared between backends, so
// any divergence means the context-switch layer leaked into scheduling.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/check/generator.h"
#include "src/core/artc.h"
#include "src/obs/critpath.h"
#include "src/sim/schedule.h"
#include "src/sim/simulation.h"
#include "src/workloads/micro.h"
#include "src/workloads/workload.h"

namespace artc {
namespace {

using core::SimReplayResult;
using core::SimTarget;
using sim::SimBackend;
using sim::SimCondVar;
using sim::SimMutex;
using sim::Simulation;

constexpr SimBackend kAllBackends[] = {SimBackend::kFibers, SimBackend::kThreads};

// A deliberately messy program exercising every scheduling primitive:
// seeded ready-list picks, sleeps, condvars (NotifyOne's RNG choice),
// mutex contention, spawn-from-thread, join, callbacks and cancellation.
struct ChaosResult {
  TimeNs end_time = 0;
  uint64_t switches = 0;
  std::vector<int> order;

  bool operator==(const ChaosResult& o) const {
    return end_time == o.end_time && switches == o.switches && order == o.order;
  }
};

ChaosResult RunChaos(uint64_t seed, SimBackend backend) {
  Simulation sim(seed, backend);
  ChaosResult r;
  SimCondVar cv(&sim);
  SimMutex mu(&sim);
  bool go = false;
  for (int i = 0; i < 6; ++i) {
    sim.Spawn("waiter", [&, i] {
      while (!go) {
        cv.Wait();
      }
      sim.Sleep(Us(10 + i));
      mu.Lock();
      sim.Sleep(Us(50));
      r.order.push_back(i);
      mu.Unlock();
    });
  }
  sim.Spawn("spawner", [&] {
    sim.Sleep(Us(5));
    sim::SimThreadId child = sim.Spawn("child", [&] {
      sim.Sleep(Us(7));
      r.order.push_back(100);
    });
    sim.Join(child);
    go = true;
    cv.NotifyAll();
    for (int k = 0; k < 3; ++k) {
      sim.Sleep(Us(20));
      cv.NotifyOne();  // no waiters most of the time; consumes no RNG then
      r.order.push_back(200 + k);
    }
  });
  uint64_t cancelled = sim.ScheduleCallback(Ms(1), [&] { r.order.push_back(-1); });
  sim.ScheduleCallback(Us(3), [&] {
    r.order.push_back(300);
    sim.CancelCallback(cancelled);
    sim.ScheduleCallback(sim.Now() + Us(1), [&] { r.order.push_back(301); });
  });
  r.end_time = sim.Run();
  r.switches = sim.switch_count();
  return r;
}

TEST(SimBackendParity, ChaosProgramIdenticalAcrossBackends) {
  for (uint64_t seed : {1ull, 7ull, 42ull, 20260806ull}) {
    ChaosResult fibers = RunChaos(seed, SimBackend::kFibers);
    ChaosResult threads = RunChaos(seed, SimBackend::kThreads);
    EXPECT_EQ(fibers, threads) << "seed " << seed;
    EXPECT_FALSE(fibers.order.empty());
  }
}

TEST(SimBackendParity, DeterministicWithinEachBackend) {
  for (SimBackend backend : kAllBackends) {
    EXPECT_EQ(RunChaos(9, backend), RunChaos(9, backend));
  }
}

TEST(SimBackendParity, DeadlockUnwindsCleanlyOnAllBackends) {
  for (SimBackend backend : kAllBackends) {
    auto sim = std::make_unique<Simulation>(1, backend);
    SimCondVar cv(sim.get());
    sim->Spawn("stuck", [&] { cv.Wait(); });
    sim->Run();
    EXPECT_EQ(sim->UnfinishedThreads(), 1u);
    sim.reset();  // must unwind the blocked thread and free its stack
  }
}

core::CompiledBenchmark CompileParityBench() {
  workloads::RandomReaders::Options opt;
  opt.threads = 4;
  opt.reads_per_thread = 60;
  opt.file_bytes = 64ULL << 20;
  workloads::RandomReaders workload(opt);
  workloads::TracedRun run = workloads::TraceWorkload(workload, {});
  return core::Compile(run.trace, run.snapshot, {});
}

void ExpectIdenticalReplays(const SimReplayResult& a, const SimReplayResult& b,
                            const char* label) {
  EXPECT_EQ(a.sim_end_time, b.sim_end_time) << label;
  EXPECT_EQ(a.sim_switches, b.sim_switches) << label;
  EXPECT_EQ(a.report.wall_time, b.report.wall_time) << label;
  EXPECT_EQ(a.report.total_events, b.report.total_events) << label;
  EXPECT_EQ(a.report.failed_events, b.report.failed_events) << label;
  EXPECT_EQ(a.report.total_dep_stall, b.report.total_dep_stall) << label;
  ASSERT_EQ(a.report.outcomes.size(), b.report.outcomes.size()) << label;
  for (size_t i = 0; i < a.report.outcomes.size(); ++i) {
    const core::ActionOutcome& x = a.report.outcomes[i];
    const core::ActionOutcome& y = b.report.outcomes[i];
    ASSERT_EQ(x.issue, y.issue) << label << " action " << i;
    ASSERT_EQ(x.complete, y.complete) << label << " action " << i;
    ASSERT_EQ(x.ret, y.ret) << label << " action " << i;
  }
}

// Full pipeline: trace a multithreaded workload once, replay the compiled
// benchmark on both backends, and require identical reports down to
// the per-action timestamps — also under the exploration schedule policies
// (random / PCT), which consume extra RNG at every choice point and so
// catch any backend that perturbs choice-point order.
TEST(SimBackendParity, ReplayReportsIdenticalAcrossBackends) {
  core::CompiledBenchmark bench = CompileParityBench();
  ASSERT_GT(bench.actions.size(), 200u);

  sim::ScheduleSpec random_spec;
  random_spec.kind = sim::ScheduleKind::kRandom;
  random_spec.seed = 77;
  sim::ScheduleSpec pct_spec;
  pct_spec.kind = sim::ScheduleKind::kPct;
  pct_spec.seed = 77;
  pct_spec.pct_change_points = 5;
  pct_spec.pct_horizon = 4000;
  for (const sim::ScheduleSpec& spec :
       {sim::ScheduleSpec{}, random_spec, pct_spec}) {
    const std::string schedule_name = spec.ToString();
    const char* schedule = schedule_name.c_str();
    SimTarget target;
    target.seed = 12345;
    target.schedule = spec;
    target.sim_backend = SimBackend::kFibers;
    SimReplayResult fibers = core::ReplayCompiledOnSimTarget(bench, target);
    target.sim_backend = SimBackend::kThreads;
    SimReplayResult threads = core::ReplayCompiledOnSimTarget(bench, target);

    ExpectIdenticalReplays(fibers, threads, schedule);
    EXPECT_GT(fibers.sim_switches, 0u);
  }
}

// Sync-heavy traces — mutex handoffs, barrier phases, condvar wakeups and
// thread joins, compiled into mutex/barrier/cond/join completion deps —
// replay blocked waits as ordinary dep stalls, so their reports must be
// just as bit-identical across backends as plain fs traces.
TEST(SimBackendParity, SyncTraceReplayIdenticalAcrossBackends) {
  check::GenOptions gen;
  gen.seed = 4242;
  gen.threads = 4;
  gen.ops_per_thread = 24;
  gen.sync = true;
  trace::TraceBundle bundle = check::GenerateTrace(gen);
  uint64_t sync_events = 0;
  for (const trace::TraceEvent& ev : bundle.trace.events) {
    switch (ev.call) {
      case trace::Sys::kMutexLock:
      case trace::Sys::kMutexUnlock:
      case trace::Sys::kBarrierInit:
      case trace::Sys::kBarrierWait:
      case trace::Sys::kCondWait:
      case trace::Sys::kCondSignal:
      case trace::Sys::kCondBroadcast:
      case trace::Sys::kThreadJoin:
        sync_events++;
        break;
      default:
        break;
    }
  }
  ASSERT_GT(sync_events, 20u) << "generator produced no sync workload";
  core::CompiledBenchmark bench = core::Compile(bundle.trace, bundle.snapshot, {});

  sim::ScheduleSpec random_spec;
  random_spec.kind = sim::ScheduleKind::kRandom;
  random_spec.seed = 31;
  for (const sim::ScheduleSpec& spec : {sim::ScheduleSpec{}, random_spec}) {
    const std::string schedule_name = spec.ToString();
    SimTarget target;
    target.seed = 777;
    target.schedule = spec;
    target.sim_backend = SimBackend::kFibers;
    SimReplayResult fibers = core::ReplayCompiledOnSimTarget(bench, target);
    target.sim_backend = SimBackend::kThreads;
    SimReplayResult threads = core::ReplayCompiledOnSimTarget(bench, target);
    ExpectIdenticalReplays(fibers, threads, schedule_name.c_str());
  }
}

// Critical-path analysis consumes the replay report + compiled benchmark
// only, so identical replays must yield identical stall attributions on
// every backend (and turning the analyzer on must not perturb the replay).
TEST(SimBackendParity, CritPathIdenticalAcrossBackends) {
  core::CompiledBenchmark bench = CompileParityBench();

  SimTarget target;
  target.seed = 999;
  target.sim_backend = SimBackend::kFibers;
  SimReplayResult fibers = core::ReplayCompiledOnSimTarget(bench, target);
  obs::CritPathReport base = obs::AnalyzeSimReplay(bench, fibers);

  target.sim_backend = SimBackend::kThreads;
  SimReplayResult threads = core::ReplayCompiledOnSimTarget(bench, target);
  obs::CritPathReport cp = obs::AnalyzeSimReplay(bench, threads);
  EXPECT_EQ(base.segments.size(), cp.segments.size());
  EXPECT_EQ(base.end_time, cp.end_time);
  EXPECT_EQ(base.exec_ns, cp.exec_ns);
  EXPECT_EQ(base.stall_ns, cp.stall_ns);
  EXPECT_EQ(base.pacing_ns, cp.pacing_ns);
  EXPECT_EQ(base.stall_unattributed, cp.stall_unattributed);
  for (size_t i = 0; i < base.stall_by_rule_kind.size(); ++i) {
    EXPECT_EQ(base.stall_by_rule_kind[i], cp.stall_by_rule_kind[i])
        << "rule " << i;
  }
  EXPECT_EQ(base.stall_by_resource, cp.stall_by_resource);
}

}  // namespace
}  // namespace artc
