#include "src/core/artc.h"

#include <memory>

#include "src/core/sim_env.h"
#include "src/obs/obs.h"
#include "src/sim/simulation.h"

namespace artc::core {

SimReplayResult ReplayCompiledOnSimTarget(const CompiledBenchmark& bench,
                                          const SimTarget& target,
                                          trace::FsSnapshot* final_state) {
  if (target.obs) {
    obs::Enable();
  }
  sim::Simulation sim(target.seed);
  std::unique_ptr<sim::SchedulePolicy> policy = sim::MakeSchedulePolicy(target.schedule);
  sim.SetSchedulePolicy(policy.get());
  storage::StorageStack stack(&sim, target.storage);
  vfs::Vfs fs(&sim, &stack, vfs::MakeFsProfile(target.fs_profile),
              vfs::MakePlatformProfile(target.platform));
  SimReplayEnv env(&sim, &fs, target.emulation);

  SimReplayResult result;
  result.edge_stats = bench.edge_stats;
  result.model_warnings = bench.model_warnings;

  // Initialization runs inside the simulation but its (virtual) cost is not
  // charged to the replay: the engine measures from its own start time.
  sim::SimThreadId init = sim.Spawn("init", [&] {
    env.Initialize(bench.snapshot, target.delta_init);
  });
  sim.Spawn("harness", [&] {
    sim.Join(init);
    if (target.drop_caches_after_init) {
      stack.DropCaches();
    }
    result.report = Replay(bench, env, target.replay);
    if (final_state != nullptr) {
      // Pure tree walk: consumes no virtual time, so capture cannot perturb
      // the replay results it rides along with.
      *final_state = fs.CaptureSnapshot();
    }
  });
  result.sim_end_time = sim.Run();
  result.sim_switches = sim.switch_count();
  result.storage = stack.Counters();
  return result;
}

SimReplayResult ReplayCompiledOnSimTarget(const CompiledBenchmark& bench,
                                          const SimTarget& target) {
  return ReplayCompiledOnSimTarget(bench, target, nullptr);
}

MultiReplayResult ReplayConcurrentlyOnSimTarget(
    const std::vector<const CompiledBenchmark*>& benches, const SimTarget& target) {
  if (target.obs) {
    obs::Enable();
  }
  sim::Simulation sim(target.seed);
  std::unique_ptr<sim::SchedulePolicy> policy = sim::MakeSchedulePolicy(target.schedule);
  sim.SetSchedulePolicy(policy.get());
  storage::StorageStack stack(&sim, target.storage);
  vfs::Vfs fs(&sim, &stack, vfs::MakeFsProfile(target.fs_profile),
              vfs::MakePlatformProfile(target.platform));
  SimReplayEnv env(&sim, &fs, target.emulation);

  MultiReplayResult result;
  result.reports.resize(benches.size());

  // Overlay every snapshot into one tree before any replay starts.
  trace::FsSnapshot merged;
  for (const CompiledBenchmark* bench : benches) {
    merged = merged.Overlay(bench->snapshot);
  }
  sim::SimThreadId init = sim.Spawn("init", [&] { env.Initialize(merged); });
  TimeNs start = 0;
  TimeNs end = 0;
  sim.Spawn("harness", [&] {
    sim.Join(init);
    if (target.drop_caches_after_init) {
      stack.DropCaches();
    }
    start = sim.Now();
    // Launch one runner per benchmark; each spawns its own replay threads.
    std::vector<sim::SimThreadId> runners;
    runners.reserve(benches.size());
    for (size_t i = 0; i < benches.size(); ++i) {
      runners.push_back(sim.Spawn("replay-bench", [&, i] {
        result.reports[i] = Replay(*benches[i], env, target.replay);
      }));
    }
    for (sim::SimThreadId runner : runners) {
      sim.Join(runner);
    }
    end = sim.Now();
  });
  sim.Run();
  result.wall_time = end - start;
  return result;
}

SimReplayResult ReplayOnSimTarget(const trace::Trace& t,
                                  const trace::FsSnapshot& snapshot,
                                  const CompileOptions& options,
                                  const SimTarget& target) {
  CompiledBenchmark bench = Compile(t, snapshot, options);
  return ReplayCompiledOnSimTarget(bench, target);
}

}  // namespace artc::core
