// Suite-level compile and replay: many independent jobs mapped over a host
// thread pool. Each job shares no mutable state with the others, so both
// are straight data-parallel maps — the building blocks the bench harnesses
// use to turn a 34-workload Magritte sweep into one ThreadPool dispatch
// instead of a serial loop.
#ifndef SRC_CORE_SUITE_H_
#define SRC_CORE_SUITE_H_

#include <vector>

#include "src/core/artc.h"
#include "src/core/compiled.h"
#include "src/core/compiler.h"
#include "src/trace/event.h"
#include "src/trace/snapshot.h"
#include "src/util/thread_pool.h"

namespace artc::core {

// One compilation unit of a suite. The trace and snapshot are borrowed;
// they must outlive the CompileSuite call.
struct CompileJob {
  const trace::Trace* trace = nullptr;
  const trace::FsSnapshot* snapshot = nullptr;
  CompileOptions options;
};

// Compiles every job on `pool` (ParallelFor) and returns the benchmarks in
// job order. A null pool compiles serially on the calling thread — same
// results, no host threads. Results are positionally stable regardless of
// worker count or completion order.
std::vector<CompiledBenchmark> CompileSuite(const std::vector<CompileJob>& jobs,
                                            util::ThreadPool* pool);

// Replays every benchmark on `target`, each as its own standalone
// simulation on a pool worker: element k is exactly
// ReplayCompiledOnSimTarget(*benches[k], target). Same null-pool and
// input-order contract as CompileSuite.
std::vector<SimReplayResult> ReplaySuite(
    const std::vector<const CompiledBenchmark*>& benches, const SimTarget& target,
    util::ThreadPool* pool);

}  // namespace artc::core

#endif  // SRC_CORE_SUITE_H_
