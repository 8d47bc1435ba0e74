#include "src/core/suite.h"

#include <functional>

#include "src/util/check.h"

namespace artc::core {
namespace {

// Runs fn(0..n-1) on `pool`, or serially on the calling thread when null.
void MapIndices(util::ThreadPool* pool, size_t n,
                const std::function<void(size_t)>& fn) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  util::ParallelFor(*pool, n, fn);
}

}  // namespace

std::vector<CompiledBenchmark> CompileSuite(const std::vector<CompileJob>& jobs,
                                            util::ThreadPool* pool) {
  std::vector<CompiledBenchmark> out(jobs.size());
  for (const CompileJob& job : jobs) {
    ARTC_CHECK_MSG(job.trace != nullptr && job.snapshot != nullptr,
                   "CompileSuite job missing trace or snapshot");
  }
  MapIndices(pool, jobs.size(), [&](size_t i) {
    out[i] = Compile(*jobs[i].trace, *jobs[i].snapshot, jobs[i].options);
  });
  return out;
}

std::vector<SimReplayResult> ReplaySuite(
    const std::vector<const CompiledBenchmark*>& benches, const SimTarget& target,
    util::ThreadPool* pool) {
  std::vector<SimReplayResult> out(benches.size());
  MapIndices(pool, benches.size(), [&](size_t i) {
    out[i] = ReplayCompiledOnSimTarget(*benches[i], target);
  });
  return out;
}

}  // namespace artc::core
