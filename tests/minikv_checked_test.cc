// MiniKv built from its own source with libstdc++'s container assertions
// (see tests/CMakeLists.txt), so misuse of its writer hand-off queue, such
// as reading the front of an empty deque, aborts in every build type instead
// of reading whatever the deque's storage holds.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/simulation.h"
#include "src/storage/storage_stack.h"
#include "src/vfs/vfs.h"
#include "src/workloads/minikv.h"
#include "src/workloads/workload.h"

namespace artc::workloads {
namespace {

// Writers that queue behind a batch writer are taken into its batch and
// wait, with the queue empty, until that batch is applied.
TEST(MiniKvChecked, WritersWaitingOnAnotherBatchSeeAnEmptyQueue) {
  for (uint64_t seed : {1, 3, 7}) {
    sim::Simulation sim(seed);
    storage::StorageStack stack(&sim, storage::MakeNamedConfig("ssd"));
    vfs::Vfs fs(&sim, &stack, vfs::MakeFsProfile("ext4"));
    uint64_t puts = 0;
    sim.Spawn("main", [&] {
      AppContext ctx{&sim, &fs};
      MiniKv::Options opt;
      opt.sync_writes = true;
      MiniKv kv(&ctx, opt);
      kv.Open();
      std::vector<sim::SimThreadId> writers;
      for (int t = 0; t < 6; ++t) {
        writers.push_back(sim.Spawn("w", [&kv, t] {
          for (uint64_t i = 0; i < 20; ++i) {
            kv.Put(static_cast<uint64_t>(t) * 1000 + i);
          }
        }));
      }
      for (auto t : writers) {
        sim.Join(t);
      }
      puts = kv.puts();
      kv.Close();
    });
    sim.Run();
    EXPECT_EQ(puts, 120u) << "seed " << seed;
    EXPECT_EQ(sim.UnfinishedThreads(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace artc::workloads
