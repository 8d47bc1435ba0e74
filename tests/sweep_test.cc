// Sweep engine tests: grid parsing and validation, content-addressed cell
// ids, byte-identical JSONL emission across worker counts, per-cell parity
// with a standalone replay of the same configuration, aggregate
// consistency, and drill-down parity with the sweep row it drills into.
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/explorer.h"
#include "src/obs/obs.h"
#include "src/sweep/grid.h"
#include "src/sweep/sweep.h"
#include "src/workloads/micro.h"

namespace artc::sweep {
namespace {

// A small but genuinely multithreaded input: two readers, enough reads to
// produce non-trivial stalls, tiny enough that a ~dozen-cell sweep runs in
// well under a second.
workloads::TracedRun TraceSmallInput() {
  workloads::RandomReaders::Options opt;
  opt.threads = 2;
  opt.reads_per_thread = 60;
  opt.file_bytes = 8ull << 20;
  workloads::RandomReaders w(opt);
  workloads::SourceConfig source;
  source.storage = storage::MakeNamedConfig("ssd");
  return workloads::TraceWorkload(w, source);
}

SweepGrid SmallGrid() {
  SweepGrid grid;
  grid.method = {"artc", "temporal"};
  grid.storage = {"hdd", "ssd"};
  grid.seed = {1, 2};
  return grid;
}

SweepPlan BuildSmallPlan(SweepGrid grid) {
  workloads::TracedRun run = TraceSmallInput();
  SweepPlan plan;
  std::string error;
  EXPECT_TRUE(BuildSweepPlan(std::move(run.trace), run.snapshot,
                             std::move(grid), "random_readers", &plan, &error))
      << error;
  return plan;
}

std::string SweepToString(const SweepPlan& plan, size_t jobs,
                          size_t max_inflight, SweepReport* report) {
  std::ostringstream rows;
  SweepOptions options;
  options.jobs = jobs;
  options.max_inflight = max_inflight;
  options.include_host_time = false;
  options.jsonl_stream = &rows;
  std::string error;
  EXPECT_TRUE(RunSweep(plan, options, report, &error)) << error;
  return rows.str();
}

TEST(SweepGridTest, ParsesTextAndKeepsDefaults) {
  SweepGrid grid;
  std::string error;
  ASSERT_TRUE(ParseGridText("# comment\n"
                            "method = artc, temporal\n"
                            "storage = hdd, ssd   # trailing comment\n"
                            "cache_mb = 64, 384\n"
                            "seed = 1, 2\n",
                            &grid, &error))
      << error;
  EXPECT_EQ(grid.method, (std::vector<std::string>{"artc", "temporal"}));
  EXPECT_EQ(grid.storage, (std::vector<std::string>{"hdd", "ssd"}));
  EXPECT_EQ(grid.cache_mb, (std::vector<int64_t>{64, 384}));
  EXPECT_TRUE(grid.fs.empty());  // unset until Normalize
  grid.Normalize();
  EXPECT_EQ(grid.fs, (std::vector<std::string>{"ext4"}));
  EXPECT_EQ(grid.CellCount(), 2u * 2 * 2 * 2);
}

TEST(SweepGridTest, RejectsUnknownAxesAndValues) {
  SweepGrid grid;
  std::string error;
  EXPECT_FALSE(ParseGridText("warp_factor = 9\n", &grid, &error));
  EXPECT_NE(error.find("warp_factor"), std::string::npos);

  EXPECT_FALSE(ParseGridText("seed = banana\n", &grid, &error));

  // Vocabulary violations surface as errors from Expand, not aborts.
  SweepGrid bad;
  ASSERT_TRUE(ParseGridText("storage = floppy\n", &bad, &error));
  std::vector<CellConfig> cells;
  EXPECT_FALSE(bad.Expand("t", &cells, &error));
  EXPECT_NE(error.find("floppy"), std::string::npos);

  SweepGrid bad_sched;
  ASSERT_TRUE(ParseGridText("schedule = sometimes\n", &bad_sched, &error));
  EXPECT_FALSE(bad_sched.Expand("t", &cells, &error));

  SweepGrid bad_cache;
  ASSERT_TRUE(ParseGridText("cache_mb = 0\n", &bad_cache, &error));
  EXPECT_FALSE(bad_cache.Expand("t", &cells, &error));

  // The simulation backend is not an axis any more.
  EXPECT_FALSE(ParseGridText("backend = fibers\n", &grid, &error));
  EXPECT_NE(error.find("backend"), std::string::npos);
}

TEST(SweepGridTest, CellIdsAreContentAddressedAndUnique) {
  SweepGrid grid = SmallGrid();
  std::vector<CellConfig> cells;
  std::string error;
  ASSERT_TRUE(grid.Expand("trace_a", &cells, &error)) << error;
  ASSERT_EQ(cells.size(), 8u);

  std::set<std::string> ids;
  for (const CellConfig& cell : cells) {
    EXPECT_EQ(cell.Id().size(), 16u);
    ids.insert(cell.Id());
  }
  EXPECT_EQ(ids.size(), cells.size());  // no collisions in the grid

  // Identity follows content, not grid position: a permuted grid yields the
  // same id set, and growing the grid keeps existing ids valid.
  SweepGrid permuted;
  permuted.method = {"temporal", "artc"};
  permuted.storage = {"ssd", "hdd"};
  permuted.seed = {2, 1};
  std::vector<CellConfig> cells2;
  ASSERT_TRUE(permuted.Expand("trace_a", &cells2, &error));
  std::set<std::string> ids2;
  for (const CellConfig& cell : cells2) {
    ids2.insert(cell.Id());
  }
  EXPECT_EQ(ids, ids2);

  // ...but a different trace name is a different identity.
  CellConfig other = cells[0];
  other.trace_name = "trace_b";
  EXPECT_NE(other.Id(), cells[0].Id());
}

TEST(SweepTest, JsonlRowsAreByteIdenticalAcrossWorkerCounts) {
  SweepPlan plan = BuildSmallPlan(SmallGrid());
  SweepReport r1, r2, r4;
  const std::string rows1 = SweepToString(plan, 1, 0, &r1);
  const std::string rows2 = SweepToString(plan, 2, 0, &r2);
  const std::string rows4 = SweepToString(plan, 4, 0, &r4);
  EXPECT_FALSE(rows1.empty());
  EXPECT_EQ(rows1, rows2);
  EXPECT_EQ(rows1, rows4);

  // A tight backpressure window changes scheduling, not bytes.
  SweepReport rw;
  EXPECT_EQ(rows1, SweepToString(plan, 4, 1, &rw));

  // Aggregates are order-independent too.
  EXPECT_EQ(r1.end_ns_sum, r4.end_ns_sum);
  EXPECT_EQ(r1.stall_ns_sum, r4.stall_ns_sum);
  EXPECT_EQ(r1.cells_digest, r4.cells_digest);
  EXPECT_EQ(r1.failed_cells, r4.failed_cells);
}

TEST(SweepTest, CellsMatchStandaloneReplay) {
  // Every cell's virtual results must be bit-identical to a standalone
  // replay of that configuration.
  SweepGrid grid;
  grid.method = {"artc"};
  grid.storage = {"hdd", "ssd"};
  SweepPlan plan = BuildSmallPlan(std::move(grid));

  SweepReport report;
  SweepToString(plan, 4, 0, &report);
  ASSERT_EQ(report.stats.size(), plan.cells.size());

  for (const CellStats& stats : report.stats) {
    const CellConfig& cell = plan.cells[stats.index];
    trace::FsSnapshot final_state;
    const core::SimReplayResult standalone = core::ReplayCompiledOnSimTarget(
        plan.BenchFor(cell), cell.MakeTarget(), &final_state);
    EXPECT_EQ(stats.end_ns, standalone.report.wall_time) << cell.Echo();
    EXPECT_EQ(stats.sim_end_ns, standalone.sim_end_time) << cell.Echo();
    EXPECT_EQ(stats.sim_switches, standalone.sim_switches) << cell.Echo();
    EXPECT_EQ(stats.digest, check::SnapshotDigest(final_state)) << cell.Echo();
  }
}

// The combined digest must not be vacuous. Storage never changes the final
// fs state, so hdd and ssd cells share a digest; an XOR of the two would
// read 0, and an exact gate on it could never fail.
TEST(SweepTest, CellsDigestDoesNotCancelAndTracksEveryCell) {
  SweepGrid grid;
  grid.method = {"artc"};
  grid.storage = {"hdd", "ssd"};
  SweepPlan plan = BuildSmallPlan(std::move(grid));
  SweepReport report;
  SweepToString(plan, 2, 0, &report);
  ASSERT_EQ(report.stats.size(), 2u);
  ASSERT_EQ(report.stats[0].digest, report.stats[1].digest);

  EXPECT_NE(report.cells_digest, 0u);
  EXPECT_EQ(report.cells_digest, CombineCellDigests(report.stats));

  std::vector<CellStats> changed = report.stats;
  changed[1].digest ^= 1;
  EXPECT_NE(CombineCellDigests(changed), report.cells_digest);

  std::vector<CellStats> reversed(report.stats.rbegin(), report.stats.rend());
  EXPECT_EQ(CombineCellDigests(reversed), report.cells_digest);
}

TEST(SweepTest, AggregatesAndExtremesAreConsistentWithRows) {
  SweepPlan plan = BuildSmallPlan(SmallGrid());
  SweepReport report;
  SweepToString(plan, 2, 0, &report);

  TimeNs end_sum = 0;
  TimeNs stall_sum = 0;
  for (const CellStats& stats : report.stats) {
    end_sum += stats.end_ns;
    stall_sum += stats.stall_ns;
    // Tiling invariant surfaces distilled: exec+stall+pacing+idle == end.
    EXPECT_EQ(stats.exec_ns + stats.stall_ns + stats.pacing_ns + stats.idle_ns,
              stats.end_ns);
  }
  EXPECT_EQ(report.end_ns_sum, end_sum);
  EXPECT_EQ(report.stall_ns_sum, stall_sum);
  EXPECT_EQ(report.cells_digest, CombineCellDigests(report.stats));
  EXPECT_EQ(report.cells, plan.cells.size());

  for (const CellStats& stats : report.stats) {
    EXPECT_LE(report.stats[report.best_cell].end_ns, stats.end_ns);
    EXPECT_GE(report.stats[report.worst_cell].end_ns, stats.end_ns);
  }

  // Axes: method, storage, and seed vary; fs etc. do not.
  std::set<std::string> axis_names;
  for (const AxisAgg& axis : report.axes) {
    axis_names.insert(axis.axis);
    size_t cells = 0;
    for (const AxisValueAgg& v : axis.values) {
      cells += v.cells;
    }
    EXPECT_EQ(cells, report.cells);
  }
  EXPECT_EQ(axis_names, (std::set<std::string>{"method", "storage", "seed"}));

  // Report JSON and pager render without issue and carry the cell count.
  EXPECT_NE(report.ToJson().find("\"cells\":8"), std::string::npos);
  EXPECT_NE(report.OnePager().find("8 cells"), std::string::npos);
}

TEST(SweepTest, ProgressGaugesResetAcrossSweepsInOneProcess) {
  // Regression: the progress gauges live in the process-global registry and
  // survive between sweeps. Each RunSweep must rewind them to its own grid
  // rather than accumulate on top of the previous sweep (cells_total
  // summing both grids, progress_permille ending at 2000).
  SweepPlan eight = BuildSmallPlan(SmallGrid());
  SweepGrid two_grid;
  two_grid.storage = {"hdd", "ssd"};
  SweepPlan two = BuildSmallPlan(std::move(two_grid));

  SweepReport report;
  SweepToString(eight, 2, 0, &report);
  std::map<std::string, int64_t> gauges =
      obs::DefaultRegistry().Snapshot().gauges;
  EXPECT_EQ(gauges["sweep.cells_total"], 8);
  EXPECT_EQ(gauges["sweep.progress_permille"], 1000);
  EXPECT_EQ(gauges["sweep.cells_inflight"], 0);

  SweepToString(two, 2, 0, &report);
  gauges = obs::DefaultRegistry().Snapshot().gauges;
  EXPECT_EQ(gauges["sweep.cells_total"], 2);
  EXPECT_EQ(gauges["sweep.progress_permille"], 1000);
  EXPECT_EQ(gauges["sweep.cells_inflight"], 0);
}

TEST(SweepTest, DrillReproducesTheSweptCellExactly) {
  SweepPlan plan = BuildSmallPlan(SmallGrid());
  SweepReport report;
  SweepToString(plan, 2, 0, &report);

  const CellStats& target = report.stats[3];
  DrillResult drill;
  std::string error;
  ASSERT_TRUE(DrillCell(plan, target.id, &drill, &error)) << error;
  // The drilled replay is bit-identical to the swept one: the whole
  // host-time-free row matches byte for byte.
  EXPECT_EQ(drill.stats.ToJsonl(false), target.ToJsonl(false));
  EXPECT_NE(drill.one_pager.find(target.id), std::string::npos);
  EXPECT_FALSE(drill.critpath_json.empty());

  // Prefix match works; ambiguous and unknown prefixes are errors.
  ASSERT_TRUE(DrillCell(plan, target.id.substr(0, 6), &drill, &error));
  EXPECT_EQ(drill.stats.id, target.id);
  EXPECT_FALSE(DrillCell(plan, "", &drill, &error));
  EXPECT_FALSE(DrillCell(plan, "zzzz", &drill, &error));
}

}  // namespace
}  // namespace artc::sweep
