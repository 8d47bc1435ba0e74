// Critical-path analyzer tests: hand-crafted compiled graphs with
// engine-consistent synthetic outcomes (chain, diamond, fan-in with a
// dominating name edge) where the exact path is known, plus
// fuzz-generator-corpus invariants — on ANY legal schedule the segments
// must tile [start, end_time] exactly, the attribution buckets must sum
// to the totals, the keep-all what-if must reproduce the actual end time,
// and the drop-all what-if must equal the longest single-thread execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/check/explorer.h"
#include "src/check/generator.h"
#include "src/core/artc.h"
#include "src/core/compiled.h"
#include "src/core/compiler.h"
#include "src/core/report.h"
#include "src/obs/critpath.h"
#include "src/sim/schedule.h"
#include "src/storage/storage_stack.h"
#include "src/workloads/magritte.h"
#include "src/workloads/micro.h"
#include "src/workloads/workload.h"

namespace artc::obs {
namespace {

using core::ActionOutcome;
using core::CompiledBenchmark;
using core::Dep;
using core::DepKind;
using core::ReplayReport;
using core::RuleTag;
using core::kNoDepResource;
using core::kUnattributedSlice;

// ---- Hand-crafted graphs -------------------------------------------------

struct SynthAction {
  uint32_t thread = 0;
  TimeNs exec = 0;
  TimeNs pace = 0;
  std::vector<Dep> deps;
};

CompiledBenchmark BuildBench(uint32_t threads,
                             const std::vector<SynthAction>& spec,
                             std::vector<std::string> res_names = {}) {
  CompiledBenchmark b;
  b.thread_actions.resize(threads);
  b.thread_ids.resize(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    b.thread_ids[t] = 100 + t;
  }
  b.dep_offsets.push_back(0);
  for (uint32_t i = 0; i < spec.size(); ++i) {
    core::CompiledAction a;
    a.thread_index = spec[i].thread;
    b.actions.push_back(a);
    b.events.emplace_back();
    b.thread_actions[spec[i].thread].push_back(i);
    for (const Dep& d : spec[i].deps) {
      b.dep_arena.push_back(d);
    }
    b.dep_offsets.push_back(static_cast<uint32_t>(b.dep_arena.size()));
  }
  b.dep_resource_names = std::move(res_names);
  return b;
}

// Reproduces the engine's virtual-time semantics: a thread's next action
// starts waiting the moment the previous one returns, waits until every
// dependency is satisfied, sleeps its pacing, then executes.
std::vector<ActionOutcome> EngineOutcomes(const CompiledBenchmark& b,
                                          const std::vector<SynthAction>& spec) {
  std::vector<ActionOutcome> out(spec.size());
  std::vector<TimeNs> thread_clock(b.thread_actions.size(), 0);
  for (uint32_t i = 0; i < spec.size(); ++i) {
    ActionOutcome& o = out[i];
    o.wait_start = thread_clock[spec[i].thread];
    TimeNs wait_end = o.wait_start;
    for (const Dep& d : b.DepsFor(i)) {
      const TimeNs satisfy =
          d.kind == DepKind::kIssue ? out[d.event].issue : out[d.event].complete;
      wait_end = std::max(wait_end, satisfy);
    }
    o.dep_stall = wait_end - o.wait_start;
    o.issue = wait_end + spec[i].pace;
    o.complete = o.issue + spec[i].exec;
    o.executed = true;
    thread_clock[spec[i].thread] = o.complete;
  }
  return out;
}

ReplayReport ReportFor(std::vector<ActionOutcome> outcomes) {
  ReplayReport r;
  r.outcomes = std::move(outcomes);
  for (const ActionOutcome& o : r.outcomes) {
    r.wall_time = std::max(r.wall_time, o.complete);
  }
  return r;
}

// The structural invariants every analysis must satisfy, whatever the
// schedule: exact tiling, totals that add up, attribution that adds up,
// and a keep-all what-if that reproduces reality.
void CheckInvariants(const CompiledBenchmark& bench, const ReplayReport& report,
                     const CritPathReport& cp) {
  TimeNs max_complete = 0;
  bool any = false;
  for (const ActionOutcome& o : report.outcomes) {
    if (o.executed) {
      max_complete = std::max(max_complete, o.complete);
      any = true;
    }
  }
  if (!any) {
    EXPECT_TRUE(cp.segments.empty());
    return;
  }
  EXPECT_EQ(cp.end_time, max_complete);

  ASSERT_FALSE(cp.segments.empty());
  EXPECT_EQ(cp.segments.front().begin, cp.start);
  EXPECT_EQ(cp.segments.back().end, cp.end_time);
  TimeNs total = 0;
  for (size_t i = 0; i < cp.segments.size(); ++i) {
    const CritSegment& seg = cp.segments[i];
    EXPECT_LT(seg.begin, seg.end) << "segment " << i;
    if (i > 0) {
      EXPECT_EQ(seg.begin, cp.segments[i - 1].end) << "gap before segment " << i;
    }
    total += seg.Duration();
  }
  EXPECT_EQ(total, cp.end_time - cp.start);
  EXPECT_EQ(cp.exec_ns + cp.stall_ns + cp.pacing_ns + cp.idle_ns,
            cp.end_time - cp.start);

  TimeNs rule_sum = cp.stall_unattributed;
  for (size_t r = 0; r < static_cast<size_t>(RuleTag::kCount); ++r) {
    rule_sum += cp.StallByRule(static_cast<RuleTag>(r));
  }
  EXPECT_EQ(rule_sum, cp.stall_ns);

  TimeNs thread_sum = 0;
  for (const auto& [th, ns] : cp.path_ns_by_thread) {
    EXPECT_LT(th, bench.thread_actions.size());
    thread_sum += ns;
  }
  EXPECT_EQ(thread_sum, cp.exec_ns + cp.stall_ns + cp.pacing_ns);

  // Keep-all reproduces the actual end time exactly; drop-all is the
  // longest single-thread execution (exec + pacing only).
  ASSERT_FALSE(cp.what_ifs.empty());
  EXPECT_EQ(cp.what_ifs.front().name, "baseline");
  EXPECT_EQ(cp.what_ifs.front().end_time, cp.end_time);
  std::vector<TimeNs> busy(bench.thread_actions.size(), 0);
  for (uint32_t i = 0; i < report.outcomes.size(); ++i) {
    const ActionOutcome& o = report.outcomes[i];
    if (o.executed) {
      busy[bench.actions[i].thread_index] +=
          (o.complete - o.issue) + (o.issue - o.wait_start - o.dep_stall);
    }
  }
  const TimeNs longest_thread =
      cp.start + *std::max_element(busy.begin(), busy.end());
  for (const CritPathWhatIf& w : cp.what_ifs) {
    EXPECT_LE(w.end_time, cp.end_time) << w.name;
    EXPECT_GE(w.end_time, longest_thread) << w.name;
    if (w.name == "all_edges_free") {
      EXPECT_EQ(w.end_time, longest_thread);
    }
  }
}

TEST(CritPathSynthetic, SingleThreadChainIsAllExecAndPacing) {
  std::vector<SynthAction> spec(3);
  for (uint32_t i = 0; i < 3; ++i) {
    spec[i].exec = 10 * (i + 1);
    spec[i].pace = 5;
    if (i > 0) {
      spec[i].deps.push_back(
          {i - 1, DepKind::kCompletion, RuleTag::kThreadSeq, kNoDepResource});
    }
  }
  CompiledBenchmark bench = BuildBench(1, spec);
  ReplayReport report = ReportFor(EngineOutcomes(bench, spec));
  CritPathReport cp = AnalyzeCriticalPath(bench, report);
  CheckInvariants(bench, report, cp);

  // Same-thread completion edges never stall: the path is pure work.
  EXPECT_EQ(cp.end_time, 75);
  EXPECT_EQ(cp.exec_ns, 60);
  EXPECT_EQ(cp.pacing_ns, 15);
  EXPECT_EQ(cp.stall_ns, 0);
  EXPECT_EQ(cp.idle_ns, 0);
  EXPECT_TRUE(cp.stall_by_resource.empty());
  ASSERT_EQ(cp.path_ns_by_thread.size(), 1u);
  EXPECT_EQ(cp.path_ns_by_thread[0].first, 0u);
  EXPECT_EQ(cp.path_ns_by_thread[0].second, 75);
}

TEST(CritPathSynthetic, CrossThreadStallAttributedToBlockingEdge) {
  // t0 runs a long action A; t1 runs B then C, where C waits on A through a
  // file_seq edge on "/shared". The path must be A's execution, C's stall
  // behind that edge, then C's execution.
  std::vector<SynthAction> spec(3);
  spec[0] = {.thread = 0, .exec = 100};                 // A
  spec[1] = {.thread = 1, .exec = 10};                  // B
  spec[2] = {.thread = 1, .exec = 5};                   // C
  spec[2].deps.push_back({0, DepKind::kCompletion, RuleTag::kFileSeq, 0});
  CompiledBenchmark bench = BuildBench(2, spec, {"/shared"});
  ReplayReport report = ReportFor(EngineOutcomes(bench, spec));
  CritPathReport cp = AnalyzeCriticalPath(bench, report);
  CheckInvariants(bench, report, cp);

  EXPECT_EQ(cp.end_time, 105);
  ASSERT_EQ(cp.segments.size(), 3u);
  EXPECT_EQ(cp.segments[0].kind, CritSegmentKind::kExec);
  EXPECT_EQ(cp.segments[0].action, 0u);  // A, clamped to [0, 10)
  EXPECT_EQ(cp.segments[1].kind, CritSegmentKind::kStall);
  EXPECT_EQ(cp.segments[1].action, 2u);
  EXPECT_EQ(cp.segments[2].kind, CritSegmentKind::kExec);
  EXPECT_EQ(cp.segments[2].action, 2u);

  EXPECT_EQ(cp.stall_ns, 90);
  EXPECT_EQ(cp.StallByRule(RuleTag::kFileSeq), 90);
  ASSERT_EQ(cp.stall_by_resource.size(), 1u);
  EXPECT_EQ(cp.stall_by_resource[0].first, "/shared");
  EXPECT_EQ(cp.stall_by_resource[0].second, 90);

  // Freeing file_seq unblocks C immediately after B: only A's 100 ns
  // remain. Dropping everything gives the same bound here.
  ASSERT_EQ(cp.what_ifs.size(), 3u);  // baseline, file_seq, all_edges_free
  EXPECT_EQ(cp.what_ifs[0].end_time, 105);
  EXPECT_EQ(cp.what_ifs[1].name, "file_seq");
  EXPECT_EQ(cp.what_ifs[1].end_time, 100);
  EXPECT_EQ(cp.what_ifs[2].name, "all_edges_free");
  EXPECT_EQ(cp.what_ifs[2].end_time, 100);
}

TEST(CritPathSynthetic, FanInHopsToDominatingNameEdge) {
  // C waits on A (path_stage, satisfied at 50) and B (path_name, satisfied
  // at 80). The wait decomposes into one slice per raising edge, and the
  // backward walk hops to B — the edge that actually released C — not to
  // C's own thread predecessor.
  std::vector<SynthAction> spec(4);
  spec[0] = {.thread = 0, .exec = 50};   // A
  spec[1] = {.thread = 2, .exec = 80};   // B
  spec[2] = {.thread = 1, .exec = 20};   // C0, C's predecessor on t1
  spec[3] = {.thread = 1, .exec = 10};   // C
  spec[3].deps.push_back({0, DepKind::kCompletion, RuleTag::kPathStage, 0});
  spec[3].deps.push_back({1, DepKind::kCompletion, RuleTag::kPathName, 1});
  CompiledBenchmark bench =
      BuildBench(3, spec, {"/dir/stage", "/dir/name"});
  ReplayReport report = ReportFor(EngineOutcomes(bench, spec));
  CritPathReport cp = AnalyzeCriticalPath(bench, report);
  CheckInvariants(bench, report, cp);

  EXPECT_EQ(cp.end_time, 90);
  ASSERT_EQ(cp.segments.size(), 4u);
  EXPECT_EQ(cp.segments[0].kind, CritSegmentKind::kExec);
  EXPECT_EQ(cp.segments[0].action, 1u);  // B, clamped to [0, 20)
  EXPECT_EQ(cp.segments[1].kind, CritSegmentKind::kStall);
  EXPECT_EQ(cp.segments[2].kind, CritSegmentKind::kStall);
  EXPECT_EQ(cp.segments[3].kind, CritSegmentKind::kExec);
  EXPECT_EQ(cp.segments[3].action, 3u);

  // [20, 50) is owed to the stage edge, [50, 80) to the name edge.
  EXPECT_EQ(cp.StallByRule(RuleTag::kPathStage), 30);
  EXPECT_EQ(cp.StallByRule(RuleTag::kPathName), 30);
  ASSERT_EQ(cp.stall_by_resource.size(), 2u);
  EXPECT_EQ(cp.stall_by_resource[0].second, 30);
  EXPECT_EQ(cp.stall_by_resource[1].second, 30);

  // Freeing only the name rule leaves the stage edge: C issues at 50 and
  // B's own 80 ns tail bounds the run.
  TimeNs name_free = 0;
  for (const CritPathWhatIf& w : cp.what_ifs) {
    if (w.name == "path_name") {
      name_free = w.end_time;
    }
  }
  EXPECT_EQ(name_free, 80);
}

TEST(CritPathSynthetic, IssueEdgesAttributeSeparatelyFromCompletion) {
  // An issue-kind edge satisfies at the dependency's issue time, and lands
  // in the issue column of the rule x kind table.
  std::vector<SynthAction> spec(2);
  spec[0] = {.thread = 0, .exec = 40, .pace = 20};  // issues at 20
  spec[1] = {.thread = 1, .exec = 50};  // outlives its dependency: ends last
  spec[1].deps.push_back({0, DepKind::kIssue, RuleTag::kTemporal, kNoDepResource});
  CompiledBenchmark bench = BuildBench(2, spec);
  ReplayReport report = ReportFor(EngineOutcomes(bench, spec));
  CritPathReport cp = AnalyzeCriticalPath(bench, report);
  CheckInvariants(bench, report, cp);

  EXPECT_EQ(report.outcomes[1].dep_stall, 20);
  const auto& rk =
      cp.stall_by_rule_kind[static_cast<size_t>(RuleTag::kTemporal)];
  EXPECT_EQ(rk[0], 0);  // no completion-kind stall
  EXPECT_GT(rk[1], 0);  // the wait shows up as issue-kind
}

TEST(CritPathSynthetic, EmptyAndUnexecutedReplaysAreHarmless) {
  CompiledBenchmark empty = BuildBench(1, {});
  ReplayReport none;
  CritPathReport cp = AnalyzeCriticalPath(empty, none);
  EXPECT_TRUE(cp.segments.empty());
  EXPECT_EQ(cp.end_time, 0);

  std::vector<SynthAction> spec(2);
  spec[0] = {.thread = 0, .exec = 10};
  spec[1] = {.thread = 0, .exec = 10};
  CompiledBenchmark bench = BuildBench(1, spec);
  ReplayReport report = ReportFor(EngineOutcomes(bench, spec));
  report.outcomes[1].executed = false;  // simulate a skipped tail
  CritPathReport cp2 = AnalyzeCriticalPath(bench, report);
  CheckInvariants(bench, report, cp2);
  EXPECT_EQ(cp2.end_time, 10);
}

// ---- ComputeStallSlices (the report-side attribution primitive) ----------

TEST(StallSlices, TileTheWaitAndAttributeRaisingEdges) {
  std::vector<SynthAction> spec(4);
  spec[0] = {.thread = 0, .exec = 50};
  spec[1] = {.thread = 2, .exec = 80};
  spec[2] = {.thread = 1, .exec = 20};
  spec[3] = {.thread = 1, .exec = 10};
  spec[3].deps.push_back({0, DepKind::kCompletion, RuleTag::kPathStage, 0});
  spec[3].deps.push_back({1, DepKind::kCompletion, RuleTag::kPathName, 1});
  CompiledBenchmark bench = BuildBench(3, spec, {"/a", "/b"});
  std::vector<ActionOutcome> outcomes = EngineOutcomes(bench, spec);

  std::vector<core::StallSlice> slices;
  core::ComputeStallSlices(bench, 3, outcomes, &slices);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].dep_index, 0u);
  EXPECT_EQ(slices[0].begin, 20);
  EXPECT_EQ(slices[0].end, 50);
  EXPECT_EQ(slices[1].dep_index, 1u);
  EXPECT_EQ(slices[1].begin, 50);
  EXPECT_EQ(slices[1].end, 80);

  // Unstalled actions produce no slices.
  core::ComputeStallSlices(bench, 2, outcomes, &slices);
  EXPECT_TRUE(slices.empty());
}

// ---- Fuzz-corpus invariants under random schedules -----------------------

class CritPathFuzz : public testing::TestWithParam<uint64_t> {};

TEST_P(CritPathFuzz, InvariantsHoldUnderRandomSchedules) {
  check::GenOptions gen;
  gen.seed = GetParam();
  gen.threads = 4;
  gen.ops_per_thread = 20;
  trace::TraceBundle bundle = check::GenerateTrace(gen);
  core::CompileOptions copt;
  CompiledBenchmark bench =
      core::Compile(std::move(bundle.trace), bundle.snapshot, copt);

  core::SimTarget target;
  target.storage = storage::MakeNamedConfig("ssd");
  target.fs_profile = "ext4";

  std::vector<sim::ScheduleSpec> schedules(3);
  schedules[0].kind = sim::ScheduleKind::kDefault;
  schedules[1].kind = sim::ScheduleKind::kRandom;
  schedules[1].seed = GetParam() * 7 + 1;
  schedules[2].kind = sim::ScheduleKind::kPct;
  schedules[2].seed = GetParam() * 7 + 2;

  for (const sim::ScheduleSpec& spec : schedules) {
    auto policy = sim::MakeSchedulePolicy(spec);
    check::PolicyRunResult run =
        check::ReplayCompiledUnderPolicy(bench, target, policy.get());
    CritPathReport cp = AnalyzeCriticalPath(bench, run.report);
    SCOPED_TRACE("schedule " + spec.ToString());
    CheckInvariants(bench, run.report, cp);
    // The analyzer's end matches the replay's reported span.
    EXPECT_EQ(cp.end_time - cp.start, run.report.wall_time);

    // The report-side satellite: per-rule stall + unattributed == total.
    TimeNs rule_sum = run.report.dep_stall_unattributed;
    for (TimeNs v : run.report.dep_stall_by_rule) {
      rule_sum += v;
    }
    EXPECT_EQ(rule_sum, run.report.total_dep_stall);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CritPathFuzz, testing::Values(1, 2, 3, 4));

// ---- Determinism on a multithreaded replay -------------------------------

// Critical-path analysis consumes the replay report and compiled benchmark
// only: running it must not perturb the next replay, and identical replays
// must yield identical stall attributions.
TEST(CritPathDeterminism, IdenticalReplaysGiveIdenticalAttributions) {
  workloads::RandomReaders::Options opt;
  opt.threads = 4;
  opt.reads_per_thread = 60;
  opt.file_bytes = 64ULL << 20;
  workloads::RandomReaders workload(opt);
  workloads::TracedRun run = workloads::TraceWorkload(workload, {});
  CompiledBenchmark bench = core::Compile(run.trace, run.snapshot, {});

  core::SimTarget target;
  target.seed = 999;
  core::SimReplayResult first = core::ReplayCompiledOnSimTarget(bench, target);
  const CritPathReport base = AnalyzeSimReplay(bench, first);
  core::SimReplayResult second = core::ReplayCompiledOnSimTarget(bench, target);
  ASSERT_EQ(first.sim_end_time, second.sim_end_time);
  ASSERT_EQ(first.sim_switches, second.sim_switches);
  ASSERT_EQ(first.report.wall_time, second.report.wall_time);

  const CritPathReport cp = AnalyzeSimReplay(bench, second);
  EXPECT_EQ(base.segments.size(), cp.segments.size());
  EXPECT_EQ(base.end_time, cp.end_time);
  EXPECT_EQ(base.exec_ns, cp.exec_ns);
  EXPECT_EQ(base.stall_ns, cp.stall_ns);
  EXPECT_EQ(base.pacing_ns, cp.pacing_ns);
  EXPECT_EQ(base.stall_unattributed, cp.stall_unattributed);
  EXPECT_EQ(base.stall_by_rule_kind, cp.stall_by_rule_kind);
  EXPECT_EQ(base.stall_by_resource, cp.stall_by_resource);
}

// ---- End-to-end on a Magritte trace (the acceptance scenario) ------------

TEST(CritPathMagritte, AttributionSumsAndReplayUnperturbed) {
  workloads::SourceConfig source;
  source.storage = storage::MakeNamedConfig("ssd");
  source.platform = "osx";
  workloads::TracedRun run =
      workloads::TraceMagritte(workloads::FindMagritteSpec("iphoto_import"), source);
  core::CompileOptions copt;
  copt.method = core::ReplayMethod::kArtc;
  CompiledBenchmark bench =
      core::Compile(std::move(run.trace), run.snapshot, copt);

  core::SimTarget target;  // hdd/ext4 default
  core::SimReplayResult first = core::ReplayCompiledOnSimTarget(bench, target);
  core::SimReplayResult second = core::ReplayCompiledOnSimTarget(bench, target);

  // Analysis is post-hoc: the replay's virtual times are bit-identical
  // whether or not anyone analyzes them.
  ASSERT_EQ(first.report.wall_time, second.report.wall_time);
  ASSERT_EQ(first.sim_end_time, second.sim_end_time);

  CritPathReport cp = AnalyzeSimReplay(bench, second);
  CheckInvariants(bench, second.report, cp);
  EXPECT_EQ(cp.end_time - cp.start, first.report.wall_time);

  // A real HDD replay has storage service on the path, split across layers.
  EXPECT_GT(cp.storage_ns, 0);
  EXPECT_LE(cp.storage_ns, cp.exec_ns);
  EXPECT_EQ(cp.storage_cache_ns + cp.storage_media_read_ns +
                cp.storage_media_write_ns + cp.storage_writeback_ns,
            cp.storage_ns);

  // The attribution one-pager and JSON render without blowing up and carry
  // the rule table.
  EXPECT_NE(cp.OnePager().find("stall by rule"), std::string::npos);
  const std::string json = cp.ToJson();
  EXPECT_NE(json.find("\"stall_by_rule\""), std::string::npos);
  EXPECT_NE(json.find("\"what_ifs\""), std::string::npos);
}

}  // namespace
}  // namespace artc::obs
