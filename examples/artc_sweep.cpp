// artc_sweep: fleet-scale what-if exploration over one traced workload.
// Expands a declarative scenario grid (replay method x fs profile x storage
// hardware x I/O scheduler x cache size x schedule policy x seed x pacing),
// compiles the trace once per replay method, replays every cell on the host
// thread pool, and streams one JSONL row per cell with the virtual end time,
// critical-path stall attribution, and fs-state digest.
// Progress is live on the obs metrics plane (--metrics-port / ARTC_*), and
// any row can be re-run alone, fully instrumented, with --drill.
//
//   artc_sweep --micro=random_readers --grid=grid.txt --out=rows.jsonl
//   artc_sweep --workload=iphoto_import --jobs=8 --report=report.json
//   artc_sweep --micro=random_readers --list           # cell ids, no replays
//   artc_sweep --micro=random_readers --drill=3f2a...  # one cell, one-pager
//
// Grid file format, one axis per line (unset axes keep their defaults):
//   method  = artc, temporal
//   storage = hdd, ssd, raid0
//   cache_mb = 64, 384
//   seed    = 1, 2
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench/bench_common.h"
#include "src/sweep/sweep.h"
#include "src/util/thread_pool.h"
#include "src/workloads/magritte.h"
#include "src/workloads/micro.h"

namespace artc {
namespace {

uint64_t FlagValue(int argc, char** argv, const char* name, uint64_t def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtoull(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return def;
}

std::string StringFlag(int argc, char** argv, const char* name, const char* def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return def;
}

bool BoolFlag(int argc, char** argv, const char* name) {
  std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      return true;
    }
  }
  return false;
}

// Traces the selected workload on its source target. Mirrors
// artc_critpath's sourcing: Magritte workloads on their canonical ssd/osx
// environment, micro workloads on --source storage.
workloads::TracedRun TraceInput(int argc, char** argv, std::string* name) {
  workloads::SourceConfig source;
  source.seed = FlagValue(argc, argv, "seed", 1);
  const std::string micro = StringFlag(argc, argv, "micro", "");
  if (!micro.empty()) {
    source.storage =
        storage::MakeNamedConfig(StringFlag(argc, argv, "source", "ssd"));
    *name = micro;
    if (micro == "seq_readers") {
      workloads::CompetingSequentialReaders w({});
      return workloads::TraceWorkload(w, source);
    }
    if (micro == "random_readers") {
      workloads::RandomReaders w({});
      return workloads::TraceWorkload(w, source);
    }
    std::fprintf(stderr,
                 "unknown --micro=%s (expected seq_readers or random_readers)\n",
                 micro.c_str());
    std::exit(2);
  }
  const std::string workload =
      StringFlag(argc, argv, "workload", "iphoto_import");
  const workloads::MagritteSpec& spec = workloads::FindMagritteSpec(workload);
  source.storage = storage::MakeNamedConfig("ssd");
  source.platform = "osx";
  *name = spec.FullName();
  return workloads::TraceMagritte(spec, source);
}

int Main(int argc, char** argv) {
  std::string error;
  sweep::SweepGrid grid;
  const std::string grid_path = StringFlag(argc, argv, "grid", "");
  if (!grid_path.empty()) {
    if (!sweep::ParseGridFile(grid_path, &grid, &error)) {
      std::fprintf(stderr, "artc_sweep: %s\n", error.c_str());
      return 2;
    }
  } else {
    // Demo grid: enough spread to make the sensitivity table interesting.
    grid.method = {"artc", "temporal"};
    grid.storage = {"hdd", "ssd", "raid0"};
    grid.seed = {1, 2};
  }

  std::string trace_name;
  workloads::TracedRun run = TraceInput(argc, argv, &trace_name);
  sweep::SweepPlan plan;
  if (!sweep::BuildSweepPlan(std::move(run.trace), run.snapshot, grid,
                             trace_name, &plan, &error)) {
    std::fprintf(stderr, "artc_sweep: %s\n", error.c_str());
    return 2;
  }

  if (BoolFlag(argc, argv, "list")) {
    for (const sweep::CellConfig& cell : plan.cells) {
      std::printf("%s  %s\n", cell.Id().c_str(), cell.Echo().c_str());
    }
    return 0;
  }

  const std::string report_path = StringFlag(argc, argv, "report", "");
  const std::string drill = StringFlag(argc, argv, "drill", "");
  if (!drill.empty()) {
    sweep::DrillResult result;
    if (!sweep::DrillCell(plan, drill, &result, &error)) {
      std::fprintf(stderr, "artc_sweep: %s\n", error.c_str());
      return 2;
    }
    std::fputs(result.one_pager.c_str(), stdout);
    std::printf("row: %s\n", result.stats.ToJsonl(false).c_str());
    if (!report_path.empty()) {
      std::ofstream out(report_path);
      if (!out.good()) {
        std::fprintf(stderr, "artc_sweep: cannot write %s\n",
                     report_path.c_str());
        return 1;
      }
      out << result.critpath_json;
      std::printf("wrote %s\n", report_path.c_str());
    }
    return 0;
  }

  sweep::SweepOptions options;
  options.jobs = FlagValue(argc, argv, "jobs", 0);
  options.include_host_time = !BoolFlag(argc, argv, "no-host-ms");
  options.jsonl_path = StringFlag(argc, argv, "out", "");
  sweep::SweepReport report;
  if (!sweep::RunSweep(plan, options, &report, &error)) {
    std::fprintf(stderr, "artc_sweep: %s\n", error.c_str());
    return 1;
  }
  std::fputs(report.OnePager().c_str(), stdout);
  if (!options.jsonl_path.empty()) {
    std::printf("wrote %s (%zu rows)\n", options.jsonl_path.c_str(),
                report.cells);
  }
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out.good()) {
      std::fprintf(stderr, "artc_sweep: cannot write %s\n", report_path.c_str());
      return 1;
    }
    out << report.ToJson();
    std::printf("wrote %s\n", report_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace artc

int main(int argc, char** argv) {
  artc::bench::HarnessObsSession obs_session(argc, argv);
  return artc::Main(argc, argv);
}
