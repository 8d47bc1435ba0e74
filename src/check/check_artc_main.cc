// check_artc: schedule-space fuzzing harness for the ROOT ordering rules.
//
// Two modes:
//  * Fuzz (default): generate --iters random traces (src/check/generator),
//    compile each, and explore it under many legal schedules
//    (src/check/explorer), asserting the invariant oracle on every run.
//  * Corpus (--corpus=FILE|DIR): explore pre-recorded trace bundles instead
//    of generating fresh ones; used by the regression suite.
//
// On a violation the explorer dumps a minimized repro under --out; re-run it
// with: check_artc --corpus=<repro.trace> --schedule=<spec from repro.txt>.
// Exits nonzero iff any invariant was violated.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/check/explorer.h"
#include "src/check/generator.h"
#include "src/obs/log.h"
#include "src/obs/obs.h"
#include "src/trace/trace_io.h"
#include "src/util/strings.h"

namespace artc::check {
namespace {

uint64_t FlagValue(int argc, char** argv, const char* name, uint64_t def) {
  std::string prefix = StrFormat("--%s=", name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtoull(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return def;
}

std::string StringFlag(int argc, char** argv, const char* name, const char* def) {
  std::string prefix = StrFormat("--%s=", name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return def;
}

struct Totals {
  uint64_t traces = 0;
  uint64_t schedules = 0;
  uint64_t violations = 0;
  uint64_t hb_edges = 0;
};

void ReportExploration(const std::string& name, const ExploreResult& r, Totals* totals) {
  totals->traces++;
  totals->schedules += r.schedules_run;
  totals->violations += r.violations;
  totals->hb_edges += r.hb_edges;
  if (r.ok()) {
    return;
  }
  std::printf("FAIL %s: %llu violations over %llu schedules\n", name.c_str(),
              static_cast<unsigned long long>(r.violations),
              static_cast<unsigned long long>(r.schedules_run));
  for (const std::string& p : r.problems) {
    std::printf("  %s\n", p.c_str());
  }
  if (!r.repro_path.empty()) {
    std::printf("  repro: %s\n", r.repro_path.c_str());
  }
}

int Main(int argc, char** argv) {
  obs::SessionOptions obs_opts;
  obs_opts.metrics_port =
      static_cast<int>(FlagValue(argc, argv, "metrics-port",
                                 static_cast<uint64_t>(-1)));
  obs::ScopedObsSession obs_session(obs_opts);
  const uint64_t iters = FlagValue(argc, argv, "iters", 20);
  const uint64_t seed = FlagValue(argc, argv, "seed", 1);
  const uint64_t threads = FlagValue(argc, argv, "threads", 4);
  const uint64_t ops = FlagValue(argc, argv, "ops", 24);
  const bool sync = FlagValue(argc, argv, "sync", 0) != 0;
  const uint64_t sync_mutexes = FlagValue(argc, argv, "sync-mutexes", 2);
  const uint64_t barrier_phases = FlagValue(argc, argv, "barrier-phases", 2);
  const uint64_t cond_items = FlagValue(argc, argv, "cond-items", 4);
  const std::string corpus = StringFlag(argc, argv, "corpus", "");
  const std::string out_dir = StringFlag(argc, argv, "out", "check_repros");
  const std::string schedule = StringFlag(argc, argv, "schedule", "");
  const std::string emit = StringFlag(argc, argv, "emit", "");

  ExploreOptions opt;
  opt.random_schedules = static_cast<uint32_t>(FlagValue(argc, argv, "schedules", 8));
  opt.pct_schedules = static_cast<uint32_t>(FlagValue(argc, argv, "pct", 4));
  opt.exhaustive_preemption_bound =
      static_cast<uint32_t>(FlagValue(argc, argv, "preemptions", 0));
  opt.exhaustive_budget = static_cast<uint32_t>(FlagValue(argc, argv, "budget", 64));
  opt.repro_dir = out_dir;
  opt.repro_obs_trace = FlagValue(argc, argv, "obs-repro", 0) != 0;
  opt.target.storage = storage::MakeNamedConfig(StringFlag(argc, argv, "storage", "ssd"));

  sim::ScheduleSpec repro_spec;
  if (!schedule.empty() && !sim::ParseScheduleSpec(schedule, &repro_spec)) {
    obs::LogError("check_artc", "unparsable --schedule value",
                  {{"schedule", schedule}});
    return 2;
  }

  // Repro mode: run the default baseline plus exactly the named schedule.
  auto run_single = [&](const trace::TraceBundle& bundle, const std::string& name,
                        Totals* t) {
    RefModel model = BuildRefModel(bundle);
    core::CompiledBenchmark bench =
        core::Compile(bundle.trace, bundle.snapshot, opt.compile);
    PolicyRunResult base = ReplayCompiledUnderPolicy(bench, opt.target, nullptr);
    std::unique_ptr<sim::SchedulePolicy> policy = sim::MakeSchedulePolicy(repro_spec);
    PolicyRunResult run = ReplayCompiledUnderPolicy(bench, opt.target, policy.get());
    OracleFindings findings = CheckSchedule(model, bundle.trace, run.report);
    uint64_t violations = findings.hb_violations + findings.ret_mismatches +
                          findings.unexecuted;
    if (run.unfinished_threads > 0 || run.digest != base.digest) {
      violations++;
    }
    t->traces++;
    t->schedules += 2;
    t->hb_edges += model.edges.size();
    t->violations += violations;
    std::printf("%s %s under %s: %llu violations, digest %016llx (baseline %016llx)\n",
                violations == 0 ? "OK  " : "FAIL", name.c_str(), schedule.c_str(),
                static_cast<unsigned long long>(violations),
                static_cast<unsigned long long>(run.digest),
                static_cast<unsigned long long>(base.digest));
    if (!findings.first_violation.empty()) {
      std::printf("  %s\n", findings.first_violation.c_str());
    }
  };

  Totals totals;
  if (!corpus.empty()) {
    std::vector<std::string> paths;
    if (std::filesystem::is_directory(corpus)) {
      for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
        if (entry.path().extension() == ".trace") {
          paths.push_back(entry.path().string());
        }
      }
      std::sort(paths.begin(), paths.end());
    } else {
      paths.push_back(corpus);
    }
    for (const std::string& path : paths) {
      trace::TraceBundle bundle = trace::ReadTraceBundleFile(path);
      if (!schedule.empty()) {
        run_single(bundle, path, &totals);
        continue;
      }
      ExploreOptions o = opt;
      o.seed = seed;
      ReportExploration(path, ExploreBundle(bundle, o), &totals);
    }
  } else {
    for (uint64_t i = 0; i < iters; ++i) {
      GenOptions gen;
      gen.seed = seed + i;
      gen.threads = static_cast<uint32_t>(threads);
      gen.ops_per_thread = static_cast<uint32_t>(ops);
      gen.sync = sync;
      gen.sync_mutexes = static_cast<uint32_t>(sync_mutexes);
      gen.barrier_phases = static_cast<uint32_t>(barrier_phases);
      gen.cond_items = static_cast<uint32_t>(cond_items);
      trace::TraceBundle bundle = GenerateTrace(gen);
      if (!emit.empty()) {
        // Corpus refresh: save the generated bundle before exploring it.
        std::filesystem::create_directories(emit);
        trace::WriteTraceBundleFile(
            bundle, StrFormat("%s/gen_seed%llu.trace", emit.c_str(),
                              static_cast<unsigned long long>(gen.seed)));
      }
      ExploreOptions o = opt;
      o.seed = seed + i;
      o.repro_dir = StrFormat("%s/iter%llu", out_dir.c_str(),
                              static_cast<unsigned long long>(i));
      ReportExploration(StrFormat("fuzz[seed=%llu]",
                                  static_cast<unsigned long long>(gen.seed)),
                        ExploreBundle(bundle, o), &totals);
    }
  }

  std::printf(
      "{\"traces\": %llu, \"schedules\": %llu, \"hb_edges\": %llu, \"violations\": %llu}\n",
      static_cast<unsigned long long>(totals.traces),
      static_cast<unsigned long long>(totals.schedules),
      static_cast<unsigned long long>(totals.hb_edges),
      static_cast<unsigned long long>(totals.violations));
  return totals.violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace artc::check

int main(int argc, char** argv) {
  return artc::check::Main(argc, argv);
}
