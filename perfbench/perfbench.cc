// perfbench: the end-to-end trace -> replay benchmark.
//
//   perfbench setup --workload W --seed S --dir D
//       Generates workload W's traces from seed S and writes them to D.
//   perfbench run --dir D --seconds N [--trace] [--spans FILE]
//       Runs every trace file in D through the user pipeline
//       (parse -> annotate -> compile -> replay on the simulated stack ->
//       critical path, plus the out-of-core stream compile of the same
//       file) repeatedly for N seconds, and prints one JSON line with the
//       median stage times, the layer counters and a virtual-output digest.
//       With --trace, untraced and traced iterations alternate: the traced
//       ones rebuild the replay from its public pieces, time every WaitOn /
//       Execute / Notify, and must produce the same digest.
//
// Fault injection for the benchmark's own negative tests (run only):
//   --replay-seed K     replay under scheduler seed K instead of 1
//   --drop-trace NAME   skip trace file NAME
//   --perturb-traced    traced iterations replay under scheduler seed 2
//   --empty-snapshot    replay against an empty initial tree
//
// Exit status: 0 when the run completed and its internal checks held
// (stream == batch, every iteration agreed, traced == untraced); 1 when a
// check failed (the JSON line lists it); 2 on bad usage or unreadable input.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/host_ledger.h"
#include "src/check/explorer.h"
#include "src/core/artc.h"
#include "src/core/compile_stream.h"
#include "src/core/compiler.h"
#include "src/obs/critpath.h"
#include "src/sim/schedule.h"
#include "src/trace/binary_trace.h"
#include "src/trace/trace_io.h"
#include "src/workloads/magritte.h"
#include "src/workloads/synthetic_gen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace storage = artc::storage;
namespace workloads = artc::workloads;

// Workload sizes. Each keeps an iteration near a second or two: host speed
// here drifts, and the longer iterations of a 1M-action webserver or a
// 30k-action mailspool spread about three times wider from run to run.
// mailspool still lets its rename annotation, quadratic in the number of
// referenced paths, dominate e2e_s (about 90% at 20k events).
constexpr uint64_t kLockserverEvents = 200'000;
constexpr uint64_t kWebserverEvents = 400'000;
constexpr uint64_t kMailspoolEvents = 20'000;
constexpr uint32_t kSynthThreads = 8;
constexpr uint64_t kReplaySeed = 1;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

size_t CoreCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// FNV-1a, 64-bit.
struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// ---------------------------------------------------------------------------
// setup

uint64_t GenerateWorkload(const std::string& workload, uint64_t seed, const std::string& dir,
                          std::string* error) {
  if (workload == "magritte") {
    // Traced on ssd/osx, as examples/magritte_suite.cpp does.
    workloads::SourceConfig source;
    source.storage = storage::MakeNamedConfig("ssd");
    source.platform = "osx";
    source.seed = seed;
    uint64_t n = 0;
    for (const workloads::MagritteSpec& spec : workloads::MagritteSuite()) {
      workloads::TracedRun run = workloads::TraceMagritte(spec, source);
      trace::TraceBundle bundle{std::move(run.trace), std::move(run.snapshot)};
      trace::WriteTraceBundleFile(bundle, dir + "/" + spec.FullName() + ".trace");
      n += bundle.trace.events.size();
    }
    return n;
  }
  workloads::SynthOptions opt;
  opt.threads = kSynthThreads;
  opt.seed = seed;
  if (workload == "lockserver") {
    opt.scenario = workloads::SynthScenario::kLockServer;
    opt.events = kLockserverEvents;
    trace::TraceBundle bundle = workloads::GenerateSyntheticBundle(opt);
    trace::WriteTraceBundleFile(bundle, dir + "/lockserver.trace");
    return bundle.trace.events.size();
  }
  if (workload == "webserver" || workload == "mailspool") {
    const bool web = workload == "webserver";
    opt.scenario = web ? workloads::SynthScenario::kWebServer
                       : workloads::SynthScenario::kMailSpool;
    opt.events = web ? kWebserverEvents : kMailspoolEvents;
    if (!workloads::GenerateSyntheticArtct(opt, dir + "/" + workload + ".artct", error)) {
      return 0;
    }
    return opt.events;
  }
  *error = "unknown workload '" + workload + "'";
  return 0;
}

int Setup(const std::string& workload, uint64_t seed, const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", dir.c_str(), ec.message().c_str());
    return 2;
  }
  const Clock::time_point t0 = Clock::now();
  std::string error;
  const uint64_t events = GenerateWorkload(workload, seed, dir, &error);
  const double setup_s = Seconds(t0, Clock::now());
  if (events == 0) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n", error.c_str());
    return 2;
  }
  std::printf("{\"setup_s\": %.9f, \"events\": %" PRIu64 "}\n", setup_s, events);
  return 0;
}

// ---------------------------------------------------------------------------
// run

struct RunOptions {
  std::string dir;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  uint64_t replay_seed = kReplaySeed;
  std::string drop_trace;
  bool perturb_traced = false;
  bool empty_snapshot = false;
};

// Layer counters, summed over a workload's traces (peaks take the largest).
// They are deterministic: every iteration reproduces them exactly.
struct Counters {
  uint64_t actions = 0;
  uint64_t file_bytes = 0;
  uint64_t resources = 0;
  uint64_t touches = 0;
  uint64_t warnings = 0;
  uint64_t edges_emitted = 0;
  uint64_t edges_kept = 0;  // materialized in the dep arena
  uint64_t sync_edges = 0;  // emitted by the mutex/barrier/cond/join rules
  uint64_t dep_arena_peak_bytes = 0;
  uint64_t stream_peak_state_bytes = 0;
  uint64_t failed_events = 0;
  uint64_t switches = 0;
  TimeNs virtual_end = 0;
  TimeNs dep_stall = 0;
  TimeNs thread_time = 0;
  TimeNs crit_stall = 0;
  TimeNs crit_span = 0;
  uint64_t snapshot_entries = 0;
  storage::StorageCounters storage;

  void Add(const Counters& o) {
    actions += o.actions;
    file_bytes += o.file_bytes;
    resources += o.resources;
    touches += o.touches;
    warnings += o.warnings;
    edges_emitted += o.edges_emitted;
    edges_kept += o.edges_kept;
    sync_edges += o.sync_edges;
    dep_arena_peak_bytes = std::max(dep_arena_peak_bytes, o.dep_arena_peak_bytes);
    stream_peak_state_bytes = std::max(stream_peak_state_bytes, o.stream_peak_state_bytes);
    failed_events += o.failed_events;
    switches += o.switches;
    virtual_end += o.virtual_end;
    dep_stall += o.dep_stall;
    thread_time += o.thread_time;
    crit_stall += o.crit_stall;
    crit_span += o.crit_span;
    snapshot_entries += o.snapshot_entries;
    storage.cache_hit_blocks += o.storage.cache_hit_blocks;
    storage.cache_miss_blocks += o.storage.cache_miss_blocks;
    storage.cache_evicted_blocks += o.storage.cache_evicted_blocks;
    storage.cache_writeback_blocks += o.storage.cache_writeback_blocks;
    storage.media_read_blocks += o.storage.media_read_blocks;
    storage.media_write_blocks += o.storage.media_write_blocks;
    storage.service_cache_ns += o.storage.service_cache_ns;
    storage.service_media_read_ns += o.storage.service_media_read_ns;
    storage.service_media_write_ns += o.storage.service_media_write_ns;
    storage.service_writeback_ns += o.storage.service_writeback_ns;
  }
};

// Host seconds per stage of one iteration (summed over the traces).
struct Stages {
  double parse = 0, annotate = 0, compile = 0, replay = 0, critpath = 0, stream = 0;
  double Ingest() const { return parse + annotate + compile; }
  double E2e() const { return Ingest() + replay + critpath; }
  void Scale(double f) {
    parse *= f;
    annotate *= f;
    compile *= f;
    replay *= f;
    critpath *= f;
    stream *= f;
  }
  void Add(const Stages& o) {
    parse += o.parse;
    annotate += o.annotate;
    compile += o.compile;
    replay += o.replay;
    critpath += o.critpath;
    stream += o.stream;
  }
};

struct Iteration {
  double wall_s = 0;  // the whole iteration, checks included
  Stages stages;
  Counters counters;
  HostTotals host;  // traced iterations only
  uint64_t digest = 0;
  std::vector<std::string> errors;
};

core::SimTarget TargetFor(uint64_t seed) {
  // hdd/ext4/linux: Magritte's cross-platform target (traced on ssd/osx),
  // and the default target for the synthetic traces.
  core::SimTarget target;
  target.storage = storage::MakeNamedConfig("hdd");
  target.fs_profile = "ext4";
  target.seed = seed;
  return target;
}

// ReplayCompiledOnSimTarget rebuilt from its public pieces, with every
// WaitOn / Execute / Notify timed through TimingEnv.
core::SimReplayResult TracedReplay(const core::CompiledBenchmark& bench,
                                   const core::SimTarget& target, trace::FsSnapshot* final_state,
                                   SpanLog* log, uint32_t parent, HostTotals* host) {
  sim::Simulation simulation(target.seed, target.sim_backend);
  std::unique_ptr<sim::SchedulePolicy> policy = sim::MakeSchedulePolicy(target.schedule);
  simulation.SetSchedulePolicy(policy.get());
  storage::StorageStack stack(&simulation, target.storage);
  artc::vfs::Vfs vfs(&simulation, &stack, artc::vfs::MakeFsProfile(target.fs_profile),
                     artc::vfs::MakePlatformProfile(target.platform));
  core::SimReplayEnv env(&simulation, &vfs, target.emulation);
  HostLedger ledger(&simulation, log, parent);
  TimingEnv timed(&env, &ledger);

  core::SimReplayResult result;
  result.edge_stats = bench.edge_stats;
  result.model_warnings = bench.model_warnings;
  uint32_t init_span = 0;
  sim::SimThreadId init = simulation.Spawn("init", [&] {
    init_span = ledger.Begin(HostState::kInit);
    env.Initialize(bench.snapshot, target.delta_init);
    ledger.End(init_span);
  });
  simulation.Spawn("harness", [&] {
    simulation.Join(init);
    if (target.drop_caches_after_init) {
      stack.DropCaches();
    }
    result.report = core::Replay(bench, timed, target.replay);
    const uint32_t capture = ledger.Begin(HostState::kCapture);
    *final_state = vfs.CaptureSnapshot();
    ledger.End(capture);
  });
  ledger.Start();
  result.sim_end_time = simulation.Run();
  ledger.Finish();
  result.sim_switches = simulation.switch_count();
  result.storage = stack.Counters();
  *host = ledger.totals();
  const Span& s = log->spans()[init_span];
  host->init_wall_ns = s.end_ns - s.start_ns;
  return result;
}

// One trace file through the whole pipeline. Returns the trace's
// virtual-output digest (0 with *error set on failure).
uint64_t RunTrace(const std::string& path, const RunOptions& opt, bool traced, SpanLog* log, uint32_t parent, Stages* st, Counters* c,
                  HostTotals* host, std::string* error) {
  auto stage = [&](const char* name) {
    return traced ? log->Begin(log->Name(name), parent) : 0u;
  };
  auto end = [&](uint32_t span) {
    if (traced) {
      log->End(span);
    }
  };

  // parse
  Clock::time_point t0 = Clock::now();
  uint32_t span = stage("parse");
  // The sequential readers artc_compile uses: on this benchmark's inputs the
  // parallel reader's thread hand-offs made ingest times swing far more from
  // run to run than the parse work itself.
  trace::TraceBundle bundle;
  trace::ParseDiag diag;
  std::string read_error;
  const bool read = trace::SniffArtctFile(path)
                        ? trace::ReadArtctFile(path, &bundle, &read_error)
                        : trace::ReadTraceBundleFile(path, &bundle, &diag);
  if (!read) {
    *error = "parse " + path + ": " + (read_error.empty() ? diag.Format() : read_error);
    return 0;
  }
  end(span);
  Clock::time_point t1 = Clock::now();
  st->parse += Seconds(t0, t1);
  trace::Trace& tr = bundle.trace;
  trace::FsSnapshot& snapshot = bundle.snapshot;
  c->actions = tr.events.size();
  c->snapshot_entries = snapshot.entries.size();

  // annotate
  span = stage("annotate");
  artc::fsmodel::AnnotateOptions ann_opts;
  ann_opts.materialize_labels = false;  // as core::Compile annotates
  artc::fsmodel::AnnotatedTrace ann = artc::fsmodel::AnnotateTrace(tr, snapshot, ann_opts);
  end(span);
  Clock::time_point t2 = Clock::now();
  st->annotate += Seconds(t1, t2);
  c->resources = ann.resources.size();
  for (const auto& touches : ann.touches) {
    c->touches += touches.size();
  }
  c->warnings = ann.warnings;

  // compile (dep builder + pruner)
  span = stage("compile");
  core::CompiledBenchmark bench = core::Compile(std::move(tr), snapshot, ann, core::CompileOptions{});
  end(span);
  Clock::time_point t3 = Clock::now();
  st->compile += Seconds(t2, t3);
  ann = artc::fsmodel::AnnotatedTrace{};
  c->edges_emitted = bench.edge_stats.TotalEdges();
  c->edges_kept = bench.dep_arena.size();
  for (core::RuleTag rule : {core::RuleTag::kMutex, core::RuleTag::kBarrier, core::RuleTag::kCond,
                             core::RuleTag::kJoin}) {
    c->sync_edges += bench.edge_stats.count_by_rule[static_cast<size_t>(rule)];
  }
  c->dep_arena_peak_bytes = bench.dep_arena_peak_bytes;
  const uint64_t bench_digest = core::DigestBenchmark(bench);  // untimed check
  if (opt.empty_snapshot) {
    bench.snapshot = trace::FsSnapshot{};
  }

  // replay (snapshot init included)
  Clock::time_point t4 = Clock::now();
  span = stage("replay");
  trace::FsSnapshot final_state;
  core::SimReplayResult res;
  if (traced) {
    core::SimTarget target = TargetFor(opt.perturb_traced ? 2 : opt.replay_seed);
    res = TracedReplay(bench, target, &final_state, log, span, host);
  } else {
    res = core::ReplayCompiledOnSimTarget(bench, TargetFor(opt.replay_seed), &final_state);
  }
  end(span);
  Clock::time_point t5 = Clock::now();
  st->replay += Seconds(t4, t5);

  // critical path
  span = stage("critpath");
  artc::obs::CritPathReport crit = artc::obs::AnalyzeSimReplay(bench, res);
  end(span);
  Clock::time_point t6 = Clock::now();
  st->critpath += Seconds(t5, t6);

  c->failed_events = res.report.failed_events;
  c->switches = res.sim_switches;
  c->virtual_end = res.sim_end_time;
  c->dep_stall = res.report.total_dep_stall;
  c->thread_time = res.report.TotalThreadTime();
  c->crit_stall = crit.stall_ns;
  c->crit_span = crit.end_time - crit.start;
  c->storage = res.storage;
  const uint64_t fs_digest = artc::check::SnapshotDigest(final_state);
  bench = core::CompiledBenchmark{};
  final_state = trace::FsSnapshot{};

  // out-of-core stream compile of the same file
  span = stage("stream_compile");
  core::CompileStreamFileResult streamed;
  if (!core::CompileStreamFile(path, trace::StreamReaderOptions{}, core::CompileStreamOptions{},
                               &streamed, nullptr, &diag)) {
    *error = "stream compile " + path + ": " + diag.Format();
    return 0;
  }
  end(span);
  st->stream += Seconds(t6, Clock::now());
  c->stream_peak_state_bytes = streamed.peak_state_bytes;
  if (streamed.digest != bench_digest) {
    *error = "stream digest " + Hex(streamed.digest) + " != batch digest " + Hex(bench_digest) +
             " for " + path;
    return 0;
  }
  std::error_code ec;
  c->file_bytes = fs::file_size(path, ec);

  Fnv d;
  d.U64(bench_digest);
  d.U64(static_cast<uint64_t>(res.sim_end_time));
  d.U64(fs_digest);
  d.U64(res.sim_switches);
  d.U64(res.report.failed_events);
  const storage::StorageCounters& s = res.storage;
  for (uint64_t v : {s.cache_hit_blocks, s.cache_miss_blocks, s.cache_evicted_blocks,
                     s.cache_writeback_blocks, s.media_read_blocks, s.media_write_blocks,
                     s.cfq_context_switches}) {
    d.U64(v);
  }
  for (TimeNs v : {s.service_cache_ns, s.service_media_read_ns, s.service_media_write_ns,
                   s.service_writeback_ns}) {
    d.U64(static_cast<uint64_t>(v));
  }
  return d.h;
}

std::vector<std::string> TraceFiles(const RunOptions& opt) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(opt.dir, ec)) {
    const std::string ext = e.path().extension().string();
    if (e.is_regular_file() && (ext == ".trace" || ext == ".artct") &&
        e.path().filename().string() != opt.drop_trace) {
      files.push_back(e.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

Iteration RunIteration(const std::vector<std::string>& files, const RunOptions& opt,
                       bool traced, SpanLog* log) {
  Iteration it;
  if (traced) {
    log->Clear();
  }
  const uint32_t root = traced ? log->Begin(log->Name("iteration"), kNoParent) : 0;
  // Sorted (trace, digest) pairs hashed in order: order-independent in the
  // files' listing order, and one trace's change cannot cancel another's.
  std::vector<std::pair<std::string, uint64_t>> digests;
  for (const std::string& path : files) {
    const std::string name = fs::path(path).filename().string();
    const uint32_t span = traced ? log->Begin(log->Name("trace:" + name), root) : 0;
    Stages st;
    Counters c;
    HostTotals host;
    std::string error;
    const uint64_t d = RunTrace(path, opt, traced, log, span, &st, &c, &host, &error);
    if (traced) {
      log->End(span);
    }
    if (!error.empty()) {
      it.errors.push_back(error);
      continue;
    }
    it.stages.Add(st);
    it.counters.Add(c);
    it.host.Add(host);
    digests.emplace_back(name, d);
  }
  if (traced) {
    log->End(root);
  }
  std::sort(digests.begin(), digests.end());
  Fnv d;
  for (const auto& [name, digest] : digests) {
    d.Str(name);
    d.U64(digest);
  }
  it.digest = d.h;
  return it;
}

// The end-to-end metrics are medians over blocks of consecutive iterations,
// each block at least kBlockSeconds long (a short tail joins the last
// block): host speed here drifts between fast and slow phases about a second
// long, and a per-iteration median of a short iteration flips between them.
constexpr double kBlockSeconds = 2.0;

std::vector<Stages> BlockMeans(const std::vector<Iteration>& iterations) {
  std::vector<Stages> blocks;
  std::vector<int> counts;
  double open_s = kBlockSeconds;  // wall time of the open block
  for (const Iteration& it : iterations) {
    if (open_s >= kBlockSeconds) {
      blocks.emplace_back();
      counts.push_back(0);
      open_s = 0;
    }
    blocks.back().Add(it.stages);
    ++counts.back();
    open_s += it.wall_s;
  }
  if (blocks.size() > 1 && open_s < kBlockSeconds) {
    blocks[blocks.size() - 2].Add(blocks.back());
    counts[counts.size() - 2] += counts.back();
    blocks.pop_back();
    counts.pop_back();
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    blocks[i].Scale(1.0 / counts[i]);
  }
  return blocks;
}

// Minimal JSON object writer for one output line.
class JsonLine {
 public:
  void Num(const char* key, double v) { Key(key), Append("%.9g", v); }
  void Int(const char* key, uint64_t v) { Key(key), Append("%" PRIu64, v); }
  void Str(const char* key, const std::string& v) { Key(key), Append("\"%s\"", v.c_str()); }
  void Bool(const char* key, bool v) { Key(key), Append("%s", v ? "true" : "false"); }
  void Raw(const char* key, const std::string& v) { Key(key), out_ += v; }
  std::string Done() const { return "{" + out_ + "}"; }

 private:
  void Key(const char* key) {
    if (!out_.empty()) {
      out_ += ", ";
    }
    out_ += "\"";
    out_ += key;
    out_ += "\": ";
  }
  template <typename... A>
  void Append(const char* fmt, A... a) {
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, a...);
    out_ += buf;
  }
  std::string out_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out;
}

std::string LayerJson(const std::vector<Iteration>& traced, double untraced_e2e) {
  auto med = [&](auto f) {
    std::vector<double> v;
    for (const Iteration& it : traced) {
      v.push_back(f(it));
    }
    return Median(v);
  };
  auto ns = [](int64_t v) { return static_cast<double>(v) * 1e-9; };
  const Counters& c = traced.front().counters;
  const HostTotals& h = traced.front().host;
  const double actions = static_cast<double>(std::max<uint64_t>(1, c.actions));
  const double file_mb = static_cast<double>(c.file_bytes) / 1e6;
  const storage::StorageCounters& s = c.storage;
  const double cache_lookups = static_cast<double>(s.cache_hit_blocks + s.cache_miss_blocks);

  JsonLine j;
  j.Num("trace.parse_s", med([](const Iteration& it) { return it.stages.parse; }));
  j.Num("trace.file_mb", file_mb);
  j.Num("trace.parse_mb_per_s", med([&](const Iteration& it) { return file_mb / it.stages.parse; }));
  const double annotate_s = med([](const Iteration& it) { return it.stages.annotate; });
  j.Num("fsmodel.annotate_s", annotate_s);
  j.Num("fsmodel.annotate_us_per_event", annotate_s * 1e6 / actions);
  j.Int("fsmodel.resources", c.resources);
  j.Int("fsmodel.touches", c.touches);
  j.Int("fsmodel.warnings", c.warnings);
  j.Num("compile.deps_s", med([](const Iteration& it) { return it.stages.compile; }));
  j.Int("compile.edges_emitted", c.edges_emitted);
  j.Int("compile.edges_kept", c.edges_kept);
  j.Num("compile.kept_ratio", c.edges_emitted == 0 ? 0.0
                                                   : static_cast<double>(c.edges_kept) /
                                                         static_cast<double>(c.edges_emitted));
  j.Int("compile.sync_edges", c.sync_edges);
  j.Int("compile.dep_arena_peak_bytes", c.dep_arena_peak_bytes);
  j.Num("stream.compile_s", med([](const Iteration& it) { return it.stages.stream; }));
  j.Num("stream.peak_state_mb", static_cast<double>(c.stream_peak_state_bytes) / 1e6);
  j.Num("replay.s", med([](const Iteration& it) { return it.stages.replay; }));
  j.Int("replay.dep_waits", h.Calls(HostState::kWait));
  j.Num("replay.execute_self_s",
        med([&](const Iteration& it) { return ns(it.host.Self(HostState::kExecute)); }));
  j.Num("replay.engine_self_s",
        med([&](const Iteration& it) { return ns(it.host.Self(HostState::kEngine)); }));
  j.Num("replay.wait_self_s",
        med([&](const Iteration& it) { return ns(it.host.Self(HostState::kWait)); }));
  j.Num("replay.notify_self_s",
        med([&](const Iteration& it) { return ns(it.host.Self(HostState::kNotify)); }));
  j.Num("replay.unattributed_s", med([&](const Iteration& it) {
          double accounted = ns(it.host.Switched());
          for (int64_t v : it.host.self_ns) {
            accounted += ns(v);
          }
          return it.stages.replay - accounted;
        }));
  j.Num("replay.dep_stall_share",
        c.dep_stall + c.thread_time == 0
            ? 0.0
            : static_cast<double>(c.dep_stall) / static_cast<double>(c.dep_stall + c.thread_time));
  j.Num("replay.failed_ops_pct", 100.0 * static_cast<double>(c.failed_events) / actions);
  j.Int("sim.switches", c.switches);
  j.Num("sim.switches_per_action", static_cast<double>(c.switches) / actions);
  j.Num("sim.switched_s", med([&](const Iteration& it) { return ns(it.host.Switched()); }));
  // Split by what the fiber that opened the interval was doing.
  for (size_t i = 0; i < static_cast<size_t>(HostState::kCount); ++i) {
    const std::string key =
        std::string("sim.switched_in.") + HostStateName(static_cast<HostState>(i)) + "_s";
    j.Num(key.c_str(), med([&](const Iteration& it) { return ns(it.host.switched_ns[i]); }));
  }
  j.Num("sim.virtual_end_s", ns(c.virtual_end));
  j.Num("vfs.init_s", med([&](const Iteration& it) { return ns(it.host.init_wall_ns); }));
  j.Num("vfs.init_self_s",
        med([&](const Iteration& it) { return ns(it.host.Self(HostState::kInit)); }));
  j.Int("vfs.ops", h.Calls(HostState::kExecute));
  j.Int("vfs.init_entries", c.snapshot_entries);
  j.Int("storage.cache_hit_blocks", s.cache_hit_blocks);
  j.Int("storage.cache_miss_blocks", s.cache_miss_blocks);
  j.Num("storage.hit_ratio",
        cache_lookups == 0 ? 0.0 : static_cast<double>(s.cache_hit_blocks) / cache_lookups);
  j.Int("storage.evicted_blocks", s.cache_evicted_blocks);
  j.Int("storage.writeback_blocks", s.cache_writeback_blocks);
  j.Int("storage.media_read_blocks", s.media_read_blocks);
  j.Int("storage.media_write_blocks", s.media_write_blocks);
  j.Num("storage.service_virtual_s",
        ns(s.service_cache_ns + s.service_media_read_ns + s.service_media_write_ns +
           s.service_writeback_ns));
  j.Num("critpath.s", med([](const Iteration& it) { return it.stages.critpath; }));
  j.Num("critpath.stall_share",
        c.crit_span == 0 ? 0.0
                         : static_cast<double>(c.crit_stall) / static_cast<double>(c.crit_span));
  const double traced_e2e = med([](const Iteration& it) { return it.stages.E2e(); });
  j.Num("trace.traced_e2e_s", traced_e2e);
  j.Num("trace.overhead_s", traced_e2e - untraced_e2e);
  return j.Done();
}

int Run(const RunOptions& opt) {
  const std::vector<std::string> files = TraceFiles(opt);
  if (files.empty()) {
    std::fprintf(stderr, "perfbench: no trace files in %s\n", opt.dir.c_str());
    return 2;
  }
  const size_t cores = CoreCount();
  SpanLog log;
  std::vector<Iteration> untraced;
  std::vector<Iteration> traced;
  std::vector<std::string> errors;
  const Clock::time_point start = Clock::now();
  // At least one iteration of each kind; with --trace they alternate.
  while (untraced.empty() || (opt.trace && traced.empty()) ||
         Seconds(start, Clock::now()) < opt.seconds) {
    const bool trace_this = opt.trace && traced.size() < untraced.size();
    const Clock::time_point iteration_start = Clock::now();
    Iteration it = RunIteration(files, opt, trace_this, &log);
    for (const std::string& e : it.errors) {
      errors.push_back(e);
    }
    if (!it.errors.empty()) {
      break;
    }
    it.wall_s = Seconds(iteration_start, Clock::now());
    const Stages& st = it.stages;
    std::fprintf(stderr,
                 "perfbench: %s iteration: parse %.4f annotate %.4f compile %.4f replay %.4f "
                 "critpath %.4f stream %.4f s\n",
                 trace_this ? "traced" : "untraced", st.parse, st.annotate, st.compile, st.replay,
                 st.critpath, st.stream);
    (trace_this ? traced : untraced).push_back(std::move(it));
  }

  bool iterations_agree = true;
  for (const Iteration& it : untraced) {
    iterations_agree = iterations_agree && it.digest == untraced.front().digest;
  }
  bool traced_matches = true;
  for (const Iteration& it : traced) {
    traced_matches = traced_matches && !untraced.empty() && it.digest == untraced.front().digest;
  }
  if (errors.empty() && !iterations_agree) {
    errors.push_back("untraced iterations disagree on the virtual-output digest");
  }
  if (errors.empty() && !traced_matches) {
    errors.push_back("traced run's virtual outputs differ from the untraced run");
  }
  if (errors.empty() && !opt.spans_path.empty() && opt.trace && !log.Write(opt.spans_path)) {
    errors.push_back("cannot write spans to " + opt.spans_path);
  }

  JsonLine j;
  j.Int("cores", cores);
  j.Str("build_type", PERFBENCH_BUILD_TYPE);
  j.Int("traces", files.size());
  j.Int("iterations", untraced.size());
  j.Int("traced_iterations", traced.size());
  std::string errs = "[";
  for (const std::string& e : errors) {
    errs += (errs.size() > 1 ? ", \"" : "\"") + JsonEscape(e) + "\"";
  }
  j.Raw("errors", errs + "]");
  if (!untraced.empty() && errors.empty()) {
    const Counters& c = untraced.front().counters;
    const double actions = static_cast<double>(c.actions);
    const std::vector<Stages> blocks = BlockMeans(untraced);
    auto med = [&](auto f) {
      std::vector<double> v;
      for (const Stages& b : blocks) {
        v.push_back(f(b));
      }
      return Median(v);
    };
    j.Str("digest", Hex(untraced.front().digest));
    j.Int("actions", c.actions);
    j.Int("failed_events", c.failed_events);
    j.Int("blocks", blocks.size());
    const double e2e = med([](const Stages& b) { return b.E2e(); });
    j.Num("e2e_s", e2e);
    j.Num("ingest_actions_per_s", med([&](const Stages& b) { return actions / b.Ingest(); }));
    j.Num("replay_actions_per_s", med([&](const Stages& b) { return actions / b.replay; }));
    j.Num("stream_ingest_actions_per_s", med([&](const Stages& b) { return actions / b.stream; }));
    j.Num("peak_rss_mb", PeakRssMb());
    if (!traced.empty()) {
      j.Raw("layers", LayerJson(traced, e2e));
    }
  }
  std::printf("%s\n", j.Done().c_str());
  return errors.empty() ? 0 : 1;
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench setup --workload magritte|lockserver|webserver|mailspool "
               "--seed S --dir D\n"
               "       perfbench run --dir D --seconds N [--trace] [--spans FILE]\n"
               "                     [--replay-seed K] [--drop-trace NAME] [--perturb-traced]\n"
               "                     [--empty-snapshot]\n");
  std::exit(2);
}

uint64_t ParseU64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    Usage();
  }
  return v;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
  }
  const std::string mode = argv[1];
  std::string workload;
  uint64_t seed = 1;
  RunOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = next();
    } else if (arg == "--seed") {
      seed = ParseU64(next());
    } else if (arg == "--dir") {
      opt.dir = next();
    } else if (arg == "--seconds") {
      opt.seconds = static_cast<double>(ParseU64(next()));
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--spans") {
      opt.spans_path = next();
    } else if (arg == "--replay-seed") {
      opt.replay_seed = ParseU64(next());
    } else if (arg == "--drop-trace") {
      opt.drop_trace = next();
    } else if (arg == "--perturb-traced") {
      opt.perturb_traced = true;
    } else if (arg == "--empty-snapshot") {
      opt.empty_snapshot = true;
    } else {
      Usage();
    }
  }
  if (opt.dir.empty()) {
    Usage();
  }
  if (mode == "setup") {
    return Setup(workload, seed, opt.dir);
  }
  if (mode == "run") {
    return Run(opt);
  }
  Usage();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
