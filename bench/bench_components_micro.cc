// google-benchmark microbenchmarks for the toolchain itself: annotation and
// compilation throughput, replay-engine overhead, and storage-model costs.
// These are not paper figures; they document the cost of using ARTC.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "src/core/artc.h"
#include "src/core/compiler.h"
#include "src/fsmodel/resource_model.h"
#include "src/obs/log.h"
#include "src/obs/obs.h"
#include "src/obs/sampler.h"
#include "src/util/interner.h"
#include "src/storage/hdd_model.h"
#include "src/trace/binary_trace.h"
#include "src/trace/stream_reader.h"
#include "src/trace/trace_io.h"
#include "src/workloads/micro.h"
#include "src/workloads/workload.h"

namespace artc {
namespace {

const workloads::TracedRun& SharedTrace() {
  static const workloads::TracedRun* kRun = [] {
    workloads::RandomReaders::Options opt;
    opt.threads = 4;
    opt.reads_per_thread = 500;
    opt.file_bytes = 256ULL << 20;
    workloads::RandomReaders w(opt);
    workloads::SourceConfig src;
    src.storage = storage::MakeNamedConfig("ssd");
    return new workloads::TracedRun(TraceWorkload(w, src));
  }();
  return *kRun;
}

void BM_AnnotateTrace(benchmark::State& state) {
  const workloads::TracedRun& run = SharedTrace();
  for (auto _ : state) {
    auto ann = fsmodel::AnnotateTrace(run.trace, run.snapshot);
    benchmark::DoNotOptimize(ann.resources.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(run.trace.events.size()));
}
BENCHMARK(BM_AnnotateTrace);

void BM_CompileArtc(benchmark::State& state) {
  const workloads::TracedRun& run = SharedTrace();
  for (auto _ : state) {
    core::CompiledBenchmark bench = core::Compile(run.trace, run.snapshot, {});
    benchmark::DoNotOptimize(bench.edge_stats.TotalEdges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(run.trace.events.size()));
}
BENCHMARK(BM_CompileArtc);

void BM_SimReplayEndToEnd(benchmark::State& state) {
  const workloads::TracedRun& run = SharedTrace();
  core::CompiledBenchmark bench = core::Compile(run.trace, run.snapshot, {});
  for (auto _ : state) {
    core::SimTarget target;
    target.storage = storage::MakeNamedConfig("ssd");
    core::SimReplayResult res = core::ReplayCompiledOnSimTarget(bench, target);
    benchmark::DoNotOptimize(res.report.wall_time);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(run.trace.events.size()));
}
BENCHMARK(BM_SimReplayEndToEnd);

void BM_HddServiceTime(benchmark::State& state) {
  sim::Simulation sim(1);
  storage::HddModel hdd(&sim, storage::HddParams{});
  uint64_t lba = 0;
  for (auto _ : state) {
    lba = (lba + 997 * 4096) % (400ULL << 20);
    benchmark::DoNotOptimize(hdd.ServiceTime(0, 0, lba, 8));
  }
}
BENCHMARK(BM_HddServiceTime);

void BM_TraceWorkload(benchmark::State& state) {
  for (auto _ : state) {
    workloads::RandomReaders::Options opt;
    opt.threads = 2;
    opt.reads_per_thread = 200;
    opt.file_bytes = 64ULL << 20;
    workloads::RandomReaders w(opt);
    workloads::SourceConfig src;
    src.storage = storage::MakeNamedConfig("ssd");
    workloads::TracedRun run = TraceWorkload(w, src);
    benchmark::DoNotOptimize(run.trace.events.size());
  }
}
BENCHMARK(BM_TraceWorkload)->Unit(benchmark::kMillisecond);

// Chunked parallel ingest of the 104k-action random-readers-16 trace (16
// threads x 6500 reads) from disk, once as a text bundle (~7 MB, split into
// 1 MiB chunks) and once as ARTCT. Both files are written once, untimed, and
// removed at exit.
struct ParseFixture {
  std::string text_path;
  std::string artct_path;
  size_t events = 0;

  ParseFixture() {
    workloads::RandomReaders::Options opt;
    opt.threads = 16;
    opt.reads_per_thread = 6500;
    workloads::RandomReaders w(opt);
    workloads::TracedRun run = TraceWorkload(w, {});
    events = run.trace.events.size();
    const std::string prefix =
        (std::filesystem::temp_directory_path() / "artc_micro_parse").string();
    text_path = prefix + ".trace";
    artct_path = prefix + ".artct";
    trace::TraceBundle bundle;
    bundle.trace = run.trace;
    bundle.snapshot = run.snapshot;
    trace::WriteTraceBundleFile(bundle, text_path);
    std::string error;
    if (!trace::WriteArtctFile(artct_path, run.trace, run.snapshot, &error)) {
      std::fprintf(stderr, "ARTCT write failed: %s\n", error.c_str());
      std::abort();
    }
  }
  ~ParseFixture() {
    std::error_code ec;
    std::filesystem::remove(text_path, ec);
    std::filesystem::remove(artct_path, ec);
  }
};

const ParseFixture& SharedParseFixture() {
  static const ParseFixture fixture;
  return fixture;
}

void RunParallelRead(benchmark::State& state, const std::string& path) {
  trace::ParallelReadOptions popt;
  popt.jobs = 4;
  popt.chunk_bytes = size_t{1} << 20;  // text only; ARTCT splits by chunk index
  for (auto _ : state) {
    trace::ParallelReadResult res;
    trace::ParseDiag diag;
    if (!trace::ParallelReadTraceFile(path, popt, &res, &diag)) {
      state.SkipWithError(diag.Format().c_str());
      return;
    }
    benchmark::DoNotOptimize(res.bundle.trace.events.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(SharedParseFixture().events));
}

void BM_ParallelReadText(benchmark::State& state) {
  RunParallelRead(state, SharedParseFixture().text_path);
}
BENCHMARK(BM_ParallelReadText)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ParallelReadArtct(benchmark::State& state) {
  RunParallelRead(state, SharedParseFixture().artct_path);
}
BENCHMARK(BM_ParallelReadArtct)->Unit(benchmark::kMillisecond)->UseRealTime();

// Interner contention: the same key stream (a trace-shaped mix of ~200
// distinct paths, heavily repeated) interned by N threads three ways.
// Measured on the 1-core CI runner the lock is uncontended and the three
// variants are within noise of each other; on multi-core hardware the
// scalar variant serializes on the mutex while LocalBatch touches it only
// on first sight of a path (~200 times per thread instead of ~20k) and
// InternBatch amortizes it to one acquisition per 1024 keys. The ARTCT
// writer and the parallel text parser both use the LocalBatch pattern.
constexpr int kInternKeys = 20000;
constexpr int kInternDistinct = 200;

std::string InternKey(int i) {
  return "/interned/dir" + std::to_string(i % 17) + "/file" +
         std::to_string(i % kInternDistinct);
}

void BM_InternScalarThreaded(benchmark::State& state) {
  static util::StringInterner* shared = nullptr;
  if (state.thread_index() == 0) {
    shared = new util::StringInterner();
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    for (int i = 0; i < kInternKeys; ++i) {
      sum += shared->Intern(InternKey(i));
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kInternKeys);
  if (state.thread_index() == 0) {
    delete shared;
    shared = nullptr;
  }
}
BENCHMARK(BM_InternScalarThreaded)->Threads(1)->Threads(4);

void BM_InternLocalBatchThreaded(benchmark::State& state) {
  static util::StringInterner* shared = nullptr;
  if (state.thread_index() == 0) {
    shared = new util::StringInterner();
  }
  util::LocalBatch local(shared);
  for (auto _ : state) {
    uint64_t sum = 0;
    for (int i = 0; i < kInternKeys; ++i) {
      sum += local.Intern(InternKey(i));
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kInternKeys);
  if (state.thread_index() == 0) {
    delete shared;
    shared = nullptr;
  }
}
BENCHMARK(BM_InternLocalBatchThreaded)->Threads(1)->Threads(4);

void BM_InternBatchThreaded(benchmark::State& state) {
  static util::StringInterner* shared = nullptr;
  if (state.thread_index() == 0) {
    shared = new util::StringInterner();
  }
  constexpr size_t kBatch = 1024;
  std::vector<std::string> keys;
  std::vector<std::string_view> views;
  for (int i = 0; i < kInternKeys; ++i) {
    keys.push_back(InternKey(i));
  }
  for (const std::string& k : keys) {
    views.push_back(k);
  }
  std::vector<uint32_t> ids(kInternKeys);
  for (auto _ : state) {
    for (size_t off = 0; off < views.size(); off += kBatch) {
      const size_t n = std::min(kBatch, views.size() - off);
      shared->InternBatch(views.data() + off, ids.data() + off, n);
    }
    benchmark::DoNotOptimize(ids[0]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kInternKeys);
  if (state.thread_index() == 0) {
    delete shared;
    shared = nullptr;
  }
}
BENCHMARK(BM_InternBatchThreaded)->Threads(1)->Threads(4);

// --- Telemetry-plane overhead -----------------------------------------------
// These pin the cost of the obs hot paths so the perf gate catches an
// instrumentation site silently getting expensive. The counter benches
// measure the exact macro an engine hot loop pays; the sampler/log benches
// measure the background work a live session adds per tick / per line.

void BM_ObsCounterDisabled(benchmark::State& state) {
  obs::Disable();
  for (auto _ : state) {
    ARTC_OBS_COUNT("bench.obs.disabled_counter", 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterDisabled);

void BM_ObsCounterEnabled(benchmark::State& state) {
  if (state.thread_index() == 0) obs::Enable();
  for (auto _ : state) {
    ARTC_OBS_COUNT("bench.obs.enabled_counter", 1);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) obs::Disable();
}
BENCHMARK(BM_ObsCounterEnabled)->Threads(1)->Threads(4);

void BM_ObsHistogramObserve(benchmark::State& state) {
  if (state.thread_index() == 0) obs::Enable();
  uint64_t v = 1;
  for (auto _ : state) {
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cycle bucket choice
    ARTC_OBS_OBSERVE("bench.obs.histogram", v >> 40);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) obs::Disable();
}
BENCHMARK(BM_ObsHistogramObserve)->Threads(1)->Threads(4);

void BM_ObsSamplerTick(benchmark::State& state) {
  // One SampleOnce over a registry shaped like a live replay: a few dozen
  // counters/gauges plus histograms, pre-populated so every family shows up
  // in the delta math.
  obs::Enable();
  auto& reg = obs::DefaultRegistry();
  std::vector<obs::MetricId> ids;
  for (int i = 0; i < 32; ++i) {
    char name[48];
    std::snprintf(name, sizeof(name), "bench.sampler.counter.%d", i);
    ids.push_back(reg.Counter(name));
    std::snprintf(name, sizeof(name), "bench.sampler.hist.%d", i % 8);
    ids.push_back(reg.Histogram(name));
  }
  for (const obs::MetricId& id : ids) reg.Add(id, 7);
  obs::TimeSeriesSampler sampler(&reg, obs::SamplerOptions{});
  uint64_t step = 0;
  for (auto _ : state) {
    reg.Add(ids[step++ % ids.size()], 1);  // keep deltas non-trivial
    obs::TimeSeriesSample s = sampler.SampleOnce();
    benchmark::DoNotOptimize(s.seq);
  }
  state.SetItemsProcessed(state.iterations());
  obs::Disable();
}
BENCHMARK(BM_ObsSamplerTick);

void BM_ObsLogLineFormat(benchmark::State& state) {
  // The pure formatting cost of a structured log line with typical fields;
  // excludes the write(2) so the number is stable across CI runners.
  const obs::LogField fields[] = {
      obs::LogField("events", static_cast<uint64_t>(1234567)),
      obs::LogField("window", 42),
      obs::LogField("path", "/tmp/some/traced/file.dat"),
      obs::LogField("ratio", 0.8251),
  };
  for (auto _ : state) {
    std::string line = obs::internal::FormatLogLine(
        obs::LogLevel::kInfo, "bench", "window compiled", fields, 4,
        1723180000000, 987654321098765, 7, 0);
    benchmark::DoNotOptimize(line.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsLogLineFormat);

}  // namespace
}  // namespace artc

BENCHMARK_MAIN();
