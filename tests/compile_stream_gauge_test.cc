// CompileStreamFile publishes the stream's resident state on the
// stream.state_bytes / stream.interner_bytes gauges while it runs. Gauge
// cells are additive and process-global, so the driver must withdraw its
// contribution when it returns — after a clean run and after a mid-file
// parse error alike — or sequential compiles in one process would report
// the sum of their final states.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/check/generator.h"
#include "src/core/compile_stream.h"
#include "src/obs/obs.h"
#include "src/trace/trace_io.h"

namespace artc {
namespace {

std::pair<int64_t, int64_t> StreamGauges() {
  obs::MetricsSnapshot snap = obs::DefaultRegistry().Snapshot();
  return {snap.gauges["stream.state_bytes"],
          snap.gauges["stream.interner_bytes"]};
}

bool CompileFile(const std::string& path) {
  trace::StreamReaderOptions ropts;
  ropts.window_events = 16;  // many windows, so the gauges move mid-run
  core::CompileStreamFileResult res;
  trace::ParseDiag diag;
  return core::CompileStreamFile(path, ropts, {}, &res, nullptr, &diag);
}

TEST(CompileStreamFile, GaugesReturnToPreCallValues) {
  check::GenOptions gen;
  gen.seed = 31;
  gen.threads = 3;
  gen.ops_per_thread = 60;
  const trace::TraceBundle b = check::GenerateTrace(gen);
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string good = (dir / "cstream_gauge_good.trace").string();
  const std::string bad = (dir / "cstream_gauge_bad.trace").string();
  trace::WriteTraceBundleFile(b, good);
  trace::WriteTraceBundleFile(b, bad);
  {
    // A malformed record after every valid event: the compile fails on the
    // last window, once the earlier windows have published their sizes.
    std::ofstream out(bad, std::ios::app);
    out << "this is not a trace record\n";
  }

  obs::Enable();
  const std::pair<int64_t, int64_t> before = StreamGauges();
  ASSERT_TRUE(CompileFile(good));
  EXPECT_EQ(StreamGauges(), before) << "after a successful compile";
  ASSERT_TRUE(CompileFile(good));
  EXPECT_EQ(StreamGauges(), before) << "after a second successful compile";
  EXPECT_FALSE(CompileFile(bad));
  EXPECT_EQ(StreamGauges(), before) << "after a failed compile";
  obs::Disable();

  std::remove(good.c_str());
  std::remove(bad.c_str());
}

}  // namespace
}  // namespace artc
