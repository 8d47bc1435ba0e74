// Golden compiled-output digests: every committed trace bundle in
// tests/corpus/ compiled under each replay method (and the ARTC variants
// that change rule emission or pruning) must reproduce a fixed
// core::DigestBenchmark value. The digest folds events, actions (thread,
// remap slots, predelay), the dep arena, thread/slot tables, edge stats and
// attribution names, so any change to what the compiler emits shows up here
// as a mismatch. The streaming compiler only covers ARTC, so this table is
// the one guard on the temporal, single and unconstrained outputs.
//
// A deliberate change to compiler output must update the table; the failure
// message prints the new value.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <string>

#include "src/core/compile_stream.h"
#include "src/core/compiler.h"
#include "src/trace/trace_io.h"

#ifndef ARTC_CORPUS_DIR
#error "build must define ARTC_CORPUS_DIR"
#endif

namespace artc::core {
namespace {

struct Config {
  const char* name;
  CompileOptions options;
};

Config MakeConfig(const char* name, ReplayMethod method, bool prune,
                  bool file_seq) {
  Config c{name, {}};
  c.options.method = method;
  c.options.prune_redundant_deps = prune;
  c.options.modes.file_seq = file_seq;
  return c;
}

const Config kConfigs[] = {
    MakeConfig("artc", ReplayMethod::kArtc, true, true),
    MakeConfig("artc_noprune", ReplayMethod::kArtc, false, true),
    MakeConfig("artc_no_file_seq", ReplayMethod::kArtc, true, false),
    MakeConfig("temporal", ReplayMethod::kTemporal, true, true),
    MakeConfig("single", ReplayMethod::kSingleThreaded, true, true),
    MakeConfig("unconstrained", ReplayMethod::kUnconstrained, true, true),
};
constexpr size_t kConfigCount = sizeof(kConfigs) / sizeof(kConfigs[0]);

struct Golden {
  const char* stem;
  uint64_t digest[kConfigCount];  // in kConfigs order
};

// clang-format off
const Golden kGolden[] = {
    {"gen_seed101", {0x83ec333ada3c2435ull, 0x8ba0bf313381955full, 0x6aa1d9aa9e63dc69ull, 0xb241306f735fc90cull, 0x40d8b41c76b8e46aull, 0x1560cef5f465100bull}},
    {"gen_seed102", {0x6c573341ca373c66ull, 0x0a081bb2cc636e3full, 0xe4abb49d28c14e7eull, 0xb09b1e4e6952bae6ull, 0x1ae673ad70b97c12ull, 0xc888cc6c628a6447ull}},
    {"gen_seed103", {0xcd5d1defb49a079aull, 0xf73217d93f1e45ecull, 0x658206cfd4ffb576ull, 0x1dcf68572d75b5f0ull, 0xb472183cf9018328ull, 0x3ecc084f2a4c758full}},
    {"gen_seed104", {0xa25cef3c71dcd24eull, 0xbc69a51c9c791337ull, 0xda771b1180831150ull, 0xc1eee79d8995ba63ull, 0xc319ae00fee77265ull, 0xeb3089be9b50d096ull}},
    {"gen_seed105", {0x6a8d108d94f1da24ull, 0x62e8638fc3405a9full, 0x12b3420fb85b1c14ull, 0x44ee450d52ac6344ull, 0xbb9b4ec146683184ull, 0x4dc34298248cdf67ull}},
    {"gen_seed106", {0x3a3fa1280624b129ull, 0x780ed0d4da7714ceull, 0x974f04020b3800ceull, 0x67af46cf3be1d67aull, 0x7f0ddf7a748e2fd8ull, 0xbb4b388a27b2f6ccull}},
    {"gen_seed107", {0x9fcf5a99612387d4ull, 0x1ff37e45dc7ac483ull, 0x0e1ae7d28f0042b8ull, 0x713572a04eddc87bull, 0xa78b0a739c649357ull, 0x88ca986b123a1211ull}},
    {"gen_seed108", {0xc8df10d558adbc60ull, 0x472287082ae4ee52ull, 0x32b99adbc1ec56b7ull, 0x949490440185cdf2ull, 0x8b986a6d1880badcull, 0xc28c98a0b6bcdac3ull}},
    {"gen_seed109", {0x027372fce8ee3cfcull, 0xa9bfe199ecb4c5f4ull, 0xf7d8883b51c223dbull, 0xa8ec6edf390e1a2aull, 0xa777209af1baf12full, 0x70555c94f62a96a0ull}},
    {"gen_seed110", {0x1e60e200bef49a74ull, 0x09a2cdefc21bcc4cull, 0x98b9460389bdf4a0ull, 0xca61bb0ec280daa7ull, 0x7996d1254bac469dull, 0x7091422797c0f232ull}},
    {"sync_barrier_wraparound", {0x03439e0c58ece538ull, 0x8568a1ebfcd7f05cull, 0x60b970b26c7e8fa6ull, 0x741a9479937c649dull, 0xdbf17e86cbd9a9eeull, 0xe136e91a983def42ull}},
    {"sync_cond_lost_wakeup", {0x441da808a24f67d7ull, 0x441da808a24f67d7ull, 0xe187041c24ce664dull, 0xc02609ab196bc437ull, 0x9152cbe3b061dd6eull, 0x3b8702f689d9b324ull}},
    {"sync_join_exited_thread", {0x5ed1cf50cd1b853bull, 0x1e5f5df8e6460228ull, 0xd57af455c22a33e4ull, 0x27eae6431ee784f4ull, 0x3db2c93f601a0925ull, 0xdc35db7f71045142ull}},
    {"sync_mutex_relock", {0xc3c402ed8a821544ull, 0x1bdf27465f7ceb03ull, 0xed759fa05af7c873ull, 0x6f5d82673f273cfeull, 0x8e77aaa967f38683ull, 0x89fe787610a03f7aull}},
    {"sync_unlock_cross_thread", {0x45b2ae9aafd1e95cull, 0x24c33700409e056aull, 0xff0e7c625d38ac8aull, 0x4dbb6b35633f6f67ull, 0xdc09bb6ad5eb459eull, 0x95a68f0ad87457a2ull}},
};
// clang-format on

// Keeps the printed test parameter stable (the default dumps the bytes,
// pointer included).
void PrintTo(const Golden& g, std::ostream* os) { *os << g.stem; }

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ull", v);
  return buf;
}

class CompileGolden : public testing::TestWithParam<Golden> {};

TEST_P(CompileGolden, DigestsMatchTable) {
  const Golden& g = GetParam();
  const std::string path =
      (std::filesystem::path(ARTC_CORPUS_DIR) / (std::string(g.stem) + ".trace"))
          .string();
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  const trace::TraceBundle bundle = trace::ReadTraceBundleFile(path);
  ASSERT_FALSE(bundle.trace.events.empty());
  const fsmodel::AnnotatedTrace ann =
      fsmodel::AnnotateTrace(bundle.trace, bundle.snapshot);

  std::string row;
  for (size_t c = 0; c < kConfigCount; ++c) {
    const CompileOptions& opts = kConfigs[c].options;
    const uint64_t got =
        DigestBenchmark(Compile(bundle.trace, bundle.snapshot, opts));
    row += (c == 0 ? "" : ", ") + Hex(got);
    EXPECT_EQ(got, g.digest[c]) << g.stem << " / " << kConfigs[c].name;
    // The annotation-reuse overload must land on the same output.
    EXPECT_EQ(DigestBenchmark(Compile(bundle.trace, bundle.snapshot, ann, opts)),
              got)
        << g.stem << " / " << kConfigs[c].name << " (precomputed annotation)";
  }
  if (HasFailure()) {
    ADD_FAILURE() << "actual row: {\"" << g.stem << "\", {" << row << "}},";
  }
}

TEST(CompileGoldenTable, CoversEveryCorpusTrace) {
  size_t traces = 0;
  for (const auto& entry : std::filesystem::directory_iterator(ARTC_CORPUS_DIR)) {
    if (entry.path().extension() != ".trace") {
      continue;
    }
    ++traces;
    const std::string stem = entry.path().stem().string();
    bool found = false;
    for (const Golden& g : kGolden) {
      found = found || stem == g.stem;
    }
    EXPECT_TRUE(found) << stem << " has no golden row";
  }
  EXPECT_EQ(traces, sizeof(kGolden) / sizeof(kGolden[0]));
}

std::string NameOf(const testing::TestParamInfo<Golden>& info) {
  return info.param.stem;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CompileGolden, testing::ValuesIn(kGolden),
                         NameOf);

}  // namespace
}  // namespace artc::core
