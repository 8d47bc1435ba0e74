// Windowed streaming compilation: annotate + compile a trace one event at
// a time without ever materializing the whole trace, its annotation, or
// (optionally) the compiled benchmark.
//
// The batch pipeline holds the full trace (~200 B/event), the full touch
// annotation, and the full dep arena in memory at once. CompileStream runs
// the same per-event compile step as the batch compiler
// (internal::EventCompiler in dep_builder.h: remap slots, dependency edges,
// predelay, pruning) but feeds it from the incremental annotator one event
// at a time, so peak memory is the live resource tables plus a ~20-byte
// per-event sidecar (thread index + timestamps, consulted when later edges
// reference the event) plus whatever window the caller feeds from. The
// step consumes only data about the current and earlier events, which is
// exactly what the sidecar keeps, so the output is the batch compiler's.
//
// Two consumption modes:
//  * materialize=true: Finish() fills a CompiledBenchmark equal to
//    Compile()'s (the differential tests rely on this). Peak memory is then
//    O(trace) again — the point is validation, not economy.
//  * materialize=false: nothing per-event is retained beyond the sidecar;
//    Finish() returns only the digest. This is the multi-GB path.
//
// Either way Finish() returns a canonical FNV-1a digest over the compiled
// stream (events, actions, pruned dep edges, thread/slot tables, edge
// stats). DigestBenchmark() computes the identical digest from a
// materialized CompiledBenchmark, so "stream output == batch output" is one
// integer comparison. The digest deliberately excludes
// dep_arena_peak_bytes, an allocator observation rather than output.
//
// ARTC method only: temporal-method emission needs the completed slot
// wiring of the *whole* trace (a second pass), which contradicts streaming.
#ifndef SRC_CORE_COMPILE_STREAM_H_
#define SRC_CORE_COMPILE_STREAM_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/compiled.h"
#include "src/core/compiler.h"
#include "src/fsmodel/resource_model.h"
#include "src/trace/event.h"
#include "src/trace/snapshot.h"
#include "src/trace/stream_reader.h"

namespace artc::core {

struct CompileStreamOptions {
  // method must stay kArtc; prune_redundant_deps and modes are honored.
  CompileOptions compile;
  // Keep the full CompiledBenchmark (events, actions, dep arena) for
  // Finish(). Costs O(trace) memory — for tests and small traces.
  bool materialize = false;
};

class CompileStream {
 public:
  explicit CompileStream(const trace::FsSnapshot& snapshot,
                         const CompileStreamOptions& options = {});
  ~CompileStream();
  CompileStream(const CompileStream&) = delete;
  CompileStream& operator=(const CompileStream&) = delete;

  // Feeds the next event. Events MUST arrive in trace (issue) order;
  // TraceEvent::index must be dense from 0 (StreamReader guarantees both).
  void Push(const trace::TraceEvent& ev);

  // Seals the stream and returns the canonical digest. If materialize was
  // set and bench != nullptr, *bench receives the full benchmark. Must be
  // called exactly once; the stream must not be used afterwards.
  uint64_t Finish(CompiledBenchmark* bench);

  uint64_t events_seen() const;
  // The streaming state actually resident right now (sidecar + resource
  // tables + pruner clocks; excludes a materialized benchmark). The RSS
  // acceptance test asserts this stays far below the batch footprint.
  uint64_t state_bytes() const;
  // Payload bytes held by the path-name interner — the one component of
  // state_bytes that grows with path diversity rather than event count.
  uint64_t interner_bytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// The same canonical digest, computed from a materialized benchmark.
uint64_t DigestBenchmark(const CompiledBenchmark& bench);

struct CompileStreamFileResult {
  uint64_t digest = 0;
  uint64_t events = 0;
  uint64_t peak_state_bytes = 0;  // max CompileStream::state_bytes() seen
  uint64_t windows = 0;
};

// Drives a StreamReader (text or ARTCT, sniffed) through a CompileStream in
// bounded windows. Returns false with *diag set on open/parse failure.
// While it runs, the stream.state_bytes and stream.interner_bytes gauges
// carry the stream's current sizes; on return, success or failure, they
// are back where the call found them.
// bench may be null when stream_options.materialize is false.
bool CompileStreamFile(const std::string& path,
                       const trace::StreamReaderOptions& reader_options,
                       const CompileStreamOptions& stream_options,
                       CompileStreamFileResult* result,
                       CompiledBenchmark* bench, trace::ParseDiag* diag);

}  // namespace artc::core

#endif  // SRC_CORE_COMPILE_STREAM_H_
