#include "src/core/compiler.h"

#include "src/core/dep_builder.h"
#include "src/fsmodel/resource_model.h"
#include "src/obs/obs.h"
#include "src/util/check.h"

namespace artc::core {
namespace {

using internal::DepBuilder;
using internal::EventCompiler;

// Temporal-method emission. Issue ordering alone does not guarantee that
// the open defining a cross-thread descriptor has *completed* (and
// therefore filled the remap slot) before a use on another thread executes.
// Fold in the minimal infrastructure deps so the temporal baseline is
// runnable, as in the paper. These are not counted as ordering edges. Each
// fd/aio slot is one generation, so it has exactly one defining event —
// precompute them from the finished scan (hence a second pass) so emission
// stays a single forward pass. Fills the dep arena the scan left empty.
void EmitTemporalDeps(EventCompiler& ec, CompiledBenchmark* out) {
  std::vector<uint32_t> fd_def(out->fd_slot_count, kNoEvent);
  std::vector<uint32_t> aio_def(out->aio_slot_count, kNoEvent);
  for (uint32_t i = 0; i < out->actions.size(); ++i) {
    const CompiledAction& a = out->actions[i];
    if (a.fd_def_slot >= 0) {
      fd_def[static_cast<size_t>(a.fd_def_slot)] = i;
    }
    if (a.aio_def_slot >= 0) {
      aio_def[static_cast<size_t>(a.aio_def_slot)] = i;
    }
  }
  DepBuilder& builder = ec.builder();
  for (uint32_t i = 0; i < out->actions.size(); ++i) {
    builder.BeginEvent(i, 4);
    if (i > 0) {
      builder.AddDep(i - 1, DepKind::kIssue, RuleTag::kTemporal);
    }
    CompiledAction& a = out->actions[i];
    if (a.fd_use_slot >= 0) {
      builder.AddInfraDep(fd_def[static_cast<size_t>(a.fd_use_slot)]);
    }
    if (a.aio_use_slot >= 0) {
      builder.AddInfraDep(aio_def[static_cast<size_t>(a.aio_use_slot)]);
    }
    const std::vector<Dep>& deps = builder.deps();
    internal::RefinePredelay(ec.meta(), i, deps, &a);
    out->dep_arena.insert(out->dep_arena.end(), deps.begin(), deps.end());
    out->dep_offsets[i + 1] = static_cast<uint32_t>(out->dep_arena.size());
  }
}

// Takes the event vector by value so the public overloads decide whether
// it is copied (lvalue trace) or stolen (rvalue trace).
CompiledBenchmark CompileImpl(std::vector<trace::TraceEvent> events,
                              const trace::FsSnapshot& snapshot,
                              const fsmodel::AnnotatedTrace& ann,
                              const CompileOptions& options) {
  ARTC_OBS_SPAN("compiler", "compile");
  ARTC_CHECK(ann.touches.size() == events.size());
  CompiledBenchmark bench;
  bench.method = options.method;
  bench.modes = options.modes;
  bench.snapshot = snapshot;
  bench.events = std::move(events);
  bench.model_warnings = ann.warnings;

  EventCompiler ec(ann.resources, ann.path_names.get(), options, &bench);
  ec.Reserve(bench.events.size());
  for (size_t i = 0; i < bench.events.size(); ++i) {
    ec.Step(bench.events[i], ann.touches[i]);
    ec.Append();
  }
  if (options.method == ReplayMethod::kTemporal) {
    EmitTemporalDeps(ec, &bench);
  }
  bench.dep_arena_peak_bytes = bench.dep_arena.capacity() * sizeof(Dep);
  return bench;
}

}  // namespace

uint64_t EdgeStats::TotalEdges() const {
  uint64_t n = 0;
  for (uint64_t c : count_by_rule) {
    n += c;
  }
  return n;
}

uint64_t EdgeStats::TotalPruned() const {
  uint64_t n = 0;
  for (uint64_t c : pruned_by_rule) {
    n += c;
  }
  return n;
}

double EdgeStats::MeanLengthNs() const {
  uint64_t n = 0;
  double total = 0;
  for (size_t i = 0; i < count_by_rule.size(); ++i) {
    n += count_by_rule[i];
    total += total_length_ns[i];
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

CompiledBenchmark Compile(trace::Trace t, const trace::FsSnapshot& snapshot,
                          const CompileOptions& options) {
  // Labels exist for debugging and fsmodel tests; the compiler never reads
  // them, so skip materializing one string per resource.
  fsmodel::AnnotateOptions ann_opts;
  ann_opts.materialize_labels = false;
  const fsmodel::AnnotatedTrace ann =
      fsmodel::AnnotateTrace(t, snapshot, ann_opts);
  return CompileImpl(std::move(t.events), snapshot, ann, options);
}

CompiledBenchmark Compile(trace::Trace t, const trace::FsSnapshot& snapshot,
                          const fsmodel::AnnotatedTrace& annotated,
                          const CompileOptions& options) {
  return CompileImpl(std::move(t.events), snapshot, annotated, options);
}

}  // namespace artc::core
