#!/usr/bin/env python3
"""Perf-regression gate over the bench harness JSONs.

Usage:
    compare_bench.py BASELINE CURRENT [BASELINE CURRENT ...]
                     [--threshold 0.15] [--update]

Compares each CURRENT bench JSON (as emitted by bench_compile_throughput /
bench_replay_throughput) against its committed BASELINE and exits non-zero
on a regression. Two classes of metric, gated differently:

 * Deterministic virtual-time metrics (action counts, virtual end times,
   edge counts, failure counts, backend parity) do not depend on the host,
   so ANY difference is a failure. These catch semantic regressions that
   masquerade as perf noise — e.g. a compiler change that emits more edges
   or a replay change that shifts the virtual clock.

 * Throughput metrics (*_per_sec) depend on the machine. Shared CI runners
   are not speed-calibrated against the machine that recorded the baseline,
   so raw ratios are meaningless; instead every throughput ratio is
   normalized by the median ratio across ALL throughput metrics in the
   invocation (pass every baseline/current pair in one invocation so the
   median spans both benches). The median factors out machine speed; a
   metric whose *normalized* ratio drops more than --threshold below 1.0
   has regressed relative to its peers and fails the gate. The blind spot —
   a perfectly uniform slowdown across every metric is indistinguishable
   from a slower runner — is the price of a hard gate on shared hardware.

--update rewrites each BASELINE from its CURRENT instead of comparing
(refresh after an intentional perf change; commit the result).
"""

import argparse
import json
import shutil
import statistics
import sys

# Exact-match keys: host-independent outputs of the virtual-time machinery.
DETERMINISTIC_KEYS = (
    "workload",
    "actions",
    "replay_threads",
    "repeat",
    "seed",
    "failed_events",
    "virtual_end_ns",
    "replay_virtual_ns",
    "sim_switches",
    "edges_emitted",
    "edges_after_pruning",
    "edges_pruned",
    "virtual_match",
    "sync_edges",
    "mutex_stall_ns",
    "barrier_stall_ns",
    # bench_sweep: grid-wide virtual aggregates and the cross-jobs
    # byte-identity verdict.
    "cells",
    "failed_cells",
    "end_ns_sum",
    "stall_ns_sum",
    "exec_ns_sum",
    "cells_digest",
    "jobs_match",
)

THROUGHPUT_SUFFIX = "_per_sec"

# Path segments whose throughput is ungateable even after normalization.
# The threads sim backend burns its wall time in host context switches,
# whose cost varies several-fold across runner generations — far beyond any
# usable threshold. Its *virtual* metrics stay exact-gated above; only its
# host-side throughput is skipped.
NOISY_SEGMENTS = frozenset(["threads"])


def flatten(node, prefix=""):
    """Flattens nested dicts/lists to {dotted.key: leaf}. List items keyed by
    their "backend" name when present, else by index."""
    out = {}
    if isinstance(node, dict):
        for k, v in node.items():
            out.update(flatten(v, f"{prefix}{k}."))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            tag = v.get("backend", str(i)) if isinstance(v, dict) else str(i)
            out.update(flatten(v, f"{prefix}{tag}."))
    else:
        out[prefix[:-1]] = node
    return out


def leaf_name(key):
    return key.rsplit(".", 1)[-1]


def compare_pair(base_path, cur_path, problems, ratios):
    with open(base_path) as f:
        base = flatten(json.load(f))
    with open(cur_path) as f:
        cur = flatten(json.load(f))

    for key, bval in sorted(base.items()):
        name = leaf_name(key)
        if key not in cur:
            problems.append(f"{cur_path}: metric {key} missing (baseline has it)")
            continue
        cval = cur[key]
        if name in DETERMINISTIC_KEYS and cval != bval:
            problems.append(
                f"{cur_path}: deterministic metric {key} changed: "
                f"{bval} -> {cval} (must match the committed baseline exactly)"
            )
        elif name.endswith(THROUGHPUT_SUFFIX):
            if not bval or NOISY_SEGMENTS.intersection(key.split(".")):
                continue  # zero baseline or host-noise-bound metric
            ratios.append((f"{cur_path}:{key}", cval / bval))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", metavar="BASELINE CURRENT",
                    help="alternating baseline/current JSON paths")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max tolerated normalized throughput drop (default 0.15)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite each BASELINE from its CURRENT and exit")
    args = ap.parse_args()

    if len(args.files) % 2 != 0:
        ap.error("files must come in BASELINE CURRENT pairs")
    pairs = [(args.files[i], args.files[i + 1])
             for i in range(0, len(args.files), 2)]

    if args.update:
        for base_path, cur_path in pairs:
            json.load(open(cur_path))  # refuse to commit malformed output
            shutil.copyfile(cur_path, base_path)
            print(f"updated {base_path} from {cur_path}")
        return 0

    problems = []
    ratios = []
    for base_path, cur_path in pairs:
        compare_pair(base_path, cur_path, problems, ratios)

    if ratios:
        machine_factor = statistics.median(r for _, r in ratios)
        if machine_factor <= 0:
            problems.append(f"nonpositive median throughput ratio {machine_factor}")
        else:
            print(f"machine-speed factor (median cur/base ratio over "
                  f"{len(ratios)} throughput metrics): {machine_factor:.3f}")
            for label, ratio in ratios:
                normalized = ratio / machine_factor
                status = "ok"
                if normalized < 1.0 - args.threshold:
                    status = "REGRESSION"
                    problems.append(
                        f"{label}: throughput fell to {normalized:.1%} of baseline "
                        f"(machine-normalized; raw ratio {ratio:.3f}, "
                        f"gate {1.0 - args.threshold:.0%})"
                    )
                print(f"  {label}: raw {ratio:.3f} normalized {normalized:.3f} {status}")

    if problems:
        print(f"\nFAIL: {len(problems)} problem(s)", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print("PASS: no perf regressions against committed baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
