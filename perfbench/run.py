#!/usr/bin/env python3
"""End-to-end trace -> replay benchmark for ARTC.

Usage (from the repository root):

    python3 perfbench/run.py --workload magritte|lockserver|webserver|mailspool \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), generates the workload's trace files from
--seed several times (setup_s is the median), then runs the user pipeline on
them -- parse -> annotate -> compile -> replay on the simulated stack ->
critical path, plus the out-of-core stream compile of the same files -- for
--seconds, split over three fresh processes whose medians are combined.

--trace 0 reports the end-to-end metrics; --trace 1 also runs traced
iterations and reports the per-layer metrics. Every run checks its outputs:
stream compile == batch compile, every iteration (and every traced
iteration) gives the same virtual-output digest, and for seed 1 the digest
equals the one in perfbench/reference.json and no more replayed actions
fail than the reference allows. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit status is 0 only
when the run is correct.

The --fault-* flags exist for perfbench/selftest.py, which shows that each
check can fail.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("magritte", "lockserver", "webserver", "mailspool")
REFERENCE_SEED = 1
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 2.0
# --seconds is split over this many fresh measurement processes, and each
# metric is the median of theirs: host speed here differs from process to
# process as well as over time, and one long process sees only one draw.
MEASURE_PROCESSES = 3
RUN_DEADLINE_S = 175

# The pipeline's big per-event tables are freed and rebuilt every iteration.
# With glibc's defaults they go back to the kernel and come back as fresh
# page faults each time, whose cost swings with memory pressure from outside
# the process; keeping freed memory in the process leaves only the first
# iteration paying them, as a single user evaluation does.
CHILD_ENV = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.mmap_threshold=4294967295:"
                 "glibc.malloc.trim_threshold=4294967295")

E2E_UNITS = {
    "e2e_s": "s",
    "ingest_actions_per_s": "1/s",
    "replay_actions_per_s": "1/s",
    "stream_ingest_actions_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ops_pct": "%",
}


def layer_unit(name):
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_us_per_event", "us"), ("_pct", "%"),
                         ("_bytes", "bytes"), ("_mb", "MB"), ("_s", "s"), (".s", "s"),
                         ("_ratio", "ratio"), ("_share", "ratio"), ("_per_action", "1/action")):
        if name.endswith(suffix):
            return unit
    return "count"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the perfbench binary; returns its path or None."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    cmake = shutil.which("cmake")
    if cmake is None:
        log("perfbench: cmake not found")
        return None
    for cmd in ([cmake, "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                [cmake, "--build", build_dir, "-j", str(os.cpu_count() or 1)]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def last_json_line(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def setup(binary, workload, seed, data_dir):
    """Generates the workload repeatedly; returns the setup times.

    At least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS of setup
    have been measured (at most SETUP_MAX_REPEATS), so that a workload whose
    setup takes milliseconds still gets a steady median.
    """
    times = []
    while len(times) < SETUP_MAX_REPEATS and (len(times) < SETUP_MIN_REPEATS or
                                              sum(times) < SETUP_MIN_SECONDS):
        shutil.rmtree(data_dir, ignore_errors=True)
        proc = subprocess.run([binary, "setup", "--workload", workload, "--seed", str(seed),
                               "--dir", data_dir], capture_output=True, text=True, timeout=120,
                              env=CHILD_ENV)
        if proc.returncode != 0:
            log(proc.stderr)
            return None
        times.append(last_json_line(proc.stdout)["setup_s"])
    return times


def combine(runs):
    """Merges the measurement processes' results: medians of their metrics."""
    result = dict(runs[0])
    result["errors"] = [e for r in runs for e in r["errors"]]
    for key in ("iterations", "traced_iterations"):
        result[key] = sum(r[key] for r in runs)
    if len({r.get("digest") for r in runs}) > 1:
        result["errors"].append("measurement processes disagree on the virtual-output digest")
    if result["errors"]:
        return result
    for key in E2E_UNITS:
        if key in result:
            result[key] = statistics.median(r[key] for r in runs)
    if "layers" in result:
        result["layers"] = {k: statistics.median(r["layers"][k] for r in runs)
                            for k in result["layers"]}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault-replay-seed", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--fault-drop-trace", help=argparse.SUPPRESS)
    ap.add_argument("--fault-perturb-traced", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--fault-empty-snapshot", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    start = time.monotonic()

    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)["workloads"][args.workload]

    binary = build()
    if binary is None:
        return 1
    data_root = os.path.join(ROOT, ".bench_data")
    data_dir = os.path.join(data_root, args.workload)
    setup_times = setup(binary, args.workload, args.seed, data_dir)
    if setup_times is None:
        log("perfbench: setup failed")
        return 1

    cmd = [binary, "run", "--dir", data_dir,
           "--seconds", str(max(1, args.seconds // MEASURE_PROCESSES))]
    if args.trace:
        cmd += ["--trace", "--spans", os.path.join(data_root, args.workload + ".spans")]
    if args.fault_replay_seed is not None:
        cmd += ["--replay-seed", str(args.fault_replay_seed)]
    if args.fault_drop_trace:
        cmd += ["--drop-trace", args.fault_drop_trace]
    if args.fault_perturb_traced:
        cmd += ["--perturb-traced"]
    if args.fault_empty_snapshot:
        cmd += ["--empty-snapshot"]
    runs = []
    for _ in range(MEASURE_PROCESSES):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV,
                              timeout=max(10, RUN_DEADLINE_S - (time.monotonic() - start)))
        sys.stderr.write(proc.stderr)
        run = last_json_line(proc.stdout) if proc.returncode in (0, 1) else None
        if run is None:
            log("perfbench: run failed with status %d" % proc.returncode)
            return 1
        runs.append(run)
    result = combine(runs)

    # The reference holds seed 1's outputs. For other seeds the digest and the
    # failed-action count are printed, so two commits can be compared.
    errors = list(result["errors"])
    digest = result.get("digest")
    if args.seed == REFERENCE_SEED and digest is not None:
        if digest != reference["digest_seed1"]:
            errors.append("virtual-output digest %s != reference %s for seed %d" %
                          (digest, reference["digest_seed1"], REFERENCE_SEED))
        if result["failed_events"] > reference["max_failed_events"]:
            errors.append("%d replayed actions failed; the reference allows %d" %
                          (result["failed_events"], reference["max_failed_events"]))
    correct = not errors
    evaluations = (result["iterations"] + result["traced_iterations"]) * result["traces"]
    attempted = max(1, evaluations)

    metrics = {}
    if "e2e_s" in result:
        values = {k: result[k] for k in E2E_UNITS if k in result}
        values["setup_s"] = statistics.median(setup_times)
        values["ok_ops_pct"] = 100.0 * (1 - result["failed_events"] / result["actions"])
        if args.trace:
            metrics = {k: {"value": v, "unit": layer_unit(k)}
                       for k, v in result["layers"].items()}
        else:
            metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cores": result["cores"], "build_type": result["build_type"],
        "digest": digest, "reference_digest": reference["digest_seed1"],
        "setup_s": setup_times, "errors": errors, "run": result,
    }
    os.makedirs(data_root, exist_ok=True)
    with open(os.path.join(data_root, "%s.trace%d.json" % (args.workload, args.trace)), "w") as f:
        json.dump(summary, f, indent=1)

    print("workload %s  seed %d  cores %d  build %s  iterations %d (+%d traced) x %d traces" %
          (args.workload, args.seed, result["cores"], result["build_type"],
           result["iterations"], result["traced_iterations"], result["traces"]))
    print("digest %s%s  failed replay actions %s" %
          (digest, "  (reference)" if args.seed == REFERENCE_SEED else "",
           result.get("failed_events")))
    for e in errors:
        print("FAILED: " + e)
    for k, m in metrics.items():
        print("%-40s %16.6f %s" % (k, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": 0 if correct else attempted, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
