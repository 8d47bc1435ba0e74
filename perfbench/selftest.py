#!/usr/bin/env python3
"""Negative tests for the perfbench gates: each output check must be able to fail.

Run from the repository root:

    python3 perfbench/selftest.py

A control run on seed 1 must pass. Then each case injects one fault through
run.py's --fault-* flags and must come back incorrect (exit status 1,
"correct": false) with the matching failure message:

  * replaying under another scheduler seed trips the seed-1 digest check;
  * dropping one Magritte trace trips the seed-1 digest check;
  * traced iterations whose virtual outputs differ from the untraced ones
    are rejected;
  * more failed replay actions than the reference allows is a failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BASE = ["--workload", "magritte", "--seed", "1", "--seconds", "1"]
CASES = [
    ("control", ["--trace", "1"], None),
    ("other replay seed", ["--fault-replay-seed", "2"], "!= reference"),
    ("dropped magritte trace", ["--fault-drop-trace", "pages_create.trace"], "!= reference"),
    ("traced differs from untraced", ["--trace", "1", "--fault-perturb-traced"],
     "traced run's virtual outputs differ"),
    ("failed ops above seed", ["--fault-empty-snapshot"], "replayed actions failed"),
]


def main():
    bad = 0
    for name, extra, expect in CASES:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + BASE + extra,
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        verdict = json.loads(lines[-1]) if lines else {}
        if expect is None:
            ok = proc.returncode == 0 and verdict.get("correct") is True
        else:
            ok = (proc.returncode == 1 and verdict.get("correct") is False and
                  any(l.startswith("FAILED:") and expect in l for l in lines))
        bad += not ok
        print("%s  %s" % ("PASS" if ok else "FAIL", name))
        if not ok:
            print(proc.stdout[-3000:] + proc.stderr[-3000:])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
