"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload switching_2d --seed 1 --seconds 25 --trace 0

Run from any directory of a source checkout; the package is imported from
the checkout's ``src/``.  The workload runs in a fresh worker process
(``worker.py``), so that its import, its memory peak and its BLAS threads
are its own.  Set-up time is taken as the median over several fresh
processes, each of which imports the package and prepares the inputs.

With ``--trace 0`` the result carries the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` the worker alternates untraced and
traced rounds and the result carries the per-layer metrics, including the
tracing overhead between the two kinds of round.  The
last line of standard output is always
``{"correct", "attempted", "failed", "metrics"}``; any other exit code than
0 means no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: Fresh processes that only set up, started before and after the worker.
#: With the worker's own set-up they give the samples whose median is
#: setup_s; spreading them over the run keeps one slow spell of the machine
#: from moving the median.
SETUP_PROBES = (4, 5)

#: Hard limit for the whole run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0


def _worker(args: list, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SystemExit("bench: out of time before the worker started")
    try:
        done = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench: worker {args} did not finish within {RUN_LIMIT_S:.0f} s")
    if done.returncode != 0:
        raise SystemExit(f"bench: worker {args} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench: worker {args} printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    before, after = SETUP_PROBES if not args.trace else (0, 0)
    setup = [_worker([*common, "--setup-only"], deadline)["setup_s"] for _ in range(before)]
    raw = _worker(common, deadline)
    setup.append(raw["setup_s"])
    setup += [_worker([*common, "--setup-only"], deadline)["setup_s"] for _ in range(after)]
    values = dict(raw["metrics"], setup_s=statistics.median(setup))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"bench: the worker did not report {missing}")
    print(json.dumps({
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
