"""One workload in one process: set up, measure, check, report.

Started by ``run.py``; not meant to be run by hand, though it can be:

    python3 bench/worker.py --workload certify_highdim --seed 1 --seconds 5 --trace 0

The last line of standard output is a JSON object with the raw figures.
``--setup-only`` stops after importing the package and preparing the
inputs and reports just that time.

Measurement is a closed loop with one caller: each job starts when the one
before it has returned.  Whole rounds of the workload's jobs run until the
requested time has passed, so every run attempts the same mix of jobs.
Only the jobs themselves are timed; digests of the outputs are taken
between rounds, and the correctness checks run after the loop.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Untimed jobs run before measuring, for at least this long: the first
#: second or so of BLAS calls in a fresh process runs several times slower.
WARMUP_S = 2.0


def _import_package() -> None:
    sys.path.insert(0, SRC)
    import fpopt

    if os.path.dirname(os.path.dirname(os.path.abspath(fpopt.__file__))) != SRC:
        raise SystemExit(f"bench: fpopt was imported from {fpopt.__file__}, not from {SRC}")


class Phase:
    """Job timings of one measured stretch, kept per job of the round.

    Every figure is built from each job's median over the rounds: a shared
    machine has slow spells of a second or more, which a mean over the run
    follows and a median over rounds does not.  A round's typical busy time
    is the sum of its jobs' medians, and the median job latency is the
    median of the jobs' medians.
    """

    def __init__(self, labels):
        self.labels = list(labels)
        self.wall = {label: [] for label in self.labels}
        self.cpu = {label: [] for label in self.labels}
        self.failed = 0
        self.rounds = 0
        self.digests = set()

    @property
    def jobs(self) -> int:
        return self.rounds * len(self.labels)

    def medians(self, samples: dict) -> list:
        return [statistics.median(samples[label]) for label in self.labels]

    @property
    def round_s(self) -> float:
        return sum(self.medians(self.wall))


def run_round(jobs, phase: Phase, tracer=None) -> None:
    clock, cpu_clock = time.perf_counter, time.process_time
    if tracer is not None:
        tracer.install()
    try:
        for i, (label, run) in enumerate(jobs):
            if tracer is not None:
                tracer.current_job = phase.jobs + i
            c0 = cpu_clock()
            t0 = clock()
            ok = run()
            t1 = clock()
            phase.cpu[label].append(cpu_clock() - c0)
            phase.wall[label].append(t1 - t0)
            phase.failed += not ok
    finally:
        if tracer is not None:
            tracer.uninstall()
    phase.rounds += 1


def run_rounds(workload, seconds: float, tracers=(None,), rounds: int = 0, jobs=None) -> list:
    """Run whole rounds until ``seconds`` have passed (or exactly ``rounds``).

    Rounds cycle through ``tracers`` (None runs untraced) and each tracer
    gets its own Phase; alternating round by round lets a traced and an
    untraced stretch see the same slow and fast spells of the machine.
    A round is ``jobs``, by default all of the workload's jobs.
    """
    jobs = jobs or workload.jobs()
    phases = [Phase(label for label, _ in jobs) for _ in tracers]
    start = time.perf_counter()
    while True:
        for phase, tracer in zip(phases, tracers):
            run_round(jobs, phase, tracer)
            phase.digests.add(workload.digest())
        if rounds:
            if phases[0].rounds >= rounds:
                return phases
        elif time.perf_counter() - start >= seconds:
            return phases


def warm_up(workload) -> None:
    jobs = workload.jobs()
    deadline = time.perf_counter() + WARMUP_S
    i = 0
    while True:
        jobs[i % len(jobs)][1]()
        i += 1
        if time.perf_counter() >= deadline:
            return


def end_to_end(phase: Phase, peak_rss_mb: float) -> dict:
    per_round = len(phase.labels)
    return {
        "jobs_per_s": per_round / phase.round_s,
        "job_ms_p50": 1e3 * statistics.median(phase.medians(phase.wall)),
        "cpu_ms_per_job": 1e3 * sum(phase.medians(phase.cpu)) / per_round,
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_package()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work_{args.workload}_{os.getpid()}")
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(workload, args, setup_s, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, args, setup_s: float, out_dir: str) -> int:
    warm_up(workload)
    result = {"setup_s": setup_s}
    if args.trace:
        from tracer import Tracer

        tracer, memory = Tracer(), Tracer(memory=True)
        untraced, traced = run_rounds(workload, args.seconds, (None, tracer))
        phases = [untraced, traced] + run_rounds(workload, 0.0, (memory,), rounds=1,
                                                 jobs=workload.memory_jobs())
        layers = tracer.layer_metrics(traced.jobs)
        layers["propagator.peak_alloc_mb"] = memory.peak_alloc / 2**20
        layers["trace.overhead_pct"] = 100.0 * (traced.round_s / untraced.round_s - 1.0)
        result["metrics"] = layers
        tracer.write(os.path.join(out_dir, f"trace_{workload.name}.json"))
    else:
        phases = run_rounds(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = end_to_end(phases[0], peak_rss_mb)

    correct = True
    digests = set().union(*(p.digests for p in phases))
    if len(digests) != 1:
        correct = False
        print(f"bench: {workload.name} outputs differ between rounds", file=sys.stderr)
    from oracle import CheckFailure

    try:
        workload.check()
    except CheckFailure as exc:
        correct = False
        print(f"bench: {workload.name} check failed: {exc}", file=sys.stderr)
    result.update(
        correct=correct,
        attempted=sum(p.jobs for p in phases),
        failed=sum(p.failed for p in phases),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
