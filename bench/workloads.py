"""The benchmark's workloads: seeded inputs, jobs, and output checks.

Each workload prepares its inputs from the seed when it is created, then
hands the worker a fixed list of jobs that make up one round.  A job calls
the package and nothing else; output checks run after the timed loop on
the outputs of the last round, and a digest taken after every round shows
that each round produced the same bytes.

The package is called through its modules (``cli.main``,
``propagator.norm_curve`` ...) at call time, so that tracing wrappers
installed on those modules see every call.  The checks import ``oracle``
when they run, which keeps its scipy.optimize import out of set-up time.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os

import numpy as np

# The package namespace re-exports a function named ``propagator``, which
# hides the submodule of that name from ``from fpopt import ...``.
benchmarks, cli, construction, equilibrium, propagator = (
    importlib.import_module(f"fpopt.{name}")
    for name in ("benchmarks", "cli", "construction", "equilibrium", "propagator"))

#: Envelope rate of the 2D study (the fastest rate of diag(1/eps, 1)).
RATE_2D = 1.0
#: Sampling horizon of the 2D curves, as in the paper's figures.
T_MAX_2D = 8.0
#: Horizon over which the package scans 2D envelopes (max(20/rate, 4 * switch)).
SCAN_HORIZON_2D = 20.0


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, tag])


def _random_covariance(rng, dim: int, kappa: float) -> np.ndarray:
    """SPD matrix with eigenvalues 1 and kappa at the ends, log-uniform in
    between, and Haar-random eigenvectors."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    inner = np.sort(np.exp(rng.uniform(0.0, np.log(kappa), dim - 2)))
    variances = np.concatenate(([1.0], inner, [kappa]))
    k = (q * variances) @ q.T
    return 0.5 * (k + k.T)


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _read_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _load_csv(path):
    """Columns of a CSV file with one header line."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T


class Workload:
    """One round of jobs over fixed inputs; subclasses fill in the parts."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def path(self, *parts) -> str:
        return os.path.join(self.workdir, *parts)

    def jobs(self) -> list:
        """``(label, run)`` pairs; ``run()`` returns False when the job failed."""
        raise NotImplementedError

    def memory_jobs(self) -> list:
        """The jobs a traced run repeats under tracemalloc: a whole round."""
        return self.jobs()

    def digest(self) -> str:
        """Fingerprint of the outputs the last round left behind."""
        raise NotImplementedError

    def check(self) -> None:
        """Raise oracle.CheckFailure if an output of the last round is wrong."""
        raise NotImplementedError


class Switching2D(Workload):
    """The paper's 2D time-switching study through the command line.

    One round: rank five seeded initial-layer schedules with ``compare``;
    for a seeded mu = 13.8 rotation, find the first envelope tangency and
    sample the schedule switched there with ``curve``; regenerate the
    fig3 and fig4 data with ``reproduce`` (fig4 switches mu = 11 at its
    first tangency).  Every command runs at the package's default grid
    size, as a user's would.
    """

    name = "switching_2d"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = _rng(seed, 2)
        jitter = lambda: 1.0 + rng.uniform(-0.05, 0.05)  # noqa: E731
        self.eps = benchmarks.DEFAULT_EPS
        self.switch = 0.1 * jitter()
        self.reference = benchmarks.rotating_pair(benchmarks.REFERENCE_MU)
        firsts = {
            "fp1": self.reference,
            "fp2": benchmarks.symmetric_pair(),
            "fp3": benchmarks.balanced_pair(),
            "fp4": benchmarks.rotating_pair(3.0 * jitter()),
            "fp5": benchmarks.rotating_pair(11.0 * jitter()),
        }
        self.compare_files = {}
        self.first_drifts = {}
        for label, pair in firsts.items():
            path = self.path(f"cmp_{label}.json")
            self._write_schedule(path, pair, self.switch)
            self.compare_files[label] = path
            self.first_drifts[f"cmp_{label}.json"] = pair.drift
        self.tangency_pair = benchmarks.rotating_pair(13.8 * jitter())
        self.tangency_switch = None
        os.makedirs(self.path("fig3"), exist_ok=True)
        os.makedirs(self.path("fig4"), exist_ok=True)

    @property
    def k(self) -> np.ndarray:
        return np.diag([1.0 / self.eps, 1.0])

    def _write_schedule(self, path, first, switch) -> None:
        doc = {"K": {"diag": [1.0 / self.eps, 1.0]},
               "schedule": [
                   {"pair": {"C": first.drift.tolist(), "D": first.diffusion.tolist()},
                    "duration": switch},
                   {"pair": {"C": self.reference.drift.tolist(),
                             "D": self.reference.diffusion.tolist()}}]}
        with open(path, "w") as handle:
            json.dump(doc, handle)

    def _compare(self) -> bool:
        argv = ["compare", *self.compare_files.values(), "--rate", str(RATE_2D),
                "--out", self.path("compare.tsv")]
        return cli.main(argv) == 0

    def _tangency_curve(self) -> bool:
        switch = propagator.tangency_time(self.tangency_pair, RATE_2D)
        self.tangency_switch = switch
        problem = self.path("tangency.json")
        self._write_schedule(problem, self.tangency_pair, switch)
        argv = ["curve", problem, "--rate", str(RATE_2D), "--tmax", str(T_MAX_2D),
                "--out", self.path("tangency.csv")]
        return cli.main(argv) == 0

    def _reproduce(self, figure) -> bool:
        return cli.main(["reproduce", figure, "--outdir", self.path(figure)]) == 0

    def jobs(self) -> list:
        return [
            ("compare", self._compare),
            ("tangency_fp6", self._tangency_curve),
            ("reproduce_fig3", lambda: self._reproduce("fig3")),
            ("reproduce_fig4", lambda: self._reproduce("fig4")),
        ]

    def memory_jobs(self) -> list:
        """Only the ``curve`` job, a scan and a curve at the default grid:
        tracemalloc hooks every small allocation of the 2x2 evaluations and
        slows a whole round of this workload sevenfold, to 83 s."""
        return [job for job in self.jobs() if job[0] == "tangency_fp6"]

    def _outputs(self) -> list:
        files = [self.path("compare.tsv"), self.path("tangency.csv")]
        for figure in ("fig3", "fig4"):
            folder = self.path(figure)
            files.extend(os.path.join(folder, n) for n in sorted(os.listdir(folder)))
        return files

    def digest(self) -> str:
        return _digest(*(_read_bytes(f) for f in self._outputs()),
                       repr(self.tangency_switch).encode())

    # ----------------------------------------------------------------- checks

    def _rotating_drift(self, mu) -> np.ndarray:
        root = np.sqrt(self.eps)
        return np.array([[0.0, -mu / root], [mu * root, 2.0]])

    def _flow(self, first_drift, switch):
        """Oracle flow of ``first_drift`` switched to the reference at
        ``switch``; with no switch, of the reference alone."""
        from oracle import Flow, whiten
        reference = whiten(self.k, self._rotating_drift(7.0))
        if switch is None:
            return Flow([reference])
        return Flow([whiten(self.k, first_drift), reference], [switch])

    def _check_csv(self, label, path, flow) -> float:
        from oracle import check_curve
        times, norm, envelope = _load_csv(path)
        constant = float(envelope[0])
        check_curve(label, flow, times, norm, envelope, RATE_2D, constant, SCAN_HORIZON_2D)
        return constant

    def check(self) -> None:
        from oracle import check_constant, closed_form_constant_2d, require, whiten

        ref_ct = whiten(self.k, self._rotating_drift(7.0))
        fp1_exact = closed_form_constant_2d(ref_ct)
        require(abs(fp1_exact - np.sqrt(4.0 / 3.0)) <= 1e-12,
                f"closed form of the reference rotation is {fp1_exact!r}, not sqrt(4/3)")

        # compare: five seeded schedules, ranked best first
        with open(self.path("compare.tsv")) as handle:
            rows = [line.split("\t") for line in handle.read().splitlines()[1:]]
        require(len(rows) == 5, f"compare printed {len(rows)} rows, expected 5")
        constants = [float(r[1]) for r in rows]
        require(constants == sorted(constants), "compare rows are not sorted by constant")
        for label, value, _ in rows:
            flow = self._flow(self.first_drifts[label], self.switch)
            check_constant(f"compare {label}", flow, RATE_2D, float(value), SCAN_HORIZON_2D)
            if label == "cmp_fp1.json":
                require(abs(float(value) - fp1_exact) <= 1e-8 * fp1_exact,
                        f"compare fp1: {value} differs from the closed form {fp1_exact!r}")

        # the tangency-timed schedule: the switch is a tangency of the first pair
        self._check_tangency("tangency fp6", self.tangency_pair.drift, self.tangency_switch)
        self._check_csv("tangency fp6", self.path("tangency.csv"),
                        self._flow(self.tangency_pair.drift, self.tangency_switch))

        # fig3: the paper's five cases at switch 0.1
        eps = self.eps
        paper_first = {
            "fp1": self._rotating_drift(7.0),
            "fp2": np.diag([eps, 1.0]),
            "fp3": 2.0 * eps / (1.0 + eps) * np.eye(2),
            "fp4": self._rotating_drift(3.0),
            "fp5": self._rotating_drift(11.0),
        }
        fig3 = {}
        for label, drift in paper_first.items():
            fig3[label] = self._check_csv(
                f"fig3 {label}", self.path("fig3", f"fig3_schedule_{label}.csv"),
                self._flow(drift, 0.1))
        require(abs(fig3["fp1"] - fp1_exact) <= 1e-8 * fp1_exact,
                f"fig3 fp1 constant {fig3['fp1']!r} is not sqrt(4/3)")
        require(all(fig3["fp5"] < fig3["fp1"] < fig3[w] for w in ("fp2", "fp3", "fp4")),
                f"fig3 ordering fp5 < fp1 < fp2, fp3, fp4 fails: {fig3}")
        _, envelope = _load_csv(self.path("fig3", "fig3_envelope_fp1.csv"))
        package_2d = propagator.best_constant_2d(self.reference)
        require(abs(envelope[0] - fp1_exact) <= 1e-8 * fp1_exact
                and abs(package_2d - fp1_exact) <= 1e-12 * fp1_exact,
                f"fig3 reference envelope {envelope[0]!r}, best_constant_2d {package_2d!r},"
                f" closed form {fp1_exact!r}")

        # fig4: tangency-timed switching, tuned fp5 reaches sqrt(6/5)
        with open(self.path("fig4", "fig4_manifest.json")) as handle:
            manifest = json.load(handle)
        switches = manifest["switch_times"]
        cases = {"fp1": (None, None),
                 "fp5": (self._rotating_drift(11.0), switches["fp5"]),
                 "fp6": (self._rotating_drift(13.8), switches["fp6"])}
        fig4 = {}
        for label, (drift, switch) in cases.items():
            fig4[label] = self._check_csv(
                f"fig4 {label}", self.path("fig4", f"fig4_schedule_{label}.csv"),
                self._flow(drift, switch))
        tuned = np.sqrt(6.0 / 5.0)
        require(abs(fig4["fp5"] - tuned) <= 1e-8 * tuned,
                f"fig4 tuned fp5 constant {fig4['fp5']!r} is not sqrt(6/5)")
        require(abs(fig4["fp1"] - fp1_exact) <= 1e-8 * fp1_exact,
                f"fig4 fp1 constant {fig4['fp1']!r} is not sqrt(4/3)")
        self._check_tangency("fig4 fp5", self._rotating_drift(11.0), switches["fp5"])

    def _check_tangency(self, label, first_drift, switch) -> None:
        """The weighted norm of the first pair alone touches its sharp
        constant at ``switch``."""
        from oracle import Flow, closed_form_constant_2d, require, whiten

        first_ct = whiten(self.k, first_drift)
        constant = closed_form_constant_2d(first_ct)
        at_switch = np.exp(RATE_2D * switch) * Flow([first_ct]).norms([switch])[0]
        require(abs(at_switch - constant) <= 1e-8 * constant,
                f"{label}: switch {switch!r} is not a tangency of the first pair")


class DecayHighDim(Workload):
    """Optimal pairs and their exact decay curves in higher dimension.

    One job per dimension: build the covariance object, construct the
    optimal pair at budget 2, and sample its norm curve over the scan
    horizon 20 / rate, on the package's default grid, with the sharp
    envelope at the optimal rate.
    """

    name = "decay_highdim"
    CASES = ((8, 10.0), (32, 100.0), (64, 1000.0))
    BUDGET = 2.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = _rng(seed, 3)
        self.matrices = [_random_covariance(rng, d, kappa) for d, kappa in self.CASES]
        self.results = [None] * len(self.CASES)

    def _job(self, i) -> bool:
        cov = equilibrium.Covariance(self.matrices[i])
        cert = construction.construct_optimal(cov, self.BUDGET)
        curve = propagator.norm_curve(cert.pair, 20.0 / cert.rate, rate=cert.rate)
        self.results[i] = (cert.pair.drift, cert.rate, curve)
        return True

    def jobs(self) -> list:
        return [(f"d{d}", lambda i=i: self._job(i)) for i, (d, _) in enumerate(self.CASES)]

    def digest(self) -> str:
        chunks = []
        for _, rate, curve in self.results:
            chunks += [curve.times.tobytes(), curve.values.tobytes(),
                       repr((rate, curve.sharp_constant)).encode()]
        return _digest(*chunks)

    def check(self) -> None:
        from oracle import Flow, check_curve, require, whiten

        for (dim, _), k, (drift, rate, curve) in zip(self.CASES, self.matrices, self.results):
            label = f"d={dim}"
            lam_min = float(np.linalg.eigvalsh(k)[0])
            require(abs(rate * lam_min - 1.0) <= 1e-9, f"{label}: rate {rate!r} is not 1/min(K)")
            constant = curve.sharp_constant
            require(1.0 <= constant <= self.BUDGET * (1.0 + 1e-9),
                    f"{label}: sharp constant {constant!r} outside [1, {self.BUDGET}]")
            envelope = constant * np.exp(-rate * curve.times)
            flow = Flow([whiten(k, drift)])
            check_curve(label, flow, curve.times, curve.values, envelope, rate, constant,
                        20.0 / rate)


class CertifyHighDim(Workload):
    """``fpopt optimize`` then ``fpopt validate`` on the written certificate.

    The cases sit on either side of the band where the Kalman rank test of
    ``validate`` starts to reject the package's own optimal pairs: for
    each case below, the smallest Kalman singular value stays more than
    2.9 decades away from the 1e-10 threshold over seeds 0-2999, so
    whether a case fails does not depend on the seed.  Left out as
    borderline: d = 6 and 8 at kappa = 1e4, d = 10 and 12 at kappa = 100,
    d = 16 at kappa 10 and 100, d = 20 at kappa 2, d = 4 at kappa 1e6,
    d = 6 at kappa 1e3 and 1e6, d = 8 at kappa 1e6 and d = 12 at kappa 1e4;
    the last two come within 1.4 and 1.8 decades on a few of 3000 seeds.
    """

    name = "certify_highdim"
    CASES = ((4, 2.0), (4, 1e4), (6, 10.0), (6, 100.0), (8, 10.0), (12, 2.0),
             (12, 1e6), (16, 1e4), (24, 2.0), (32, 10.0), (48, 100.0), (64, 1e6))
    BUDGET = 2.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = _rng(seed, 4)
        self.problems = []
        for i, (dim, kappa) in enumerate(self.CASES):
            path = self.path(f"problem_{i}.json")
            with open(path, "w") as handle:
                json.dump({"K": _random_covariance(rng, dim, kappa).tolist(),
                           "c": self.BUDGET}, handle)
            self.problems.append(path)
        self.outcomes = [None] * len(self.CASES)

    def _job(self, i) -> bool:
        cert = self.path(f"cert_{i}.json")
        optimized = cli.main(["optimize", self.problems[i], "--out", cert])
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            validated = cli.main(["validate", cert])
        self.outcomes[i] = (optimized, validated, report.getvalue())
        return optimized == 0 and validated == 0

    def jobs(self) -> list:
        return [(f"d{d}_k{kappa:g}", lambda i=i: self._job(i))
                for i, (d, kappa) in enumerate(self.CASES)]

    def digest(self) -> str:
        chunks = []
        for i, outcome in enumerate(self.outcomes):
            chunks += [repr(outcome).encode(), _read_bytes(self.path(f"cert_{i}.json"))]
        return _digest(*chunks)

    def check(self) -> None:
        from oracle import check_certificate, hypoelliptic_pbh, require, sym_sqrt

        for i, ((dim, kappa), (optimized, validated, text)) in enumerate(
                zip(self.CASES, self.outcomes)):
            label = f"d={dim} kappa={kappa:g}"
            require(optimized == 0, f"{label}: optimize exited {optimized}")
            with open(self.path(f"cert_{i}.json")) as handle:
                doc = json.load(handle)
            check_certificate(label, doc, self.BUDGET)
            report = json.loads(text)
            require(report["rank_diffusion"] == 1, f"{label}: reported rank {report['rank_diffusion']}")
            require(abs(report["trace_diffusion"] - dim) <= 1e-12 * dim,
                    f"{label}: reported Tr D {report['trace_diffusion']!r}")
            if validated == 0:
                require(report["passed"] is True, f"{label}: exit 0 but passed is false")
                continue
            # The one failure the benchmark keeps: the Kalman rank test calls
            # an admissible, positive-stable pair not hypoelliptic.
            require(validated == 4, f"{label}: validate exited {validated}")
            require(report["admissible"] and report["positive_stable"]
                    and not report["hypoelliptic"],
                    f"{label}: validation failed for another reason: {report}")
            k = np.asarray(doc["K"])
            root, inv_root = sym_sqrt(k)
            c = np.asarray(doc["C"])
            d = np.asarray(doc["D"])
            require(hypoelliptic_pbh(inv_root @ c @ root, inv_root @ d @ inv_root),
                    f"{label}: the pair is not hypoelliptic, so exit 4 would be right")


WORKLOADS = {w.name: w for w in (Switching2D, DecayHighDim, CertifyHighDim)}
