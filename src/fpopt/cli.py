"""Command-line front end: problem files in, certificates and curve data out.

Subcommands: ``optimize`` (build and serialise an optimal pair),
``validate`` (check an explicit pair), ``curve`` (sample a decay curve to
CSV), ``compare`` (rank schedules by sharp constant), and ``reproduce``
(regenerate the bundled 2D benchmark figure data).  Exit codes, to which
:func:`main` maps the library's errors: 2 unparsable input (also a rate,
horizon or grid size that the library refuses), 3 invalid envelope constant,
4 failed validation, 5 unsustainable envelope rate, 6 mixed equilibria.  No
plotting here on purpose; every consumer gets deterministic CSV/JSON bytes.

Figures are rows of one table, ``_FIGURES``: each entry only declares its
figure's rows, and :func:`cmd_reproduce` alone knows the output layout.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__, benchmarks
from .construction import VARIANTS, construct_optimal
from .equilibrium import validate_pair
from .errors import FpoptError, InvalidConstant, MixedEquilibria, RateTooLarge
from .propagator import (
    DEFAULT_SAMPLES,
    NormCurve,
    Schedule,
    compare_schedules,
    norm_curve,
    sharp_constant,
    tangency_time,
)
from .serialize import (
    ProblemFormatError,
    certificate_to_dict,
    dump_json,
    load_problem,
)
from .text import write_columns

EXIT_PARSE = 2
EXIT_CONSTANT = 3
EXIT_VALIDATION = 4
EXIT_RATE = 5
EXIT_MIXED = 6

_FIGURE_T_MAX = 8.0


def _fail(message: str, code: int) -> int:
    print(f"fpopt: {message}", file=sys.stderr)
    return code


def _write_text(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def cmd_optimize(args) -> int:
    problem = load_problem(args.input)
    budget = args.budget if args.budget is not None else problem.budget
    if budget is None:
        return _fail("no budget: give 'c' in the problem file or --budget", EXIT_PARSE)
    variant = args.variant or problem.variant
    cert = construct_optimal(problem.covariance, budget, variant=variant)
    doc = certificate_to_dict(cert)
    if args.out:
        dump_json(doc, args.out)
    else:
        dump_json(doc, sys.stdout)
    return 0


def cmd_validate(args) -> int:
    try:
        problem = load_problem(args.input)
        if problem.pair is None:
            return _fail("validation needs an explicit pair in the input", EXIT_PARSE)
        report = validate_pair(problem.pair)
    except FpoptError as exc:
        # the pair could not even be assembled (bad diffusion, over budget, ...)
        dump_json({"passed": False, "error": str(exc)}, sys.stdout)
        return EXIT_VALIDATION
    dump_json(report.as_dict(), sys.stdout)
    return 0 if report.passed else EXIT_VALIDATION


def cmd_curve(args) -> int:
    problem = load_problem(args.input)
    source = problem.source
    if source is None:
        return _fail("curve needs a pair or a schedule in the input", EXIT_PARSE)
    analysis = problem.analysis or {}
    rate = args.rate if args.rate is not None else analysis.get("rate")
    t_max = args.tmax if args.tmax is not None else analysis.get("t_max")
    samples = args.samples if args.samples is not None else analysis.get("samples")
    curve = norm_curve(source, t_max, samples, rate=rate)
    curve.write_csv(args.out or sys.stdout)
    return 0


def cmd_compare(args) -> int:
    schedules, labels = [], []
    for path in args.inputs:
        problem = load_problem(path)
        source = problem.source
        if source is None:
            return _fail(f"{path}: needs a pair or a schedule", EXIT_PARSE)
        schedules.append(source)
        labels.append(os.path.basename(path))
    rows = compare_schedules(schedules, args.rate, labels)
    lines = ["id\tsharp_constant\tmax_drift_frobenius"]
    for row in rows:
        lines.append(f"{row.label}\t{row.sharp_constant:.17g}"
                     f"\t{max(row.drift_norms):.17g}")
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _fig1(samples: int):
    """Three budgets on the benchmark equilibrium: curves, sharp envelopes,
    and the limiting pure-exponential curve."""
    cov = benchmarks.anisotropic_covariance()
    rows = []
    for c in (1.5, 2.0, 3.0):
        cert = construct_optimal(cov, c)
        params = {"c": c, "rate": cert.rate}
        rows.append((f"fig1_norm_c{c:g}.csv", "norm_curve", params,
                     norm_curve(cert.pair, _FIGURE_T_MAX, samples, rate=cert.rate)))
        rows.append((f"fig1_envelope_c{c:g}.csv", "envelope", params, (c, cert.rate)))
    rows.append(("fig1_limit.csv", "limit", {"rate": 1.0}, (1.0, 1.0)))
    return rows, {}


def _fig2(samples: int):
    """Budget sqrt(2): the unit-spaced weight ladder (mu = 3) against the
    shifted ladder (mu = 7), plus the two symmetric baselines."""
    c = float(np.sqrt(2.0))
    rows = []
    for name, pair, params in (
            ("fig2_norm_mu3.csv", benchmarks.rotating_pair(3.0), {"mu": 3.0, "c": c}),
            ("fig2_norm_mu7.csv", benchmarks.rotating_pair(7.0), {"mu": 7.0}),
            ("fig2_norm_symmetric.csv", benchmarks.symmetric_pair(), {}),
            ("fig2_norm_balanced.csv", benchmarks.balanced_pair(), {})):
        curve = norm_curve(pair, _FIGURE_T_MAX, samples)
        rows.append((name, "norm_curve", {**params, "rate": curve.rate}, curve))
    rows.append(("fig2_envelope.csv", "envelope", {"c": c, "rate": 1.0}, (c, 1.0)))
    return rows, {}


def _fig3(samples: int):
    """The five initial-layer candidates, switch time 0.1, plus the sharp
    envelope of the constant reference case."""
    switch = 0.1
    rows = [(f"fig3_schedule_{label}.csv", "norm_curve",
             {"case": label, "switch": switch, "rate": 1.0},
             norm_curve(schedule, _FIGURE_T_MAX, samples, rate=1.0))
            for label, schedule in benchmarks.case_schedules(switch).items()]
    reference = sharp_constant(benchmarks.rotating_pair(benchmarks.REFERENCE_MU), 1.0)
    rows.append(("fig3_envelope_fp1.csv", "envelope",
                 {"constant": reference, "rate": 1.0}, (reference, 1.0)))
    return rows, {"switch": switch}


def _fig4(samples: int):
    """Tangency-timed switching: the reference rotation against initial
    layers of mu = 11 and mu = 13.8, each switched at its first tangency."""
    cases = {"fp1": (Schedule.constant(benchmarks.rotating_pair(benchmarks.REFERENCE_MU)), None)}
    for label, mu in (("fp5", 11.0), ("fp6", 13.8)):
        first = benchmarks.rotating_pair(mu)
        switch = tangency_time(first, 1.0)
        cases[label] = (benchmarks.split_schedule(first, switch), switch)
    rows = []
    for label, (schedule, switch) in cases.items():
        curve = norm_curve(schedule, _FIGURE_T_MAX, samples, rate=1.0)
        rows.append((f"fig4_schedule_{label}.csv", "norm_curve",
                     {"case": label, "switch": switch, "rate": 1.0,
                      "sharp_constant": curve.sharp_constant}, curve))
        rows.append((f"fig4_envelope_{label}.csv", "envelope",
                     {"constant": curve.sharp_constant, "rate": 1.0},
                     (curve.sharp_constant, 1.0)))
    switch_times = {label: switch for label, (_, switch) in cases.items() if switch is not None}
    return rows, {"switch_times": switch_times}


#: Each figure's rows ``(file, role, params, data)`` and its extra manifest
#: keys, as built for a grid size; ``data`` is a :class:`NormCurve` or an
#: envelope's ``(constant, rate)``.
_FIGURES = {"fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "fig4": _fig4}


def cmd_reproduce(args) -> int:
    rows, extra = _FIGURES[args.figure](args.samples)   # refuses a bad grid size
    os.makedirs(args.outdir, exist_ok=True)
    times = np.linspace(0.0, _FIGURE_T_MAX, args.samples)
    for name, _, _, data in rows:
        path = os.path.join(args.outdir, name)
        if isinstance(data, NormCurve):
            data.write_csv(path)
        else:
            constant, rate = data
            write_columns(path, "t,value", times, constant * np.exp(-rate * times))
    manifest = {"figure": args.figure, "eps": benchmarks.DEFAULT_EPS, **extra,
                "files": [{"file": name, "role": role, "params": params}
                          for name, role, params, _ in rows],
                "version": __version__}
    dump_json(manifest, os.path.join(args.outdir, f"{args.figure}_manifest.json"))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after:
    parsing leaves it unchanged, and in-process callers of :func:`main`
    then pay for it once."""
    parser = argparse.ArgumentParser(
        prog="fpopt",
        description="Fastest-decaying drift-diffusion pairs for a prescribed "
                    "Gaussian equilibrium: construction, validation, and exact "
                    "decay-curve data.")
    parser.add_argument("--version", action="version", version=f"fpopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="construct an optimal pair and print its certificate")
    p.add_argument("input", help="problem file (JSON)")
    p.add_argument("--budget", type=float, default=None, help="override the file's constant c")
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--out", default=None, help="write the certificate here instead of stdout")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("validate", help="check an explicit pair and print the report")
    p.add_argument("input", help="problem or certificate file (JSON)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("curve", help="sample a decay curve with its envelope to CSV")
    p.add_argument("input", help="problem file with a pair or schedule")
    p.add_argument("--rate", type=float, default=None, help="envelope rate (default: spectral gap)")
    p.add_argument("--tmax", type=float, default=None, help="sampling horizon (default: the scan's)")
    p.add_argument("--samples", type=int, default=None, help=f"grid size (default {DEFAULT_SAMPLES})")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("compare", help="rank schedules by sharp envelope constant (TSV)")
    p.add_argument("inputs", nargs="+", help="problem files sharing one equilibrium")
    p.add_argument("--rate", type=float, required=True, help="common envelope rate")
    p.add_argument("--out", default=None, help="TSV path (default stdout)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("reproduce", help="regenerate the bundled benchmark figure data")
    p.add_argument("figure", choices=_FIGURES)
    p.add_argument("--outdir", default=".", help="directory for the CSV files and manifest")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProblemFormatError, OSError) as exc:
        return _fail(str(exc), EXIT_PARSE)
    except InvalidConstant as exc:
        return _fail(str(exc), EXIT_CONSTANT)
    except RateTooLarge as exc:
        return _fail(str(exc), EXIT_RATE)
    except MixedEquilibria as exc:
        return _fail(str(exc), EXIT_MIXED)
    except FpoptError as exc:
        return _fail(str(exc), EXIT_PARSE)


if __name__ == "__main__":
    raise SystemExit(main())
