"""JSON problem files and certificate serialisation for the CLI.

Matrices travel as row-major nested arrays, with ``{"diag": [...]}`` as a
shorthand for diagonal matrices.  A problem file holds the covariance under
``"K"`` plus any of: a budget ``"c"``, an explicit pair ``{"C": ..., "D":
...}``, a schedule (list of segments, each an explicit pair or a construct
directive plus a duration, the last one open-ended), and an analysis block
``{"rate", "t_max", "samples"}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .construction import VARIANTS, OptimalCertificate, construct_optimal
from .equilibrium import CoefficientPair, Covariance
from .propagator import Schedule


class ProblemFormatError(ValueError):
    """The input document does not follow the problem-file schema."""


def number_from_obj(obj, name: str) -> float:
    """``obj`` as a float if it is a JSON number: not a boolean, not a string."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ProblemFormatError(f"{name} must be a number, got {obj!r}")
    return float(obj)


def matrix_from_obj(obj, name: str = "matrix") -> np.ndarray:
    """Decode a nested-array or {"diag": [...]} matrix."""
    if isinstance(obj, dict):
        if set(obj) != {"diag"}:
            raise ProblemFormatError(f"{name}: expected nested arrays or a 'diag' shorthand")
        return np.diag(np.asarray(obj["diag"], dtype=float))
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{name}: not a numeric array") from exc
    if arr.ndim != 2:
        raise ProblemFormatError(f"{name}: expected a 2-D array, got shape {arr.shape}")
    return arr


def covariance_from_obj(obj) -> Covariance:
    """Decode a covariance: full matrix, diagonal vector, or eigen form."""
    if isinstance(obj, dict):
        if set(obj) == {"diag"}:
            return Covariance(np.asarray(obj["diag"], dtype=float))
        if set(obj) == {"eigenvalues", "eigenvectors"}:
            return Covariance.from_eigen(
                np.asarray(obj["eigenvalues"], dtype=float),
                matrix_from_obj(obj["eigenvectors"], "eigenvectors"))
        raise ProblemFormatError("covariance: expected a matrix, 'diag', or eigen form")
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 1:
        return Covariance(arr)
    return Covariance(matrix_from_obj(obj, "covariance"))


def pair_from_obj(obj, covariance: Covariance) -> CoefficientPair:
    """Decode an explicit pair {"C": ..., "D": ...} or a construct directive."""
    if not isinstance(obj, dict):
        raise ProblemFormatError("pair: expected an object")
    if "construct" in obj:
        directive = obj["construct"]
        if not isinstance(directive, dict) or "c" not in directive:
            raise ProblemFormatError("construct directive needs a budget 'c'")
        cert = construct_optimal(covariance, number_from_obj(directive["c"], "c"),
                                 variant=directive.get("variant", "standard"))
        return cert.pair
    if "C" not in obj or "D" not in obj:
        raise ProblemFormatError("pair: needs 'C' and 'D' (or a construct directive)")
    return CoefficientPair(covariance,
                           matrix_from_obj(obj["C"], "C"),
                           matrix_from_obj(obj["D"], "D"))


@dataclass
class Problem:
    covariance: Covariance
    budget: Optional[float] = None
    variant: str = "standard"
    pair: Optional[CoefficientPair] = None
    schedule: Optional[Schedule] = None
    analysis: Optional[dict] = None

    @property
    def source(self):
        """The schedule if present, else the constant schedule of the pair."""
        if self.schedule is not None:
            return self.schedule
        if self.pair is not None:
            return Schedule.constant(self.pair)
        return None


def problem_from_dict(doc: dict) -> Problem:
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem file must hold a JSON object")
    if "K" not in doc:
        raise ProblemFormatError("problem file needs a covariance under 'K'")
    covariance = covariance_from_obj(doc["K"])

    pair = None
    if "pair" in doc:
        pair = pair_from_obj(doc["pair"], covariance)
    elif "C" in doc and "D" in doc:
        # certificate-style document: coefficient matrices at top level
        pair = CoefficientPair(covariance,
                               matrix_from_obj(doc["C"], "C"),
                               matrix_from_obj(doc["D"], "D"))

    schedule = None
    if "schedule" in doc:
        segments = doc["schedule"]
        if not isinstance(segments, list) or not segments:
            raise ProblemFormatError("schedule: expected a non-empty list of segments")
        pairs, switches, elapsed = [], [], 0.0
        for i, seg in enumerate(segments):
            if not isinstance(seg, dict):
                raise ProblemFormatError("schedule segment: expected an object")
            seg_pair = seg.get("pair", seg if ("C" in seg or "construct" in seg) else None)
            if seg_pair is None:
                raise ProblemFormatError("schedule segment: needs a pair or construct directive")
            pairs.append(pair_from_obj(seg_pair, covariance))
            duration = seg.get("duration")
            last = i == len(segments) - 1
            if last:
                if duration is not None:
                    raise ProblemFormatError("the final segment is open-ended; omit its duration")
            else:
                if duration is None or not number_from_obj(duration, "duration") > 0.0:
                    raise ProblemFormatError("interior segments need a positive duration")
                elapsed += duration
                switches.append(elapsed)
        schedule = Schedule(pairs, switches)

    variant = doc.get("variant", "standard")
    if variant not in VARIANTS:
        raise ProblemFormatError(f"variant: expected one of {VARIANTS}, got {variant!r}")
    budget = doc.get("c")
    analysis = doc.get("analysis")
    if analysis is not None:
        if not isinstance(analysis, dict):
            raise ProblemFormatError("analysis: expected an object")
        analysis = dict(analysis)
        if "tMax" in analysis and "t_max" not in analysis:
            analysis["t_max"] = analysis.pop("tMax")
        for key in ("rate", "t_max"):
            if analysis.get(key) is not None:
                analysis[key] = number_from_obj(analysis[key], key)
    return Problem(covariance=covariance,
                   budget=None if budget is None else number_from_obj(budget, "c"),
                   variant=variant,
                   pair=pair, schedule=schedule, analysis=analysis)


def load_problem(path) -> Problem:
    """Read and decode a problem file.  Any malformed field, whether caught
    by the schema checks or by numpy and the model constructors (a string
    where a number belongs, a ragged matrix), is a :class:`ProblemFormatError`."""
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return problem_from_dict(doc)
    except ProblemFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc


def _listify(a: np.ndarray):
    return np.asarray(a, dtype=float).tolist()


def certificate_to_dict(cert: OptimalCertificate) -> dict:
    """Serialise a certificate; feeding the result back validates cleanly."""
    doc = {
        "kind": "certificate",
        "dim": cert.dim,
        "K": _listify(cert.covariance.matrix),
        "C": _listify(cert.pair.drift),
        "D": _listify(cert.pair.diffusion),
        "J": _listify(cert.pair.skew),
        "Q": _listify(cert.Q),
        "P": _listify(cert.P),
        "basis": _listify(cert.basis),
        "direction": _listify(cert.direction),
        "weights": None if cert.weights is None else _listify(cert.weights),
        "c": float(cert.budget),
        "constant": float(cert.constant),
        "lambda_opt": float(cert.rate),
        "variant": cert.variant,
    }
    return doc


def dump_json(doc: dict, target) -> None:
    """Deterministic JSON output: compact, sorted keys, one final newline."""
    payload = json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
    if hasattr(target, "write"):
        target.write(payload)
    else:
        with open(target, "w") as handle:
            handle.write(payload)
