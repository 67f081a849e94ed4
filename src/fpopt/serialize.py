"""JSON problem files and certificate serialisation for the CLI.

Matrices travel as row-major nested arrays, with ``{"diag": [...]}`` as a
shorthand for diagonal matrices.  A problem file holds the covariance under
``"K"`` plus any of: a budget ``"c"``, an explicit pair ``{"C": ..., "D":
...}``, a schedule (list of segments, each an explicit pair or a construct
directive plus a duration, the last one open-ended), and an analysis block
``{"rate", "t_max", "samples"}`` (``"tMax"`` for ``"t_max"``), which
refuses any other key.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .construction import VARIANTS, OptimalCertificate, construct_optimal
from .equilibrium import CoefficientPair, Covariance
from .propagator import Schedule
from .text import json_arrays


class ProblemFormatError(ValueError):
    """The input document does not follow the problem-file schema."""


def number_from_obj(obj, name: str) -> float:
    """``obj`` as a float if it is a real number (a JSON number or a numpy
    scalar): not a boolean, not a string."""
    if isinstance(obj, bool) or not isinstance(obj, numbers.Real):
        raise ProblemFormatError(f"{name} must be a number, got {obj!r}")
    return float(obj)


def _numbers(obj, name: str) -> np.ndarray:
    """``obj`` as a float array if it is a list of JSON numbers or a list of
    such lists: the rule of :func:`number_from_obj`, checked once per entry
    type."""
    if not isinstance(obj, list):
        raise ProblemFormatError(f"{name}: expected an array of numbers")
    try:
        entries = chain.from_iterable(obj) if obj and isinstance(obj[0], list) else obj
        if all(issubclass(kind, numbers.Real) and not issubclass(kind, bool)
               for kind in set(map(type, entries))):
            return np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError):   # a row not a list, ragged rows, a huge int
        pass
    raise ProblemFormatError(f"{name}: expected a rectangular array of numbers "
                             "(no strings, no booleans)")


def _matrix(arr: np.ndarray, name: str) -> np.ndarray:
    if arr.ndim != 2:
        raise ProblemFormatError(f"{name}: expected a 2-D array, got shape {arr.shape}")
    return arr


def matrix_from_obj(obj, name: str = "matrix") -> np.ndarray:
    """Decode a nested-array or {"diag": [...]} matrix."""
    if isinstance(obj, dict):
        if set(obj) != {"diag"}:
            raise ProblemFormatError(f"{name}: expected nested arrays or a 'diag' shorthand")
        return np.diag(_numbers(obj["diag"], name))
    return _matrix(_numbers(obj, name), name)


def covariance_from_obj(obj) -> Covariance:
    """Decode a covariance: full matrix, diagonal vector, or eigen form."""
    if isinstance(obj, dict):
        if set(obj) == {"diag"}:
            return Covariance(_numbers(obj["diag"], "covariance"))
        if set(obj) == {"eigenvalues", "eigenvectors"}:
            return Covariance.from_eigen(
                _numbers(obj["eigenvalues"], "eigenvalues"),
                matrix_from_obj(obj["eigenvectors"], "eigenvectors"))
        raise ProblemFormatError("covariance: expected a matrix, 'diag', or eigen form")
    arr = _numbers(obj, "covariance")
    return Covariance(arr if arr.ndim == 1 else _matrix(arr, "covariance"))


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
        unknown = [key for key in analysis if key not in ("rate", "t_max", "tMax", "samples")]
        if unknown:
            raise ProblemFormatError(f"analysis: unknown key {unknown[0]!r} "
                                     "(expected rate, t_max or tMax, samples)")
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
    where a number belongs, a ragged matrix, an integer beyond the float
    range), is a :class:`ProblemFormatError`."""
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return problem_from_dict(doc)
    except ProblemFormatError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc


def certificate_to_dict(cert: OptimalCertificate) -> dict:
    """Serialise a certificate for :func:`dump_json`, its matrices and
    vectors as float arrays; the document written from it validates
    cleanly.

    The document holds each fact once: ``kind``, ``dim``, the covariance
    ``K``, the pair ``C`` and ``D`` (what ``validate`` checks), the
    certificate matrices ``P`` and ``Q = P^{-1}``, ``direction``,
    ``weights`` (null in the isotropic case), the budget ``c``,
    ``constant``, ``lambda_opt`` and ``variant``.  The skew part and the
    basis are not written, because the document determines both: the skew
    is the antisymmetric part of the written ``C @ K``, and the basis is
    ``equidistribute_basis(direction)``, or the identity when ``weights``
    is null.
    """
    return {
        "kind": "certificate",
        "dim": cert.dim,
        "K": cert.covariance.matrix,
        "C": cert.pair.drift,
        "D": cert.pair.diffusion,
        "Q": cert.Q,
        "P": cert.P,
        "direction": cert.direction,
        "weights": cert.weights,
        "c": float(cert.budget),
        "constant": float(cert.constant),
        "lambda_opt": float(cert.rate),
        "variant": cert.variant,
    }


def _pieces(obj) -> list:
    """The JSON text of ``obj`` as strings and, between them, the float
    arrays of one or two dimensions held in its (nested) string-keyed
    objects.  Everything else is ``json.dumps`` text."""
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim in (1, 2):
        return [obj]
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        pieces = ["{"]
        for i, (key, value) in enumerate(sorted(obj.items())):
            pieces += [("," if i else "") + json.dumps(key) + ":", *_pieces(value)]
        return pieces + ["}"]
    return [json.dumps(obj, separators=(",", ":"), sort_keys=True)]


def dump_json(doc: dict, target) -> None:
    """Deterministic JSON output: compact, sorted keys, one final newline.

    The bytes are those of ``json.dumps(doc, separators=(",", ":"),
    sort_keys=True) + "\\n"`` with every float array of one or two
    dimensions replaced by its ``.tolist()``: floats in their shortest
    round-trip digits, and ``NaN``, ``Infinity`` and ``-Infinity`` as
    :mod:`json` spells them.  The arrays are written in bulk by
    :func:`text.json_arrays`.
    """
    pieces = _pieces(doc)
    arrays = iter(json_arrays([p for p in pieces if not isinstance(p, str)]))
    payload = "".join(p if isinstance(p, str) else next(arrays) for p in pieces) + "\n"
    if hasattr(target, "write"):
        target.write(payload)
    else:
        with open(target, "w") as handle:
            handle.write(payload)
