import importlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import fpopt
from fpopt import Covariance, construct_optimal
from fpopt.construction import VARIANTS, equidistribute_basis
from fpopt.serialize import (
    ProblemFormatError,
    certificate_to_dict,
    covariance_from_obj,
    dump_json,
    matrix_from_obj,
    problem_from_dict,
)
from helpers import basis_of, certificate_skew


def test_matrix_shorthand_forms():
    assert np.array_equal(matrix_from_obj({"diag": [1, 2]}), np.diag([1.0, 2.0]))
    assert np.array_equal(matrix_from_obj([[1, 0], [0, 2]]), np.diag([1.0, 2.0]))
    with pytest.raises(ProblemFormatError):
        matrix_from_obj({"rows": [[1]]})
    with pytest.raises(ProblemFormatError):
        matrix_from_obj([1, 2, 3])


def test_covariance_forms_agree():
    diag = covariance_from_obj({"diag": [1.0, 2.0]})
    full = covariance_from_obj([[1.0, 0.0], [0.0, 2.0]])
    vector = covariance_from_obj([1.0, 2.0])
    eigen = covariance_from_obj({"eigenvalues": [1.0, 2.0], "eigenvectors": [[1, 0], [0, 1]]})
    for cov in (full, vector, eigen):
        assert np.array_equal(cov.matrix, diag.matrix)


def _dumped(doc) -> str:
    buffer = io.StringIO()
    dump_json(doc, buffer)
    return buffer.getvalue()


def test_certificate_round_trip():
    cert = construct_optimal(Covariance(np.array([1.0, 2.0, 5.0])), 1.7, variant="transpose")
    doc = json.loads(_dumped(certificate_to_dict(cert)))
    assert np.abs(np.array(doc["C"]) - cert.pair.drift).max() <= 1e-15
    assert np.abs(np.array(doc["Q"]) - cert.Q).max() <= 1e-15
    assert doc["constant"] == pytest.approx(cert.constant, rel=1e-15)
    assert doc["variant"] == "transpose"
    assert np.abs(np.array(doc["weights"]) - cert.weights).max() <= 1e-15


def _rotated_covariance(dim, kappa):
    q = np.linalg.qr(np.random.default_rng(20).normal(size=(dim, dim)))[0]
    k = (q * np.geomspace(1.0, kappa, dim)) @ q.T
    return Covariance(0.5 * (k + k.T))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("cov", [_rotated_covariance(2, 20.0), _rotated_covariance(4, 1e3),
                                 _rotated_covariance(64, 1e6), Covariance(np.full(4, 3.0))],
                         ids=["d2", "d4", "d64", "isotropic"])
def test_certificate_determines_the_skew_and_basis_it_omits(cov, variant):
    cert = construct_optimal(cov, 2.0, variant=variant)
    doc = json.loads(_dumped(certificate_to_dict(cert)))
    assert sorted(doc) == ["C", "D", "K", "P", "Q", "c", "constant", "dim", "direction",
                           "kind", "lambda_opt", "variant", "weights"]
    if doc["weights"] is None:
        basis = np.eye(doc["dim"])
    else:
        basis = equidistribute_basis(np.array(doc["direction"]))
    assert basis.tobytes() == basis_of(cert).tobytes()
    own = {"C": cert.pair.drift, "K": cert.covariance.matrix}
    assert certificate_skew(doc).tobytes() == certificate_skew(own).tobytes()


def test_schedule_document_durations():
    doc = {
        "K": {"diag": [20.0, 1.0]},
        "schedule": [
            {"pair": {"construct": {"c": 1.2}}, "duration": 0.25},
            {"pair": {"construct": {"c": 2.0}}, "duration": 0.5},
            {"pair": {"construct": {"c": 1.5}}},
        ],
    }
    problem = problem_from_dict(doc)
    assert problem.schedule.switch_times == (0.25, 0.75)
    assert len(problem.schedule.pairs) == 3


def test_schedule_segments_accept_inline_form():
    # segments may carry the pair fields directly instead of nesting "pair"
    doc = {
        "K": {"diag": [20.0, 1.0]},
        "schedule": [
            {"construct": {"c": 1.2}, "duration": 0.1},
            {"C": {"diag": [0.05, 1.0]}, "D": {"diag": [1.0, 1.0]}},
        ],
    }
    problem = problem_from_dict(doc)
    assert problem.schedule.switch_times == (0.1,)
    assert np.allclose(problem.schedule.pairs[1].drift, np.diag([0.05, 1.0]))


def test_schedule_document_rejects_bad_durations():
    base = {"K": {"diag": [1.0, 2.0]}}
    with pytest.raises(ProblemFormatError):
        problem_from_dict({**base, "schedule": [
            {"pair": {"construct": {"c": 1.5}}, "duration": 0.0},
            {"pair": {"construct": {"c": 1.5}}},
        ]})
    with pytest.raises(ProblemFormatError):
        problem_from_dict({**base, "schedule": [
            {"pair": {"construct": {"c": 1.5}}, "duration": 1.0},
            {"pair": {"construct": {"c": 1.5}}, "duration": 1.0},
        ]})


def test_problem_requires_covariance():
    with pytest.raises(ProblemFormatError):
        problem_from_dict({"c": 2.0})


def test_dump_json_is_compact_and_sorted(tmp_path):
    doc = {"b": [1.5, 2], "a": {"z": None, "y": "x"}}
    path = tmp_path / "doc.json"
    dump_json(doc, str(path))
    assert path.read_text() == '{"a":{"y":"x","z":null},"b":[1.5,2]}\n'


def _reference(doc) -> str:
    """The bytes ``dump_json`` promises: ``json.dumps`` of the document with
    each array replaced by its ``.tolist()``."""
    def plain(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, dict):
            return {key: plain(value) for key, value in obj.items()}
        return obj
    return json.dumps(plain(doc), separators=(",", ":"), sort_keys=True) + "\n"


def test_dump_json_matches_json_dumps_on_any_double():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    doubles = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                        st.floats(1e-6, 1e18), st.integers(-2**60, 2**60).map(float),
                        st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 1e16, 1e-5]))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(doubles, max_size=40), st.integers(1, 5), st.integers(0, 4))
    def check(values, ncols, empty_cols):
        table = np.array(values[:len(values) - len(values) % ncols]).reshape(-1, ncols)
        doc = {"vector": np.array(values), "table": table, "empty": np.zeros((empty_cols, 0)),
               "nested": {"row": table[:1].ravel(), "n": len(values)},
               "plain": values, "none": np.empty(0)}
        assert _dumped(doc) == _reference(doc)

    check()


def test_dump_json_edge_table():
    edge = [1e16, float(np.nextafter(1e16, 0)), float(np.nextafter(1e16, np.inf)),
            9999999999999998.0, 1e-4, 1e-5, 1.2e-5, 0.0001, 99999.5,
            5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            0.1, 0.2, 0.3, 1 / 3, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e23,
            # carries: the shortest digits round up to the next power of ten
            9.9999999999999999e16, 99999999999999999.0, 0.99999999999999999,
            9.999999999999999e22, 9.9999999999999999e-250,
            # exact ties at the 17th digit
            2000000000000000.25, 2000000000000000.75, 100000000000000.125]
    edge += [2.0**k for k in range(-1074, 1024)]   # the lower neighbour is half as far
    edge += [float(np.nextafter(2.0**k, 0)) for k in range(-1073, 1024)]
    for k in range(-323, 309):   # powers of ten and their neighbours
        p = float(f"1e{k}")
        edge += [p, float(np.nextafter(p, np.inf)), float(np.nextafter(p, -np.inf))]
    values = np.array(edge + [0.0, -0.0, np.inf, -np.inf, np.nan])
    values = np.concatenate((values, -values))
    doc = {"a": values, "b": values[:len(values) // 4 * 4].reshape(-1, 4)}
    assert _dumped(doc) == _reference(doc)
    assert _dumped({"x": np.array([1e16, 9999999999999998.0, 1e-4, 1e-5, 1.0, -0.0, np.nan])}) \
        == '{"x":[1e+16,9999999999999998.0,0.0001,1e-05,1.0,-0.0,NaN]}\n'


def test_dump_json_spells_only_ties_ends_and_extremes_by_repr(monkeypatch):
    module = importlib.import_module("fpopt.text")
    module._decimal_tables()
    fallback = []
    words = module._words
    monkeypatch.setattr(module, "_words", lambda strings, width: (
        fallback.extend(strings), words(strings, width))[1])
    mild = np.array([1.0, 0.1, 0.2, 0.3, 1 / 3, 2.0**60, 123.456, 1e-250, 1e249, 0.0, np.inf])
    assert _dumped({"m": mild}) == _reference({"m": mild})
    assert fallback == []
    # a tie between two 17-digit candidates, interval ends on an integer
    # (1e23 and 2**54 at an even mantissa), and values beyond the tables
    odd = np.array([2000000000000000.75, 1e23, 2.0**54, 5e-324, 1e-300, 1e300])
    assert _dumped({"o": odd}) == _reference({"o": odd})
    assert fallback == [repr(v) for v in odd.tolist()]
    fallback.clear()
    # whether a value of a d = 64 certificate falls back hangs on its last
    # bits, about 0.1 of them in 28,700 values: only the bytes are checked
    doc = _random_certificate(64)
    assert _dumped(doc) == _reference(doc)
    # values clear of every edge by ten margins never fall back
    values = np.concatenate([v.ravel() for v in _random_certificate(32).values()
                             if isinstance(v, np.ndarray) and v.dtype.kind == "f"])
    values = values[values != 0.0]
    margin = Fraction(10 * module._MARGIN)
    clear = np.array([v for v in values.tolist() if _clears_repr_edges(v, margin)])
    assert len(clear) >= 0.99 * len(values)
    fallback.clear()
    assert _dumped({"clear": clear}) == _reference({"clear": clear})
    assert fallback == []


def _random_certificate(dim):
    return certificate_to_dict(construct_optimal(_rotated_covariance(dim, 1e6), 2.0))


def _clears_repr_edges(x, margin):
    """Whether the nonzero double ``x``, scaled exactly to 17 digits
    before the point, lies more than ``margin`` from both ends of its
    rounding interval and from every tie between two multiples of a power
    of ten inside that interval; checked in exact rational arithmetic."""
    a = Fraction(abs(x))
    scale = Fraction(10) ** (16 - math.floor(math.log10(abs(x))))
    if a * scale < 10**16:   # log10 rounded up to a power of ten
        scale *= 10
    elif a * scale >= 10**17:
        scale /= 10
    s = a * scale
    half_up = Fraction(math.ulp(abs(x))) / 2 * scale
    half_down = half_up / 2 if math.frexp(abs(x))[0] == 0.5 else half_up
    low, high = s - half_down, s + half_up
    if any(abs(end - round(end)) <= margin for end in (low, high)):
        return False
    return all(abs(s % 10**k - Fraction(10**k, 2)) > margin
               for k in range(18) if 10**k < high - low)


def test_import_builds_no_decimal_tables():
    # the tables are built on the first write, which keeps them out of set-up
    src = os.path.dirname(os.path.dirname(fpopt.__file__))
    code = ("import fpopt, fpopt.cli\n"
            "from fpopt.text import _decimal_tables\n"
            "print(_decimal_tables.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "0"
