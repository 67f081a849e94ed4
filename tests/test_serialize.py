import json

import numpy as np
import pytest

from fpopt import Covariance, construct_optimal
from fpopt.serialize import (
    ProblemFormatError,
    certificate_to_dict,
    covariance_from_obj,
    dump_json,
    matrix_from_obj,
    problem_from_dict,
)


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


def test_certificate_round_trip():
    cert = construct_optimal(Covariance(np.array([1.0, 2.0, 5.0])), 1.7, variant="transpose")
    doc = json.loads(json.dumps(certificate_to_dict(cert)))
    assert np.abs(np.array(doc["C"]) - cert.pair.drift).max() <= 1e-15
    assert np.abs(np.array(doc["Q"]) - cert.Q).max() <= 1e-15
    assert doc["constant"] == pytest.approx(cert.constant, rel=1e-15)
    assert doc["variant"] == "transpose"
    assert np.abs(np.array(doc["weights"]) - cert.weights).max() <= 1e-15


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
