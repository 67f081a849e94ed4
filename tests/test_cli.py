import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fpopt import (CoefficientPair, Covariance, construct_optimal, sharp_constant,
                   tangency_time, validate_pair)
from fpopt import cli
from fpopt.benchmarks import rotating_pair
from fpopt.cli import main

EPS = 0.05


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def rotating_matrices(mu):
    root = np.sqrt(EPS)
    drift = [[0.0, -mu / root], [mu * root, 2.0]]
    return {"C": drift, "D": {"diag": [0.0, 2.0]}}


def anisotropic_doc(extra):
    return {"K": {"diag": [1.0 / EPS, 1.0]}, **extra}


def run_strict(*argv):
    """Run the CLI in a fresh interpreter with RuntimeWarnings as errors."""
    import fpopt

    src = os.path.dirname(os.path.dirname(fpopt.__file__))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "fpopt", *argv],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)


def test_in_process_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; a call that argparse ends with
    # exit 2 leaves it as fit for the next call as a fresh one
    problem = write_json(tmp_path / "p.json", {"K": {"diag": [1.0, 2.0]}, "c": 2.0})
    cert = str(tmp_path / "cert.json")
    calls = [["optimize", problem, "--out", cert], ["validate", cert],
             ["reproduce", "fig9"], ["optimize", problem, "--budget", "3"],
             ["curve", problem], ["compare", problem, "--rate", "fast"],
             ["compare", cert, "--rate", "1"], ["validate", cert]]

    def outcomes():
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    shared = outcomes()
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 2, 2, 0, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outcomes() == shared


# ----------------------------------------------------------------- optimize

def test_optimize_emits_closed_form_certificate(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", {"K": {"diag": [1.0, 2.0]}, "c": 2.0})
    code, out, _ = run(capsys, "optimize", path)
    assert code == 0
    doc = json.loads(out)
    mu = 5.0 / 3.0
    expected = np.array([[2.0, mu / np.sqrt(2.0)], [-np.sqrt(2.0) * mu, 0.0]])
    assert np.abs(np.array(doc["C"]) - expected).max() <= 1e-12
    assert doc["c"] == 2.0
    assert doc["lambda_opt"] == 1.0
    assert doc["variant"] == "standard"


def test_optimize_isotropic_symmetric_pair(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", {"K": [[1.0, 0.0], [0.0, 1.0]], "c": 3.0})
    code, out, _ = run(capsys, "optimize", path)
    assert code == 0
    doc = json.loads(out)
    assert np.abs(np.array(doc["J"])).max() == 0.0
    assert np.array_equal(np.array(doc["C"]), np.eye(2))
    assert doc["constant"] == 1.0


def test_optimize_transpose_variant_validates_and_certifies(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", {"K": {"diag": [20.0, 1.0]}, "c": 2.0})
    code, out, _ = run(capsys, "optimize", path, "--variant", "transpose")
    assert code == 0
    doc = json.loads(out)
    cov = Covariance(np.array(doc["K"]))
    pair = CoefficientPair(cov, np.array(doc["C"]), np.array(doc["D"]))
    assert validate_pair(pair).passed
    assert sharp_constant(pair, doc["lambda_opt"]) <= 2.0 + 1e-6


def test_optimize_accepts_eigen_form_covariance(tmp_path, capsys):
    root = np.sqrt(0.5)
    axes = [[root, -root], [root, root]]
    doc = {"K": {"eigenvalues": [1.0, 2.0], "eigenvectors": axes}, "c": 2.0}
    code, out, _ = run(capsys, "optimize", write_json(tmp_path / "p.json", doc))
    assert code == 0
    cert = json.loads(out)
    assert cert["lambda_opt"] == pytest.approx(1.0, rel=1e-12)
    k = np.array(cert["K"])
    expected = np.array(axes) @ np.diag([1.0, 2.0]) @ np.array(axes).T
    assert np.abs(k - expected).max() <= 1e-12


def test_optimize_bad_constant_exit_3(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", {"K": {"diag": [1.0, 2.0]}, "c": 1.0})
    code, _, err = run(capsys, "optimize", path)
    assert code == 3
    assert err


def test_optimize_parse_failures_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "optimize", str(bad))[0] == 2
    missing = write_json(tmp_path / "m.json", {"K": {"diag": [1.0, 2.0]}})
    assert run(capsys, "optimize", missing)[0] == 2
    assert run(capsys, "optimize", str(tmp_path / "absent.json"))[0] == 2
    # rate 1e300: the drift overflows, which used to trip an assertion first
    huge = write_json(tmp_path / "h.json", {"K": {"diag": [1e-300, 1.0]}, "c": 2.0})
    code, _, err = run(capsys, "optimize", huge)
    assert code == 2
    assert "finite" in err


def test_optimize_overflow_prints_only_the_exit_message(tmp_path):
    # the whitening overflow is detected, not warned about: stderr is one line
    import fpopt

    huge = write_json(tmp_path / "h.json", {"K": {"diag": [1e-300, 1.0]}, "c": 2.0})
    src = os.path.dirname(os.path.dirname(fpopt.__file__))
    done = subprocess.run([sys.executable, "-m", "fpopt", "optimize", huge],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 2
    assert not done.stdout
    assert done.stderr.startswith("fpopt: ") and done.stderr.count("\n") == 1
    assert "finite" in done.stderr


def test_optimize_budget_with_overflowing_square_exit_3(tmp_path, capsys):
    # no positive weight ladder exists: an invalid constant, not an infinite one
    import fpopt

    huge = write_json(tmp_path / "h.json", {"K": {"diag": [20.0, 1.0]}, "c": 1e200})
    src = os.path.dirname(os.path.dirname(fpopt.__file__))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "fpopt",
                           "optimize", huge],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 3
    assert not done.stdout
    assert done.stderr.startswith("fpopt: ") and done.stderr.count("\n") == 1
    assert "overflows" in done.stderr
    infinite = tmp_path / "inf.json"
    infinite.write_text('{"K": {"diag": [20.0, 1.0]}, "c": Infinity}')
    code, out, err = run(capsys, "optimize", str(infinite))
    assert code == 3 and not out and "finite" in err
    # an isotropic equilibrium needs no ladder, but "c" must stay a JSON number
    infinite.write_text('{"K": {"diag": [1.0, 1.0]}, "c": Infinity}')
    code, out, err = run(capsys, "optimize", str(infinite))
    assert code == 3 and not out and "finite" in err


MALFORMED = {
    "budget_string": {"c": "abc"},
    "diag_string": {"K": {"diag": "ab"}},
    "ragged_K": {"K": [[1, 0], [0]]},
    "duration_string": {"schedule": [{"construct": {"c": 1.5}, "duration": "x"},
                                     {"construct": {"c": 2.0}}]},
    "construct_budget_string": {"pair": {"construct": {"c": "abc"}}},
    "construct_unknown_variant": {"pair": {"construct": {"c": 2, "variant": "sideways"}}},
    "unknown_variant": {"variant": "sideways"},
    # a boolean or a numeric string is not a number
    "budget_numeric_string": {"c": "2"},
    "budget_boolean": {"c": True},
    "construct_budget_numeric_string": {"pair": {"construct": {"c": "1.5"}}},
    "duration_boolean": {"schedule": [{"construct": {"c": 1.5}, "duration": True},
                                      {"construct": {"c": 2.0}}]},
    "duration_numeric_string": {"schedule": [{"construct": {"c": 1.5}, "duration": "0.1"},
                                             {"construct": {"c": 2.0}}]},
    "analysis_rate_numeric_string": {"analysis": {"rate": "1"}},
    "analysis_t_max_numeric_string": {"analysis": {"t_max": "8"}},
    # the same rule for every matrix entry
    "diag_numeric_string_and_boolean": {"K": {"diag": ["20", True]}},
    "K_boolean_entry": {"K": [[1.0, 0.0], [0.0, True]]},
    "K_numeric_string_entry": {"K": [[1.0, "0"], [0.0, 2.0]]},
    "K_vector_string_entry": {"K": ["1", 2.0]},
    "K_row_not_a_list": {"K": [[1.0, 0.0], 2.0]},
    "K_integer_beyond_float": {"K": {"diag": [10**400, 1]}},
    "budget_integer_beyond_float": {"c": 10**400},
    "eigenvalues_boolean": {"K": {"eigenvalues": [1.0, True],
                                  "eigenvectors": [[1.0, 0.0], [0.0, 1.0]]}},
    "eigenvectors_string": {"K": {"eigenvalues": [1.0, 2.0],
                                  "eigenvectors": [[1.0, 0.0], ["0", 1.0]]}},
    "pair_D_boolean_entry": {"pair": {"C": [[1.0, 0.0], [0.0, 0.5]],
                                      "D": [[1.0, 0.0], [0.0, True]]}},
    "pair_C_diag_numeric_string": {"pair": {"C": {"diag": ["1", 0.5]},
                                            "D": {"diag": [1.0, 1.0]}}},
    "schedule_D_boolean_entry": {"schedule": [
        {"C": [[1.0, 0.0], [0.0, 0.5]], "D": [[1.0, 0.0], [0.0, False]], "duration": 1.0},
        {"construct": {"c": 2.0}}]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_documents_exit_2(tmp_path, capsys, case):
    doc = {"K": {"diag": [1.0, 2.0]}, "c": 2.0, "pair": {"construct": {"c": 2.0}},
           **MALFORMED[case]}
    path = write_json(tmp_path / "p.json", doc)
    for argv in (["optimize", path], ["validate", path], ["curve", path, "--samples", "64"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("fpopt: ")


def test_optimize_roundtrip_validates(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", {"K": {"diag": [1.0, 2.0]}, "c": 1.5})
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "optimize", path, "--out", str(cert_path))
    assert code == 0
    code, out, _ = run(capsys, "validate", str(cert_path))
    assert code == 0
    assert json.loads(out)["passed"] is True


# ----------------------------------------------------------------- validate

def test_validate_degenerate_pair_exit_4(tmp_path, capsys):
    doc = {"K": [[1.0, 0.0], [0.0, 1.0]],
           "pair": {"C": [[1.0, 0.0], [0.0, 0.0]], "D": [[1.0, 0.0], [0.0, 0.0]]}}
    code, out, _ = run(capsys, "validate", write_json(tmp_path / "p.json", doc))
    assert code == 4
    report = json.loads(out)
    assert report["hypoelliptic"] is False
    assert report["passed"] is False


def test_validate_repeated_eigenvalue_pair_exit_4(tmp_path, capsys):
    # C = diag(1, 1, 2), D = 11^T: e1 - e2 is a left eigenvector of C in ker D
    doc = {"K": {"diag": [1.0, 1.0, 1.0]},
           "pair": {"C": {"diag": [1.0, 1.0, 2.0]}, "D": np.ones((3, 3)).tolist()}}
    code, out, _ = run(capsys, "validate", write_json(tmp_path / "p.json", doc))
    assert code == 4
    report = json.loads(out)
    assert report["hypoelliptic"] is False and report["passed"] is False


def test_validate_rank_one_pair_passes(tmp_path, capsys):
    doc = anisotropic_doc({"pair": rotating_matrices(11.0)})
    code, out, _ = run(capsys, "validate", write_json(tmp_path / "p.json", doc))
    assert code == 0
    report = json.loads(out)
    assert report["rank_diffusion"] == 1
    assert report["passed"] is True


def test_validate_accepts_high_dimensional_certificate(tmp_path, capsys):
    # the rank-one optimal pair at d = 24 is hypoelliptic: validate exits 0
    path = write_json(tmp_path / "p.json", {"K": {"diag": np.geomspace(1.0, 2.0, 24).tolist()},
                                            "c": 2.0})
    cert_path = tmp_path / "cert.json"
    assert run(capsys, "optimize", path, "--out", str(cert_path))[0] == 0
    code, out, _ = run(capsys, "validate", str(cert_path))
    assert code == 0
    report = json.loads(out)
    assert report["hypoelliptic"] is True and report["rank_diffusion"] == 1


def test_validate_over_budget_pair_exit_4(tmp_path, capsys):
    doc = {"K": {"diag": [1.0, 1.0]}, "pair": {"C": {"diag": [3.0, 0.1]}, "D": {"diag": [3.0, 0.1]}}}
    code, out, _ = run(capsys, "validate", write_json(tmp_path / "p.json", doc))
    assert code == 4
    assert "error" in json.loads(out)


# -------------------------------------------------------------------- curve

def test_curve_csv_shape_and_t0_row(tmp_path, capsys):
    doc = anisotropic_doc({"pair": {"construct": {"c": 1.4142135623730951}}})
    path = write_json(tmp_path / "p.json", doc)
    out_csv = tmp_path / "curve.csv"
    code, _, _ = run(capsys, "curve", path, "--rate", "1.0", "--tmax", "6.0",
                     "--samples", "200", "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "t,norm,envelope"
    t0, norm0, env0 = (float(x) for x in lines[1].split(","))
    assert t0 == 0.0 and norm0 == 1.0
    assert env0 == pytest.approx(np.sqrt(2.0), abs=1e-4)
    # curve touches the envelope from below
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.all(rows[:, 1] <= rows[:, 2] + 1e-10)
    assert np.min(rows[:, 2] / rows[:, 1]) <= 1.0 + 1e-6


def test_curve_keeps_relative_accuracy_at_long_horizon(tmp_path, capsys):
    # ||T(400)|| is about 2e-174: its Gram matrix would underflow, the
    # flow weighted at the rate does not (40-digit mpmath reference)
    path = write_json(tmp_path / "p.json", anisotropic_doc({"pair": rotating_matrices(7.0)}))
    out_csv = tmp_path / "curve.csv"
    code, _, _ = run(capsys, "curve", path, "--rate", "1", "--tmax", "400",
                     "--samples", "64", "--out", str(out_csv))
    assert code == 0
    t, norm, _ = (float(x) for x in out_csv.read_text().strip().split("\n")[-1].split(","))
    assert t == 400.0
    assert norm == pytest.approx(2.024917437568303e-174, rel=1e-12, abs=0)


def test_curve_deterministic_output(tmp_path, capsys):
    doc = anisotropic_doc({"pair": rotating_matrices(7.0),
                           "analysis": {"rate": 1.0, "t_max": 4.0, "samples": 100}})
    path = write_json(tmp_path / "p.json", doc)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "curve", path, "--out", str(first))[0] == 0
    assert run(capsys, "curve", path, "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_curve_default_rate_at_high_conditioning_exit_0(tmp_path, capsys):
    # the default rate is the spectral gap the envelope scan checks against,
    # so it never exceeds it, however far rounding moves the raw drift's
    # spectrum at kappa(K) = 1e12
    for seed in range(10):
        rng = np.random.default_rng(seed)
        axes = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        cov = Covariance.from_eigen(np.geomspace(1.0, 1e12, 4), axes)
        pair = construct_optimal(cov, 2.0).pair
        doc = {"K": cov.matrix.tolist(),
               "pair": {"C": pair.drift.tolist(), "D": pair.diffusion.tolist()}}
        path = write_json(tmp_path / f"p{seed}.json", doc)
        code, _, err = run(capsys, "curve", path, "--out", str(tmp_path / "curve.csv"))
        assert code == 0, (seed, err)


def test_curve_rate_too_large_exit_5(tmp_path, capsys):
    doc = anisotropic_doc({"pair": rotating_matrices(7.0)})
    path = write_json(tmp_path / "p.json", doc)
    code, _, err = run(capsys, "curve", path, "--rate", "3.0")
    assert code == 5
    assert err


def test_curve_nonpositive_rate_or_horizon_exit_2(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", anisotropic_doc({"pair": rotating_matrices(7.0)}))
    for flag, value in (("--rate", "-1"), ("--rate", "0"), ("--rate", "nan"),
                        ("--tmax", "0"), ("--tmax", "-2")):
        code, out, err = run(capsys, "curve", path, flag, value)
        assert code == 2
        assert not out
        assert ("rate" if flag == "--rate" else "t_max") in err
    for analysis in ({"rate": 0.0}, {"rate": -0.5}, {"rate": "fast"}):
        doc = anisotropic_doc({"pair": rotating_matrices(7.0), "analysis": analysis})
        code, _, err = run(capsys, "curve", write_json(tmp_path / "a.json", doc))
        assert code == 2
        assert "rate" in err


CONSTRUCTED = {"K": {"diag": [20, 1]}, "pair": {"construct": {"c": 1.5}}}


@pytest.mark.parametrize("flags, analysis, field", [
    (("--tmax", "inf"), None, "t_max"),
    ((), {"t_max": float("inf")}, "t_max"),   # json writes Infinity
    ((), {"t_max": True}, "t_max"),
    (("--rate", "inf"), None, "rate"),
    ((), {"rate": True}, "rate"),
], ids=["tmax-inf", "analysis-tmax-inf", "analysis-tmax-true", "rate-inf",
        "analysis-rate-true"])
def test_curve_nonfinite_or_boolean_rate_or_horizon_exit_2(tmp_path, capsys, flags,
                                                           analysis, field):
    # a RuntimeWarning on the way would fail the run (warnings are errors)
    doc = {**CONSTRUCTED, **({"analysis": analysis} if analysis else {})}
    code, out, err = run(capsys, "curve", write_json(tmp_path / "p.json", doc), *flags)
    assert code == 2
    assert not out
    assert field in err


@pytest.mark.parametrize("flags, doc, message", [
    (("--tmax", "1e20", "--samples", "50"), CONSTRUCTED, "t_max 1e+20 exceeds"),
    (("--samples", "50"), {"K": {"diag": [20, 1]}, "schedule": [
        {"construct": {"c": 1.5}, "duration": 1e20}, {"construct": {"c": 2.0}}]},
     "envelope horizon 4e+20 exceeds"),
], ids=["tmax-1e20", "segment-1e20"])
def test_curve_horizon_beyond_the_time_scale_exit_2(tmp_path, capsys, flags, doc, message):
    # the flow weighted at the rate would overflow there; the cap is
    # 1 / (eps ||C~ - rate I||_F), about 1.1e15 for this pair
    code, out, err = run(capsys, "curve", write_json(tmp_path / "p.json", doc), *flags)
    assert code == 2
    assert not out
    assert message in err


def test_near_defective_segment_overflow_exit_2(tmp_path):
    # scaling and squaring on mu = 1 + 1e-9 overflows long before the cap of
    # about 2.25e15: refused naming the horizon, with no warning on the way
    doc = anisotropic_doc({"schedule": [{"pair": rotating_matrices(1.0 + 1e-9), "duration": 1e11},
                                        {"pair": rotating_matrices(7.0)}]})
    path = write_json(tmp_path / "p.json", doc)
    for argv in (["curve", path, "--samples", "50", "--tmax", "10"],
                 ["compare", path, "--rate", "1"]):
        done = run_strict(*argv)
        assert done.returncode == 2, argv
        assert not done.stdout
        assert done.stderr.startswith("fpopt: envelope horizon 4e+11 ")
        assert done.stderr.count("\n") == 1


def test_rate_whose_envelope_horizon_overflows_exit_2(tmp_path):
    # 20 / 1e-320 is inf: refused against the cap before the scan's grid is
    # built, so no RuntimeWarning comes first
    path = write_json(tmp_path / "p.json", CONSTRUCTED)
    for argv in (["curve", path, "--rate", "1e-320"], ["compare", path, "--rate", "1e-320"]):
        done = run_strict(*argv)
        assert done.returncode == 2, argv
        assert not done.stdout
        assert done.stderr.startswith("fpopt: envelope horizon inf exceeds ")
        assert done.stderr.count("\n") == 1


def test_subnormal_variance_exit_2(tmp_path):
    # 1 / 1e-320 overflows: the covariance refuses it before inverting it
    doc = {**CONSTRUCTED, "K": {"diag": [1e-320, 1.0]}, "c": 1.5}
    path = write_json(tmp_path / "p.json", doc)
    for argv in (["optimize", path], ["curve", path]):
        done = run_strict(*argv)
        assert done.returncode == 2, argv
        assert not done.stdout
        assert done.stderr.startswith("fpopt: covariance has a subnormal variance 1e-320")
        assert done.stderr.count("\n") == 1


@pytest.mark.parametrize("flags, analysis", [
    (("--samples", str(10**19)), None),
    (("--samples", str(2**62)), None),
    ((), {"samples": 10**20}),
], ids=["flag-1e19", "flag-2**62", "analysis-1e20"])
def test_curve_grid_size_beyond_memory_exit_2(tmp_path, capsys, flags, analysis):
    # numpy refuses these grids before it allocates anything
    doc = {**CONSTRUCTED, **({"analysis": analysis} if analysis else {})}
    code, out, err = run(capsys, "curve", write_json(tmp_path / "p.json", doc), *flags)
    assert code == 2
    assert not out
    assert err.startswith("fpopt: samples ") and " is too large" in err
    assert err.count("\n") == 1


def test_curve_bad_grid_size_exit_2(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", anisotropic_doc({"pair": rotating_matrices(7.0)}))
    for value in ("1", "0", "-3"):
        code, out, err = run(capsys, "curve", path, "--rate", "1", "--samples", value)
        assert code == 2
        assert not out
        assert "samples" in err
    for samples in (1, 0, "abc", 2.5, True):
        doc = anisotropic_doc({"pair": rotating_matrices(7.0), "analysis": {"samples": samples}})
        code, out, err = run(capsys, "curve", write_json(tmp_path / "a.json", doc))
        assert code == 2
        assert not out
        assert "samples" in err


def test_curve_needs_pair_or_schedule(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", {"K": {"diag": [1.0, 2.0]}, "c": 2.0})
    assert run(capsys, "curve", path)[0] == 2


# ------------------------------------------------------------------ compare

def _schedule_doc(first):
    reference = rotating_matrices(7.0)
    return anisotropic_doc({"schedule": [
        {"pair": first, "duration": 0.1},
        {"pair": reference},
    ]})


def test_compare_orders_switching_study(tmp_path, capsys):
    rate = 2.0 * EPS / (1.0 + EPS)
    cases = {
        "fp1": rotating_matrices(7.0),
        "fp2": {"C": {"diag": [EPS, 1.0]}, "D": {"diag": [1.0, 1.0]}},
        "fp3": {"C": {"diag": [rate, rate]}, "D": {"diag": [rate / EPS, rate]}},
        "fp4": rotating_matrices(3.0),
        "fp5": rotating_matrices(11.0),
    }
    paths = [write_json(tmp_path / f"{name}.json", _schedule_doc(doc))
             for name, doc in cases.items()]
    code, out, _ = run(capsys, "compare", *paths, "--rate", "1.0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == ["id", "sharp_constant", "max_drift_frobenius"]
    order = [line.split("\t")[0] for line in lines[1:]]
    constants = {line.split("\t")[0]: float(line.split("\t")[1]) for line in lines[1:]}
    assert order[0] == "fp5.json"
    assert order[1] == "fp1.json"
    assert set(order[2:]) == {"fp2.json", "fp3.json", "fp4.json"}
    assert constants["fp1.json"] == pytest.approx(np.sqrt(4.0 / 3.0), abs=1e-4)


def test_compare_nonpositive_rate_exit_2(tmp_path, capsys):
    path = write_json(tmp_path / "a.json", anisotropic_doc({"pair": rotating_matrices(7.0)}))
    for rate in ("0", "-1", "inf"):
        code, out, err = run(capsys, "compare", path, "--rate", rate)
        assert code == 2
        assert not out
        assert "rate" in err


def test_compare_at_a_slow_rate_warns_nothing(tmp_path):
    path = write_json(tmp_path / "a.json", anisotropic_doc({"pair": rotating_matrices(7.0)}))
    done = run_strict("compare", path, "--rate", "0.01")
    assert done.returncode == 0
    assert not done.stderr
    row = done.stdout.strip().split("\n")[1].split("\t")
    assert row[0] == "a.json" and float(row[1]) == pytest.approx(1.0, rel=1e-12)


def test_compare_has_no_grid_size_exit_2(tmp_path):
    # the sharp constant depends on the schedule and the rate alone
    path = write_json(tmp_path / "a.json", anisotropic_doc({"pair": rotating_matrices(7.0)}))
    with pytest.raises(SystemExit) as excinfo:
        main(["compare", path, "--rate", "1", "--samples", "64"])
    assert excinfo.value.code == 2


def test_compare_mixed_equilibria_exit_6(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", anisotropic_doc({"pair": rotating_matrices(7.0)}))
    b = write_json(tmp_path / "b.json",
                   {"K": {"diag": [1.0, 2.0]}, "pair": {"construct": {"c": 2.0}}})
    code, _, err = run(capsys, "compare", a, b, "--rate", "1.0")
    assert code == 6
    assert err


# ---------------------------------------------------------------- reproduce

def reproduce(capsys, tmp_path, figure, samples=64):
    """Run ``reproduce`` and check its output against its manifest: the
    manifest lists exactly the CSVs on disk, curves carry their header and
    at least the grid, and each envelope starts at its constant."""
    outdir = tmp_path / figure
    assert run(capsys, "reproduce", figure, "--outdir", str(outdir),
               "--samples", str(samples))[0] == 0
    manifest = json.loads((outdir / f"{figure}_manifest.json").read_text())
    assert manifest["figure"] == figure
    assert "version" in manifest
    csvs = sorted(p.name for p in outdir.iterdir() if p.suffix == ".csv")
    assert sorted(entry["file"] for entry in manifest["files"]) == csvs
    for entry in manifest["files"]:
        header, *rows = (outdir / entry["file"]).read_text().splitlines()
        if entry["role"] == "norm_curve":
            assert header == "t,norm,envelope"
            assert len(rows) >= samples
            continue
        assert header == "t,value"
        assert len(rows) == samples
        params = entry["params"]
        start = 1.0 if entry["role"] == "limit" else params.get("c", params.get("constant"))
        assert float(rows[0].split(",")[1]) == start
    return csvs, manifest


def test_reproduce_fig1_files(tmp_path, capsys):
    csvs, manifest = reproduce(capsys, tmp_path, "fig1")
    assert len(csvs) == 7
    assert "fig1_limit.csv" in csvs
    assert len(manifest["files"]) == 7


def test_reproduce_fig2_files(tmp_path, capsys):
    csvs, _ = reproduce(capsys, tmp_path, "fig2")
    assert len(csvs) == 5
    assert {"fig2_norm_mu3.csv", "fig2_norm_mu7.csv", "fig2_envelope.csv"} <= set(csvs)


def test_reproduce_fig3_files(tmp_path, capsys):
    csvs, _ = reproduce(capsys, tmp_path, "fig3")
    assert len(csvs) == 6
    assert {"fig3_schedule_fp1.csv", "fig3_schedule_fp5.csv",
            "fig3_envelope_fp1.csv"} <= set(csvs)


def test_reproduce_fig4_manifest_switch_times(tmp_path, capsys):
    _, manifest = reproduce(capsys, tmp_path, "fig4")
    switches = manifest["switch_times"]
    assert switches["fp5"] == pytest.approx(0.1434, abs=1e-3)
    # fp6 switches at its own first tangency, taken as fp5's is
    assert switches["fp6"] == tangency_time(rotating_pair(13.8), 1.0)
    assert switches["fp6"] == pytest.approx(0.11413, abs=1e-5)


def test_reproduce_bad_grid_size_exit_2(tmp_path, capsys):
    for value in ("1", "0", str(10**19)):
        outdir = tmp_path / f"fig1_{value}"
        code, _, err = run(capsys, "reproduce", "fig1", "--outdir", str(outdir),
                           "--samples", value)
        assert code == 2
        assert "samples" in err
        assert not outdir.exists()


def test_reproduce_unknown_figure_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["reproduce", "fig9"])
    assert excinfo.value.code == 2
