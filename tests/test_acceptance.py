"""End-to-end acceptance battery.

One test per criterion, each checking its stated tolerances and printing
one pass line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import time

import numpy as np
import pytest

from fpopt import (
    CoefficientPair,
    Covariance,
    construct_optimal,
    expm,
    frobenius_bound,
    general_eigenvalues,
    max_initial_decay,
    norm_curve,
    sharp_constant,
    spectral_gap,
    best_constant_2d,
    compare_schedules,
    tangency_time,
    validate_pair,
)
from fpopt.benchmarks import case_pairs, rotating_pair, split_schedule
from helpers import (
    initial_slope,
    integrate_flow,
    propagator_at,
    random_admissible_pair,
    random_covariance,
    restarted,
    whitened_skew,
)


def _report(number, message):
    print(f"criterion {number:02d} PASS: {message}")


def test_criterion_01_closed_form_construction_2d():
    cov = Covariance(np.array([1.0, 2.0]))
    construct_optimal(cov, 2.0)  # warm the kernels before timing
    start = time.perf_counter()
    certs = {c: construct_optimal(cov, c) for c in (1.5, 2.0)}
    elapsed = time.perf_counter() - start
    for budget, cert in certs.items():
        mu = (budget**2 + 1.0) / (budget**2 - 1.0)
        expected = np.array([[2.0, mu / np.sqrt(2.0)], [-np.sqrt(2.0) * mu, 0.0]])
        assert np.abs(cert.pair.drift - expected).max() <= 1e-12
        assert np.abs(cert.pair.diffusion - np.diag([2.0, 0.0])).max() <= 1e-12
    assert elapsed < 0.1
    _report(1, f"closed-form 2D drift/diffusion reproduced, {elapsed * 1e3:.1f} ms")


def test_criterion_02_eigenvalues_and_gap():
    cov = Covariance(np.array([1.0, 2.0]))
    for budget in (1.5, 2.0):
        cert = construct_optimal(cov, budget)
        mu = (budget**2 + 1.0) / (budget**2 - 1.0)
        eigs = np.sort_complex(general_eigenvalues(cert.pair.drift))
        expected = np.sort_complex(np.array([1.0 - 1j * np.sqrt(mu**2 - 1.0),
                                             1.0 + 1j * np.sqrt(mu**2 - 1.0)]))
        assert np.abs(eigs - expected).max() <= 1e-9
        gap = spectral_gap(cert.pair)
        assert abs(gap - 1.0) <= 1e-10
        assert abs(gap - cov.fastest_rate) <= 1e-10
    _report(2, "conjugate eigenvalue pair and spectral gap at the fastest rate")


def test_criterion_03_frobenius_regression():
    cov = Covariance(np.array([20.0, 1.0]))
    cert = construct_optimal(cov, np.sqrt(2.0))
    assert np.linalg.norm(cert.pair.drift) == pytest.approx(np.sqrt(184.45), rel=1e-9)
    # the ladder (3, 4) is the arithmetic ladder of budget sqrt(4/3)
    legacy = construct_optimal(cov, np.sqrt(4.0 / 3.0))
    assert np.abs(legacy.weights - [3.0, 4.0]).max() <= 1e-12
    w = legacy.weights
    assert (w[1] + w[0]) / (w[1] - w[0]) == pytest.approx(7.0)
    assert np.linalg.norm(legacy.pair.drift) == pytest.approx(np.sqrt(986.45), rel=1e-9)
    assert np.linalg.norm(cert.pair.diffusion) == 2.0
    _report(3, "drift Frobenius norms sqrt(184.45) / sqrt(986.45), diffusion norm 2")


def test_criterion_04_envelope_sharpness():
    cov = Covariance(np.array([20.0, 1.0]))
    timings = []
    for budget in (1.5, 2.0, 3.0):
        cert = construct_optimal(cov, budget)
        start = time.perf_counter()
        measured = sharp_constant(cert.pair, 1.0)
        timings.append(time.perf_counter() - start)
        assert measured == pytest.approx(budget, abs=1e-4)
        assert best_constant_2d(cert.pair) == pytest.approx(budget, abs=1e-4)
        assert timings[-1] < 2.0
    _report(4, f"sharp constants equal the budgets, max {max(timings):.2f} s per curve")


def test_criterion_05_lyapunov_certificate_and_exact_decay():
    rng = np.random.default_rng(101)
    times = (0.1, 1.0, 5.0)
    for i in range(50):
        d = 2 + i % 7
        cov = random_covariance(rng, d)
        for budget in (1.2, 2.0):
            cert = construct_optimal(cov, budget)
            pair, rate, q = cert.pair, cert.rate, cert.Q
            jw, dw = whitened_skew(pair), pair.whitened_diffusion
            residual = np.linalg.norm(jw @ q - q @ jw + q @ dw + dw @ q - 2.0 * rate * q)
            assert residual <= 1e-9 * rate * np.linalg.norm(q)
            x0 = rng.normal(size=(d, 100))
            p_norm0 = np.sqrt(np.einsum("ik,ij,jk->k", x0, cert.P, x0))
            for t in times:
                xt = expm(pair.whitened_drift, t) @ x0
                p_norm_t = np.sqrt(np.einsum("ik,ij,jk->k", xt, cert.P, xt))
                assert np.abs(p_norm_t - np.exp(-rate * t) * p_norm0).max() \
                    <= 1e-8 * p_norm0.max()
    _report(5, "certificate identity and exact weighted-norm decay on 50 random covariances")


def test_criterion_06_rate_bound_and_attainment():
    rng = np.random.default_rng(102)
    for d in (2, 3, 4, 5, 6):
        cov = random_covariance(rng, d)
        for _ in range(200):
            pair = random_admissible_pair(rng, cov)
            assert spectral_gap(pair) <= cov.fastest_rate + 1e-9
        cert = construct_optimal(cov, 1.5)
        assert abs(spectral_gap(cert.pair) - cov.fastest_rate) <= 1e-9
    _report(6, "spectral gaps capped by the fastest rate; construction attains it")


def test_criterion_07_initial_decay():
    cov = Covariance(np.array([20.0, 1.0]))
    rate, pair = max_initial_decay(cov)
    assert abs(rate - 2.0 / 21.0) <= 1e-12
    assert validate_pair(pair).passed
    rng = np.random.default_rng(103)
    for _ in range(100):
        sample = random_admissible_pair(rng, cov)
        assert initial_slope(sample) <= rate + 1e-9
    certificates = [construct_optimal(cov, 1.2), construct_optimal(cov, 2.0),
                    construct_optimal(random_covariance(rng, 3), 1.5)]
    for cert in certificates:
        assert abs(initial_slope(cert.pair)) <= 1e-12
        # flat start: fit the small-time expansion of the norm curve
        h = 2e-4
        ts = np.linspace(0.0, h, 25)
        values = [np.linalg.norm(expm(cert.pair.whitened_drift, t), 2) for t in ts]
        coeffs = np.polynomial.polynomial.polyfit(ts / h, np.array(values) - 1.0, 3)
        linear = coeffs[1] / h
        quadratic = coeffs[2] / h**2
        assert np.isfinite(quadratic)
        assert abs(linear) <= 1e-6
    _report(7, "maximal initial rate 2/21 dominates; rank-one starts are quadratically flat")


def test_criterion_08_switching_study():
    pairs = case_pairs()
    labels = ["fp1", "fp2", "fp3", "fp4", "fp5"]
    schedules = [split_schedule(pairs[label], 0.1) for label in labels]
    constants = {row.label: row.sharp_constant
                 for row in compare_schedules(schedules, 1.0, labels=labels)}
    assert constants["fp5"] < constants["fp1"]
    for worse in ("fp2", "fp3", "fp4"):
        assert constants[worse] > constants["fp1"]
    switch = tangency_time(pairs["fp5"], 1.0)
    assert switch == pytest.approx(0.1434, abs=1e-3)
    tuned = sharp_constant(split_schedule(pairs["fp5"], switch), 1.0)
    assert tuned == pytest.approx(np.sqrt(6.0 / 5.0), abs=1e-3)
    assert constants["fp1"] == pytest.approx(np.sqrt(4.0 / 3.0), abs=1e-4)
    _report(8, "fast initial rotation lowers the constant; tangency switch hits sqrt(6/5)")


def test_criterion_09_hypoellipticity():
    cov = Covariance(np.eye(2))
    degenerate = validate_pair(CoefficientPair(cov, np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    assert degenerate.hypoelliptic is False
    assert degenerate.passed is False
    rng = np.random.default_rng(104)
    for d in (2, 3, 5, 8):
        cert = construct_optimal(random_covariance(rng, d), 1.4)
        report = validate_pair(cert.pair)
        assert report.rank_diffusion == 1
        assert report.hypoelliptic and report.passed
    _report(9, "degenerate diagonal pair rejected; rank-one certificates accepted")


def test_criterion_10_dimension_growth():
    # ||C||_F of the constructed pair stays below the closed-form bound on the
    # fixed-conditioning family K_d = diag(1, 2, ..., 2), whose bound grows
    # like d^(3/2)
    start = time.perf_counter()
    dims = np.array([2, 4, 8, 16, 32, 64])
    bounds = []
    for d in dims:
        cov = Covariance(np.concatenate(([1.0], np.full(d - 1, 2.0))))
        bound, _ = frobenius_bound(cov, 2.0)
        assert np.linalg.norm(construct_optimal(cov, 2.0).pair.drift) <= bound
        bounds.append(bound)
    elapsed = time.perf_counter() - start
    big = dims >= 8
    slope = np.polyfit(np.log(dims[big]), np.log(np.array(bounds)[big]), 1)[0]
    assert 1.4 <= slope <= 1.6
    assert elapsed < 30.0
    _report(10, f"bound slope {slope:.3f} in [1.4, 1.6], measured norms below it, {elapsed:.1f} s")


def test_criterion_11_time_dependent_propagator():
    rng = np.random.default_rng(105)
    pairs = case_pairs()
    for label in ("fp1", "fp5"):
        schedule = split_schedule(pairs[label], 0.1)
        for _ in range(8):
            t1, t2 = np.sort(rng.uniform(0.0, 0.6, size=2))
            full = propagator_at(schedule, t2)
            composed = propagator_at(restarted(schedule, t1), t2 - t1) @ propagator_at(schedule, t1)
            assert np.linalg.norm(full - composed) <= 1e-10
        for t in (0.05, 0.1, 0.4, 1.5):
            oracle = integrate_flow(schedule, t)
            assert np.abs(propagator_at(schedule, t) - oracle).max() <= 1e-8
    _report(11, "propagator composes across breakpoints and matches the ODE oracle")
