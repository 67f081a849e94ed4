import numpy as np
import pytest

from fpopt import (
    Covariance,
    DegenerateSchedule,
    InvalidConstant,
    LyapunovWeights,
    arithmetic_weights,
    construct_optimal,
    equidistribute_basis,
    expm,
    frobenius_bound,
    growth_study,
    skew_coupling,
    spectral_norm,
    validate_pair,
)
from helpers import random_covariance


# --------------------------------------------------- equidistributing basis

def test_equidistribute_scalar_matrix_trivial():
    basis = equidistribute_basis(3.0 * np.eye(4))
    assert np.array_equal(basis.vectors, np.eye(4))
    assert basis.target == pytest.approx(3.0)


def test_equidistribute_2d_rank_deficient():
    basis = equidistribute_basis(np.diag([2.0, 0.0]))
    diag = np.diag(basis.vectors.T @ np.diag([2.0, 0.0]) @ basis.vectors)
    assert np.abs(diag - 1.0).max() <= 1e-12
    # the basis projects equally onto the diffusion direction
    overlaps = basis.vectors.T @ np.array([1.0, 0.0])
    assert np.abs(overlaps**2 - 0.5).max() <= 1e-12


def test_equidistribute_random_psd():
    rng = np.random.default_rng(31)
    g = rng.normal(size=(5, 5))
    m = g @ g.T
    basis = equidistribute_basis(m)
    tau = np.trace(m) / 5.0
    diag = np.diag(basis.vectors.T @ m @ basis.vectors)
    assert np.abs(diag - tau).max() <= 1e-10 * max(tau, 1.0)
    assert np.linalg.norm(basis.vectors.T @ basis.vectors - np.eye(5)) <= 1e-11


def test_equidistribute_is_scale_free():
    # power-of-two rescaling is exact, so the sweep picks the same rotations
    # at large magnitudes instead of overflowing its quadratic, and its
    # tolerances are relative to the target, so at tiny magnitudes too
    rng = np.random.default_rng(31)
    g = rng.normal(size=(5, 5))
    m = g @ g.T
    base = equidistribute_basis(m)
    for k in (-900, -60, -20, 40, 900):
        scaled = equidistribute_basis(np.ldexp(m, k))
        assert np.array_equal(scaled.vectors, base.vectors)
        assert scaled.target == np.ldexp(base.target, k)
    huge = np.diag([2e300, 0.0])
    basis = equidistribute_basis(huge)
    diag = np.diag(basis.vectors.T @ huge @ basis.vectors)
    assert np.abs(diag / 1e300 - 1.0).max() <= 1e-12


# ------------------------------------------------------------ weight ladders

def test_arithmetic_weights_2d():
    w = arithmetic_weights(2, np.sqrt(2.0))
    assert np.allclose(w.values, [1.0, 2.0], atol=1e-12)
    # coupling strength (w2 + w1)/(w2 - w1)
    assert (w.values[1] + w.values[0]) / (w.values[1] - w.values[0]) == pytest.approx(3.0)


def test_arithmetic_weights_ratio():
    w = arithmetic_weights(5, 2.0)
    assert w.values[0] == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert w.values[-1] == pytest.approx(16.0 / 3.0, rel=1e-15)
    assert w.values[-1] / w.values[0] == pytest.approx(4.0, rel=1e-12)
    assert w.budget == pytest.approx(2.0, rel=1e-12)


def test_weights_validation():
    with pytest.raises(InvalidConstant):
        arithmetic_weights(3, 1.0)
    with pytest.raises(DegenerateSchedule):
        LyapunovWeights([1.0, 1.0, 2.0])
    with pytest.raises(DegenerateSchedule):
        LyapunovWeights([-1.0, 2.0])


# ------------------------------------------------------------ skew coupling

def test_skew_coupling_vanishes_for_scalar_diffusion():
    basis = equidistribute_basis(2.0 * np.eye(3))
    coupling = skew_coupling(basis, arithmetic_weights(3, 2.0), 2.0 * np.eye(3))
    assert np.abs(coupling).max() <= 1e-14


def test_skew_coupling_2d_value():
    diffusion_w = np.diag([2.0, 0.0])
    basis = equidistribute_basis(diffusion_w)
    weights = arithmetic_weights(2, np.sqrt(2.0))
    coupling = skew_coupling(basis, weights, diffusion_w)
    assert np.abs(coupling - np.array([[0.0, 3.0], [-3.0, 0.0]])).max() <= 1e-12


def test_skew_coupling_rank_one_formula():
    # oracle: entries (w_j + w_k)/(w_j - w_k) * d * rate * a_j a_k with
    # a_k the overlaps of the diffusion direction with the basis
    rng = np.random.default_rng(32)
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    rate = 1.7
    diffusion_w = 4.0 * rate * np.outer(v, v)
    basis = equidistribute_basis(diffusion_w)
    weights = arithmetic_weights(4, 1.4)
    coupling = skew_coupling(basis, weights, diffusion_w)
    a = basis.vectors.T @ v
    assert np.abs(a**2 - 0.25).max() <= 1e-10
    w = weights.values
    expected = np.zeros((4, 4))
    for j in range(4):
        for k in range(4):
            if j != k:
                expected[j, k] = (w[j] + w[k]) / (w[j] - w[k]) * 4.0 * rate * a[j] * a[k]
    assert np.abs(coupling - expected).max() <= 1e-10


# ------------------------------------------------------- optimal construction

def test_construct_2d_matches_closed_form():
    cov = Covariance(np.array([1.0, 2.0]))
    for budget in (1.5, 2.0):
        cert = construct_optimal(cov, budget)
        mu = (budget**2 + 1.0) / (budget**2 - 1.0)
        expected = np.array([[2.0, mu / np.sqrt(2.0)], [-np.sqrt(2.0) * mu, 0.0]])
        assert np.abs(cert.pair.drift - expected).max() <= 1e-12
        assert np.array_equal(cert.pair.diffusion, np.diag([2.0, 0.0]))
        assert cert.rate == 1.0
        assert cert.constant == pytest.approx(budget, rel=1e-12)


def test_construct_anisotropic_form():
    eps = 0.05
    cov = Covariance(np.array([1.0 / eps, 1.0]))
    cert = construct_optimal(cov, np.sqrt(2.0))
    mu = 3.0
    assert np.abs(cert.pair.whitened_drift - np.array([[0.0, -mu], [mu, 2.0]])).max() <= 1e-12
    assert np.abs(cert.pair.diffusion - np.diag([0.0, 2.0])).max() <= 1e-12
    expected = np.array([[0.0, -mu / np.sqrt(eps)], [mu * np.sqrt(eps), 2.0]])
    assert np.abs(cert.pair.drift - expected).max() <= 1e-10


def test_construct_isotropic_shortcut():
    cov = Covariance(np.eye(3))
    cert = construct_optimal(cov, 5.0)
    assert np.array_equal(cert.pair.drift, np.eye(3))
    assert np.array_equal(cert.pair.diffusion, np.eye(3))
    assert np.abs(cert.pair.skew).max() == 0.0
    assert cert.constant == 1.0
    assert np.array_equal(cert.P, np.eye(3))


def test_certificate_invariants_random():
    rng = np.random.default_rng(33)
    for d, budget, variant in [(3, 1.5, "standard"), (5, 2.0, "standard"),
                               (4, 1.2, "transpose"), (6, 3.0, "transpose")]:
        cov = random_covariance(rng, d)
        cert = construct_optimal(cov, budget, variant=variant)
        pair, rate = cert.pair, cert.rate
        # equidistribution of the whitened diffusion over the basis
        diag = np.diag(cert.basis.vectors.T @ pair.whitened_diffusion @ cert.basis.vectors)
        assert np.abs(diag - rate).max() <= 1e-10 * rate
        # Lyapunov identity for (skew, Q)
        q, jw, dw = cert.Q, pair.whitened_skew, pair.whitened_diffusion
        residual = np.linalg.norm(jw @ q - q @ jw + q @ dw + dw @ q - 2.0 * rate * q)
        assert residual <= 1e-9 * rate * np.linalg.norm(q)
        # the weighted norm contracts exactly at the fastest rate
        assert np.linalg.norm(cert.P @ q - np.eye(d)) <= 1e-9 * np.linalg.cond(q)
        for t in (0.1, 1.0, 5.0):
            flow = expm(pair.whitened_drift, t)
            for _ in range(10):
                x0 = rng.normal(size=d)
                xt = flow @ x0
                p_norm = lambda x: np.sqrt(x @ cert.P @ x)
                assert abs(p_norm(xt) - np.exp(-rate * t) * p_norm(x0)) <= 1e-8 * p_norm(x0)
        # certified envelope holds on a dense grid
        grid = np.linspace(0.0, 20.0 / rate, 400)
        for t in grid:
            assert np.exp(rate * t) * spectral_norm(expm(pair.whitened_drift, t)) \
                <= cert.constant + 1e-8
        # condition number of the certificate equals the squared budget
        assert np.linalg.cond(cert.P) == pytest.approx(budget**2, rel=1e-10)
        assert validate_pair(pair).passed


def test_construction_survives_ill_conditioning():
    # the whole point of the construction is large condition numbers: the
    # rate scales with 1/min variance but the certificate stays machine-tight
    for variances in ([1e-4, 1.0], [1e-6, 1.0], [1e-4, 0.3, 0.7, 1.0, 2.0]):
        cov = Covariance(np.array(variances))
        cert = construct_optimal(cov, 1.5)
        pair, rate, q = cert.pair, cert.rate, cert.Q
        jw, dw = pair.whitened_skew, pair.whitened_diffusion
        residual = np.linalg.norm(jw @ q - q @ jw + q @ dw + dw @ q - 2.0 * rate * q)
        assert residual <= 1e-12 * rate * np.linalg.norm(q)
        report = validate_pair(pair)
        assert report.passed
        assert abs(report.spectral_gap - rate) <= 1e-9 * rate
        grid = np.linspace(0.0, 20.0 / rate, 200)
        for t in grid:
            assert np.exp(rate * t) * spectral_norm(expm(pair.whitened_drift, t)) \
                <= 1.5 + 1e-8


def test_construction_validates_at_large_and_small_scales():
    # K = diag(1e14, 2e14) whitens to a diffusion of entries near 1e-14,
    # which an absolute pinning floor once left in the identity basis
    for variances in ([1e14, 2e14], [1e-14, 3e-14, 2e-14], [1e10, 5e10, 2e10, 3e10]):
        cert = construct_optimal(Covariance(np.array(variances)), 2.0)
        diag = np.diag(cert.basis.vectors.T @ cert.pair.whitened_diffusion @ cert.basis.vectors)
        assert np.abs(diag / cert.basis.target - 1.0).max() <= 1e-10
        assert validate_pair(cert.pair).passed


def test_conditioning_sweep_validates():
    # every certificate passes validation and satisfies its whitened
    # Lyapunov identity, at the problem's own scale, up to kappa(K) = 1e12
    rng = np.random.default_rng(35)
    eps = np.finfo(float).eps
    for d in (4, 8, 16, 32, 64):
        for kappa in (2.0, 1e3, 1e6, 1e9, 1e12):
            axes = np.linalg.qr(rng.normal(size=(d, d)))[0]
            cert = construct_optimal(Covariance.from_eigen(np.geomspace(1.0, kappa, d), axes), 2.0)
            pair, rate, q = cert.pair, cert.rate, cert.Q
            assert validate_pair(pair).passed, (d, kappa)
            jw, dw = pair.whitened_skew, pair.whitened_diffusion
            residual = np.linalg.norm(jw @ q - q @ jw + q @ dw + dw @ q - 2.0 * rate * q)
            scale = np.linalg.norm(q) * (np.linalg.norm(jw) + np.linalg.norm(dw) + rate)
            assert residual <= 100.0 * eps * kappa * scale, (d, kappa)


def test_construct_rejects_bad_budget():
    cov = Covariance(np.array([1.0, 2.0]))
    with pytest.raises(InvalidConstant):
        construct_optimal(cov, 1.0)
    with pytest.raises(ValueError):
        construct_optimal(cov)
    with pytest.raises(ValueError):
        construct_optimal(cov, 2.0, weights=arithmetic_weights(2, 2.0))


def test_transpose_variant_relations():
    cov = Covariance(np.array([1.0, 2.0]))
    standard = construct_optimal(cov, 2.0)
    transposed = construct_optimal(cov, 2.0, variant="transpose")
    assert np.abs(transposed.pair.whitened_skew + standard.pair.whitened_skew).max() <= 1e-12
    assert np.abs(transposed.pair.whitened_drift - standard.pair.whitened_drift.T).max() <= 1e-12
    assert np.abs(transposed.Q - standard.P).max() <= 1e-12


# ----------------------------------------------------------- size guarantees

def test_frobenius_bound_formula_2d():
    cov = Covariance(np.array([1.0, 2.0]))
    bound_c, bound_d = frobenius_bound(cov, 2.0)
    beta = 2.0 * np.pi * 4.0 / (np.sqrt(3.0) * 3.0)
    assert bound_c == pytest.approx(2.0 + np.sqrt(2.0) * beta * np.sqrt(2.0), rel=1e-12)
    assert bound_d == 2.0
    cert = construct_optimal(cov, 2.0)
    assert np.linalg.norm(cert.pair.drift) <= bound_c


def test_diffusion_frobenius_norm_equals_dimension():
    rng = np.random.default_rng(34)
    for d in (2, 3, 6):
        cert = construct_optimal(random_covariance(rng, d), 1.5)
        assert np.linalg.norm(cert.pair.diffusion) == pytest.approx(d, rel=1e-12)


def test_frobenius_regression_anisotropic():
    cov = Covariance(np.array([20.0, 1.0]))
    cert = construct_optimal(cov, np.sqrt(2.0))
    assert np.linalg.norm(cert.pair.drift) == pytest.approx(np.sqrt(184.45), rel=1e-9)
    # the ladder (3, 4): coupling strength (w2 + w1)/(w2 - w1) = 7
    shifted = LyapunovWeights([3.0, 4.0])
    assert (shifted.values[1] + shifted.values[0]) / (shifted.values[1] - shifted.values[0]) \
        == pytest.approx(7.0)
    cert = construct_optimal(cov, weights=shifted)
    assert np.linalg.norm(cert.pair.drift) == pytest.approx(np.sqrt(986.45), rel=1e-9)


def test_growth_study_consistency():
    rows = growth_study(2.0, [2, 4, 8])
    cov = Covariance(np.array([1.0, 2.0]))
    bound_c, _ = frobenius_bound(cov, 2.0)
    assert rows[0].dim == 2
    assert rows[0].drift_bound == pytest.approx(bound_c, rel=1e-12)
    for row in rows:
        assert row.drift_norm <= row.drift_bound
