import numpy as np
import pytest

from fpopt import (
    CoefficientPair,
    Covariance,
    InvalidArgument,
    InvalidConstant,
    Schedule,
    arithmetic_weights,
    construct_optimal,
    equidistribute_basis,
    expm,
    frobenius_bound,
    norm_curve,
    validate_pair,
)
from fpopt.construction import VARIANTS
from fpopt.propagator import _Flow
from helpers import basis_of, random_covariance, whitened_skew


# --------------------------------------------------- equidistributing basis

def test_equidistribute_2d_rank_deficient():
    basis = equidistribute_basis([1.0, 0.0])
    diag = np.diag(basis.T @ np.diag([2.0, 0.0]) @ basis)
    assert np.abs(diag - 1.0).max() <= 1e-12
    # the basis projects equally onto the diffusion direction
    overlaps = basis.T @ np.array([1.0, 0.0])
    assert np.abs(overlaps**2 - 0.5).max() <= 1e-12


def _edge_directions(dim):
    e1 = np.eye(dim)[0]
    uniform = np.full(dim, 1.0 / np.sqrt(dim))
    rng = np.random.default_rng(dim)
    randoms = [g / np.linalg.norm(g) for g in rng.normal(size=(4, dim))]
    # one ulp from e_1: its first entry one ulp below 1, or a tail entry of
    # one ulp of 1 (the norm still rounds to 1); and a tail whose square
    # underflows
    return [e1, -e1, uniform, -uniform, np.nextafter(e1, 0.0), e1 + 2.0**-52 * np.eye(dim)[1],
            e1 + 1e-160 * np.eye(dim)[-1], *randoms]


@pytest.mark.parametrize("dim", [2, 3, 8, 64])
def test_equidistribute_edge_directions(dim):
    eps = np.finfo(float).eps
    for v in _edge_directions(dim):
        basis = equidistribute_basis(v)
        assert np.abs(basis.T @ basis - np.eye(dim)).max() <= 4.0 * eps * np.sqrt(dim)
        assert np.abs(basis.T @ v - 1.0 / np.sqrt(dim)).max() <= 4.0 * eps * np.sqrt(dim)
    # v = e_1 exactly leaves the first reflector out: the basis is the
    # single, symmetric reflector that swaps e_1 and the uniform vector
    basis = equidistribute_basis(np.eye(dim)[0])
    assert np.array_equal(basis, basis.T)
    assert np.linalg.det(basis) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("direction", [
    np.eye(2),                                   # not 1-D
    np.array(1.0),                               # a scalar
    [1.0],                                       # length 1
    [True, False],                               # not a real vector
    [1.0 + 0j, 0.0],
    ["1", "0"],
    [np.nan, 0.0],                               # not finite
    [np.inf, 0.0],
    [0.0, 0.0],                                  # not of unit norm
    [1.0 + 1e-11, 0.0],
    [0.6, 0.6],
    [1e200, 1e200],                              # its norm overflows
], ids=["2d", "scalar", "length1", "bool", "complex", "str", "nan", "inf", "zero",
        "near_unit", "short_of_unit", "huge"])
def test_equidistribute_refuses_bad_direction(direction):
    with pytest.raises(InvalidArgument):
        equidistribute_basis(direction)


# ------------------------------------------------------------ weight ladders

def test_arithmetic_weights_2d():
    w = arithmetic_weights(2, np.sqrt(2.0))
    assert np.allclose(w, [1.0, 2.0], atol=1e-12)
    # coupling strength (w2 + w1)/(w2 - w1)
    assert (w[1] + w[0]) / (w[1] - w[0]) == pytest.approx(3.0)


def test_arithmetic_weights_ratio():
    w = arithmetic_weights(5, 2.0)
    assert w[0] == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert w[-1] == pytest.approx(16.0 / 3.0, rel=1e-15)
    assert w[-1] / w[0] == pytest.approx(4.0, rel=1e-12)


def test_weights_validation():
    with pytest.raises(InvalidConstant):
        arithmetic_weights(3, 1.0)
    # a budget whose square overflows leaves no positive ladder
    for budget in (1e200, np.inf):
        with pytest.raises(InvalidConstant, match="overflows"):
            arithmetic_weights(2, budget)
    # one so close to 1 that the unit steps vanish leaves no increasing one
    with pytest.raises(InvalidConstant, match="too close to 1"):
        arithmetic_weights(64, 1.0 + 2.0**-52)


# ------------------------------------------------------------ skew coupling

def _coupling_matrix(weights):
    """A(w): (w_j + w_k) / (w_j - w_k) off the diagonal, 0 on it, entry by
    entry, apart from the library's outer-product form."""
    d = len(weights)
    a = np.zeros((d, d))
    for j in range(d):
        for k in range(d):
            if j != k:
                a[j, k] = (weights[j] + weights[k]) / (weights[j] - weights[k])
    return a


def test_skew_coupling_2d_value():
    cov = Covariance(np.array([1.0, 2.0]))
    expected = np.array([[0.0, 3.0], [-3.0, 0.0]])
    for variant, sign in (("standard", 1.0), ("transpose", -1.0)):
        cert = construct_optimal(cov, np.sqrt(2.0), variant)
        assert np.abs(cert.pair.whitened_diffusion - np.diag([2.0, 0.0])).max() <= 1e-12
        # the skew itself, unlike its coordinates, does not depend on the basis
        assert np.abs(whitened_skew(cert.pair) - sign * expected).max() <= 1e-12


def test_skew_coupling_rank_one_formula():
    # oracle: entries (w_j + w_k)/(w_j - w_k) * d * rate * a_j a_k with
    # a_k the overlaps of the diffusion direction with the basis
    rng = np.random.default_rng(32)
    axes = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    rate = 1.7
    cert = construct_optimal(Covariance.from_eigen([1.0 / rate, 1.0, 2.0, 3.0], axes), 1.4)
    assert cert.rate == pytest.approx(rate, rel=1e-15)
    w = cert.weights
    assert np.array_equal(w, arithmetic_weights(4, 1.4))
    basis = basis_of(cert)
    coupling = basis.T @ whitened_skew(cert.pair) @ basis
    a = basis.T @ cert.direction
    assert np.abs(a**2 - 0.25).max() <= 1e-10
    expected = _coupling_matrix(w) * 4.0 * rate * np.outer(a, a)
    assert np.abs(coupling - expected).max() <= 1e-10


def _sampled(curve, grid):
    """The curve's values on the uniform ``grid``: each curve also carries
    its own tangency point, and two curves' tangencies differ by rounding."""
    values = curve.values[np.isin(curve.times, grid)]
    assert values.size == grid.size
    return values


def test_decay_does_not_depend_on_the_equidistributing_basis():
    # Psi' = Psi Perm Sigma has the same overlaps up to sign, and equals
    # Q Psi Sigma with Q = Psi Perm Psi^T orthogonal and Q v = v.  So Q
    # fixes the diffusion, its coupling gives the skew Q J~ Q^T, and the
    # whitened drift is Q C~ Q^T: the same norm curve and sharp constant.
    rng = np.random.default_rng(34)
    for d in (3, 5, 8):
        cov = random_covariance(rng, d)
        cert = construct_optimal(cov, 2.0)
        pair = cert.pair
        signs = rng.choice([-1.0, 1.0], size=d)
        basis = basis_of(cert)[:, rng.permutation(d)] * signs
        # Psi'^T D~ Psi' = rate sigma sigma^T, so the general coupling
        # A(w) * <psi'_j, D~ psi'_k> is rate A(w) sigma sigma^T entrywise
        coupling = cert.rate * _coupling_matrix(cert.weights) * np.outer(signs, signs)
        whitened_drift = pair.whitened_diffusion + basis @ coupling @ basis.T
        other = CoefficientPair(cov, cov.unwhiten_drift(whitened_drift), pair.diffusion)
        assert np.linalg.norm(other.whitened_drift - pair.whitened_drift) > 1e-3
        grid = np.linspace(0.0, 20.0 / cert.rate, 257)
        curves = [norm_curve(p, grid[-1], grid.size, rate=cert.rate) for p in (pair, other)]
        ours, theirs = (_sampled(c, grid) for c in curves)
        assert np.abs(theirs / ours - 1.0).max() <= 1e-12
        # a curve's constant is sharp_constant's, bit for bit
        assert curves[1].sharp_constant == pytest.approx(curves[0].sharp_constant, rel=1e-12)


@pytest.mark.parametrize("dim, budget", [(3, 2.0), (5, 1.5), (8, 10.0)])
def test_constructed_decay_is_the_normal_form(dim, budget):
    # C~ = rate Psi (11^T + A(w)) Psi^T (11^T - A(w) in the transposed
    # variant), so the curve at times s / rate is that of the pair
    # (11^T +- A(w), 11^T) for K = I at times s, whatever K is; whitening
    # and unwhitening round at the scale kappa(K) eps
    eps = np.finfo(float).eps
    axes = np.linalg.qr(np.random.default_rng(dim).normal(size=(dim, dim)))[0]
    covariances = [Covariance(np.geomspace(1.0, 10.0, dim)),
                   Covariance(np.geomspace(1.0, 1e4, dim)),
                   Covariance.from_eigen(np.geomspace(1.0, 1e2, dim), axes)]
    ones = np.ones((dim, dim))
    a = _coupling_matrix(arithmetic_weights(dim, budget))
    s = np.linspace(0.0, 20.0, 257)
    for variant, sign in (("standard", 1.0), ("transpose", -1.0)):
        normal = norm_curve(CoefficientPair(Covariance(np.ones(dim)), ones + sign * a, ones),
                            s[-1], s.size, rate=1.0)
        for cov in covariances:
            cert = construct_optimal(cov, budget, variant)
            grid = np.linspace(0.0, s[-1] / cert.rate, s.size)
            curve = norm_curve(cert.pair, grid[-1], grid.size, rate=cert.rate)
            tol = 1e3 * cov.condition_number * eps
            assert np.abs(_sampled(curve, grid) / _sampled(normal, s) - 1.0).max() <= tol
            assert curve.sharp_constant == pytest.approx(normal.sharp_constant, rel=tol)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dim, budget", [(3, 2.0), (8, 1.5), (16, 3.0), (5, 50.0), (4, 200.0)])
def test_constructed_flow_is_a_scaled_rotation_group(dim, budget, variant):
    # N = 11^T + A(w) = I + 2 W^{1/2} S W^{-1/2} with the real skew
    # S_jk = sqrt(w_j w_k) / (w_j - w_k), so exp(rt) ||T(t)|| is the norm of
    # W^{1/2} exp(-2rtS) W^{-1/2}, or of W^{-1/2} exp(-2rtS^T) W^{1/2} in the
    # transposed variant; exp(-tau S) = V diag(exp(i tau lambda)) V^H from
    # the Hermitian iS.  c = 200 takes the flow's scipy route.
    cert = construct_optimal(Covariance(np.geomspace(1.0, 10.0, dim)), budget, variant)
    w, rate = cert.weights, cert.rate
    gaps = np.subtract.outer(w, w)
    np.fill_diagonal(gaps, np.inf)
    skew = np.sqrt(np.outer(w, w)) / gaps
    left, right = np.sqrt(w), 1.0 / np.sqrt(w)
    if variant == "transpose":
        skew, left, right = skew.T, right, left
    lam, v = np.linalg.eigh(1j * skew)
    times = np.linspace(0.0, 20.0 / rate, 401)
    group = [(v * np.exp(2j * rate * t * lam)) @ v.conj().T for t in times]
    expected = [np.linalg.norm(left[:, None] * u * right, 2) for u in group]
    flow = _Flow(Schedule.constant(cert.pair), shift=rate)
    ours = np.exp(flow.log_norms(times, times[-1], "t_max"))
    assert np.abs(ours / expected - 1.0).max() <= 1e-12
    # the certificate's P has a Lyapunov residual of rounding size
    p, ct = cert.P, cert.pair.whitened_drift
    residual = np.linalg.norm(p @ ct + ct.T @ p - 2.0 * rate * p)
    assert residual <= 16.0 * np.finfo(float).eps * np.linalg.norm(p) * np.linalg.norm(ct)


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
    assert np.abs(whitened_skew(cert.pair)).max() == 0.0
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
        basis = basis_of(cert)
        diag = np.diag(basis.T @ pair.whitened_diffusion @ basis)
        assert np.abs(diag - rate).max() <= 1e-10 * rate
        # Lyapunov identity for (skew, Q)
        q, jw, dw = cert.Q, whitened_skew(pair), pair.whitened_diffusion
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
            assert np.exp(rate * t) * np.linalg.norm(expm(pair.whitened_drift, t), 2) \
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
        jw, dw = whitened_skew(pair), pair.whitened_diffusion
        residual = np.linalg.norm(jw @ q - q @ jw + q @ dw + dw @ q - 2.0 * rate * q)
        assert residual <= 1e-12 * rate * np.linalg.norm(q)
        report = validate_pair(pair)
        assert report.passed
        assert abs(report.spectral_gap - rate) <= 1e-9 * rate
        grid = np.linspace(0.0, 20.0 / rate, 200)
        for t in grid:
            assert np.exp(rate * t) * np.linalg.norm(expm(pair.whitened_drift, t), 2) \
                <= 1.5 + 1e-8


def test_construction_validates_at_large_and_small_scales():
    # K = diag(1e14, 2e14) whitens to a diffusion of entries near 1e-14,
    # which an absolute pinning floor once left in the identity basis
    for variances in ([1e14, 2e14], [1e-14, 3e-14, 2e-14], [1e10, 5e10, 2e10, 3e10]):
        cert = construct_optimal(Covariance(np.array(variances)), 2.0)
        dw = cert.pair.whitened_diffusion
        basis = basis_of(cert)
        diag = np.diag(basis.T @ dw @ basis)
        assert np.abs(diag / (np.trace(dw) / len(dw)) - 1.0).max() <= 1e-10
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
            jw, dw = whitened_skew(pair), pair.whitened_diffusion
            residual = np.linalg.norm(jw @ q - q @ jw + q @ dw + dw @ q - 2.0 * rate * q)
            scale = np.linalg.norm(q) * (np.linalg.norm(jw) + np.linalg.norm(dw) + rate)
            assert residual <= 100.0 * eps * kappa * scale, (d, kappa)


def test_construct_rejects_bad_budget():
    cov = Covariance(np.array([1.0, 2.0]))
    with pytest.raises(InvalidConstant):
        construct_optimal(cov, 1.0)
    with pytest.raises(TypeError):
        construct_optimal(cov)


def test_transpose_variant_relations():
    cov = Covariance(np.array([1.0, 2.0]))
    standard = construct_optimal(cov, 2.0)
    transposed = construct_optimal(cov, 2.0, variant="transpose")
    assert np.abs(whitened_skew(transposed.pair) + whitened_skew(standard.pair)).max() <= 1e-12
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
    # the ladder (3, 4), the arithmetic ladder of budget sqrt(4/3):
    # coupling strength (w2 + w1)/(w2 - w1) = 7
    cert = construct_optimal(cov, np.sqrt(4.0 / 3.0))
    w = cert.weights
    assert np.abs(w - [3.0, 4.0]).max() <= 1e-12
    assert (w[1] + w[0]) / (w[1] - w[0]) == pytest.approx(7.0)
    assert np.linalg.norm(cert.pair.drift) == pytest.approx(np.sqrt(986.45), rel=1e-9)
