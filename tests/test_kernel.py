import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate

import fpopt
from fpopt import (
    CoefficientPair,
    Covariance,
    InvalidMatrix,
    expm,
    expm_stack,
    general_eigenvalues,
    kalman_rank,
    validate_pair,
)
from fpopt.benchmarks import rotating_pair
from fpopt.kernel import symmetry_defect
from fpopt.propagator import _four_sums, _log_top_singular, _top_singular_2x2
from helpers import random_stable


# ---------------------------------------------------------------- expm

def test_expm_of_zero_is_identity():
    assert np.array_equal(expm(np.zeros((2, 2)), 5.0), np.eye(2))


def test_expm_diagonal():
    out = expm(np.diag([1.0, 2.0]), 1.0)
    assert np.abs(out - np.diag([np.exp(-1.0), np.exp(-2.0)])).max() <= 1e-15


def test_expm_matches_adaptive_ode_integration():
    # oracle: column-wise DOP853 integration of dx/dt = -a x
    a = np.array([[0.0, -3.0], [3.0, 2.0]])
    for t in (0.1, 1.0, 5.0):
        prop = expm(a, t)
        for j in range(2):
            sol = scipy.integrate.solve_ivp(
                lambda s, x: -(a @ x), (0.0, t), np.eye(2)[:, j],
                method="DOP853", rtol=1e-12, atol=1e-14)
            assert np.abs(prop[:, j] - sol.y[:, -1]).max() <= 1e-9


def test_expm_semigroup_property():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_stable(rng, 4)
        t, s = rng.uniform(0.0, 5.0, size=2)
        lhs = expm(a, t + s)
        rhs = expm(a, t) @ expm(a, s)
        assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_expm_large_argument_against_spectral_route():
    # symmetric input, so an eigendecomposition gives an independent exact
    # exponential; checked up to ||a t|| = 50
    rng = np.random.default_rng(14)
    g = rng.normal(size=(5, 5))
    a = g + g.T
    a *= 10.0 / np.linalg.norm(a, 2)
    w, v = np.linalg.eigh(a)
    # the oracle's own eigenvalue error is amplified by t, so the two-sided
    # discrepancy bound loosens with the argument size
    for t, bound in ((1.0, 1e-12), (5.0, 5e-12)):
        reference = v @ np.diag(np.exp(-w * t)) @ v.T
        err = np.linalg.norm(expm(a, t) - reference) / np.linalg.norm(reference)
        assert err <= bound


def test_expm_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        expm(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0)
    with pytest.raises(ValueError):
        expm(np.eye(2), -1.0)


def test_expm_time_array_is_stack_of_scalar_calls():
    # the factored stack agrees with scipy's scalar exponential to rounding
    rng = np.random.default_rng(15)
    for dim in (2, 5):
        a = random_stable(rng, dim)
        times = np.concatenate(([0.0], rng.uniform(0.0, 4.0, size=9)))
        exp = expm_stack(a)
        assert exp.factored
        stack = exp(times)
        assert stack.shape == (10, dim, dim)
        assert np.array_equal(stack[0], np.eye(dim))
        np.testing.assert_allclose(stack, np.array([expm(a, t) for t in times]),
                                   rtol=1e-12, atol=1e-12)


def test_expm_stack_real_blocks_match_scalar_calls():
    # two real eigenvalues and two conjugate pairs, in a random orthogonal
    # basis: the real-block stack agrees with scipy's scalar exponential
    rng = np.random.default_rng(16)
    blocks = np.zeros((6, 6))
    blocks[0, 0], blocks[1, 1] = 0.5, 3.0
    blocks[2:4, 2:4] = [[1.0, 7.0], [-7.0, 1.0]]
    blocks[4:, 4:] = [[2.0, -0.3], [0.3, 2.0]]
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    a = q @ blocks @ q.T
    exp = expm_stack(a)
    assert exp.factored
    times = np.concatenate(([0.0], rng.uniform(0.0, 6.0, size=9)))
    np.testing.assert_allclose(exp(times), np.array([expm(a, t) for t in times]),
                               rtol=1e-12, atol=1e-14)


def test_expm_time_array_rejects_bad_entries():
    defective = np.array([[0.0, -1.0], [1.0, 2.0]])
    for a in (np.eye(2), defective):
        exp = expm_stack(a)
        for times in ([0.5, -1e-3], [0.5, np.nan], [np.inf], [[0.5]], 0.5):
            with pytest.raises(ValueError):
                exp(np.array(times))
    with pytest.raises(ValueError):
        expm(np.eye(2), np.array([0.5]))


def test_import_leaves_scipy_unloaded():
    # scipy.linalg is imported by the two functions that use it, on first call
    src = os.path.dirname(os.path.dirname(fpopt.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, fpopt; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


# ------------------------------------------------------- symmetry defects

def test_symmetry_defects_at_extreme_magnitudes():
    # the norms are taken after an exact power-of-two rescaling, so neither
    # overflow (entries near 1e300) nor underflow (near 1e-300) gives nan
    for scale in (1e300, 1.0, 1e-300):
        a = scale * np.array([[1.0, 1.0], [-1.0, 1.0]])
        assert symmetry_defect(a) == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert symmetry_defect(a.T) == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert symmetry_defect(scale * np.eye(2)) == 0.0
    assert symmetry_defect(np.zeros((2, 2))) == 0.0


# ------------------------------------------------------- spectral norm
# The package's spectral norm is the log top singular value of a stack:
# the closed form propagator._top_singular_2x2 for 2x2 matrices, and
# propagator._log_top_singular, the top eigenvalue of the Gram matrix,
# otherwise.

def _top_singular(m):
    m = np.asarray(m, dtype=float)[None]
    if m.shape[-1] == 2:
        return np.exp(_top_singular_2x2(*_four_sums(m))[0][0])
    return np.exp(_log_top_singular(m)[0][0])


def test_spectral_norm_identity_and_diagonal():
    assert _top_singular(np.eye(4)) == pytest.approx(1.0, abs=1e-15)
    assert _top_singular(np.eye(2)) == 1.0
    assert _top_singular(np.diag([1.0, -3.0])) == pytest.approx(3.0, abs=1e-15)
    assert _top_singular(np.diag([1.0, -3.0, 2.0])) == pytest.approx(3.0, abs=1e-15)


def test_spectral_norm_against_gram_eigensolve():
    # both routes against LAPACK's singular values
    rng = np.random.default_rng(5)
    for d in (2, 5):
        a = rng.normal(size=(d, d))
        gram_top = np.sqrt(np.linalg.eigvalsh(a.T @ a)[-1])
        assert abs(_top_singular(a) - gram_top) <= 1e-12 * gram_top
        assert _top_singular(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-13)


def test_spectral_norm_submultiplicative():
    rng = np.random.default_rng(6)
    for d in (2, 4):
        for _ in range(25):
            a = rng.normal(size=(d, d))
            b = rng.normal(size=(d, d))
            assert _top_singular(a @ b) <= _top_singular(a) * _top_singular(b) + 1e-12


# -------------------------------------------------- general_eigenvalues

def test_eigenvalues_of_rotating_block():
    # drift block with spectrum 1 +- i sqrt(mu^2 - 1)
    mu = 2.6
    c = np.array([[2.0, mu / np.sqrt(2.0)], [-np.sqrt(2.0) * mu, 0.0]])
    eigs = np.sort_complex(general_eigenvalues(c))
    expected = np.sort_complex(np.array([1 - 1j * np.sqrt(mu**2 - 1),
                                         1 + 1j * np.sqrt(mu**2 - 1)]))
    assert np.abs(eigs - expected).max() <= 1e-9


def test_eigenvalues_diagonal():
    assert np.allclose(np.sort(general_eigenvalues(np.diag([3.0, 5.0])).real), [3.0, 5.0])


def test_eigenvalues_companion_matrix():
    # companion form of (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    companion = np.array([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    roots = np.sort(general_eigenvalues(companion).real)
    assert np.abs(roots - np.array([1.0, 2.0, 3.0])).max() <= 1e-9


# ----------------------------------------------------------- kalman_rank

def test_kalman_rank_detects_invariant_kernel():
    a = np.diag([1.0, 0.0])
    assert kalman_rank(a, a) is False


def test_kalman_rank_full_diffusion():
    rng = np.random.default_rng(12)
    assert kalman_rank(rng.normal(size=(3, 3)), np.eye(3)) is True


def test_kalman_rank_rank_one_diffusion():
    eps = 0.05
    drift = np.array([[0.0, -7.0 / np.sqrt(eps)], [7.0 * np.sqrt(eps), 2.0]])
    diffusion = np.diag([0.0, 2.0])
    assert kalman_rank(drift, diffusion) is True
    # oracle: explicit 2x4 block matrix rank
    block = np.hstack([diffusion, drift @ diffusion])
    assert np.linalg.matrix_rank(block) == 2


def test_kalman_rank_similarity_invariant():
    rng = np.random.default_rng(13)
    for _ in range(15):
        a = rng.normal(size=(4, 4))
        g = rng.normal(size=(4, 4))
        b = g @ g.T
        b[3, :] = 0.0
        b[:, 3] = 0.0
        s = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
        if np.linalg.cond(s) > 50:
            continue
        transformed = kalman_rank(s @ a @ np.linalg.inv(s), s @ b @ s.T)
        assert transformed == kalman_rank(a, b)


def test_kalman_rank_repeated_eigenvalue():
    # C = diag(1, 1, 2) with D = 11^T: the left eigenvector e1 - e2 of the
    # double eigenvalue is orthogonal to the range of D.  eig returns some
    # basis of that eigenspace, whose vectors need not miss the range of D,
    # so only the rank of [C^T - I; D^T] can see it.
    c, d = np.diag([1.0, 1.0, 2.0]), np.ones((3, 3))
    assert np.linalg.norm(d.T @ np.linalg.eig(c.T)[1], axis=0).min() > 0.5
    assert kalman_rank(c, d) is False
    rng = np.random.default_rng(14)
    for _ in range(5):
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        assert kalman_rank(q @ c @ q.T, q @ d @ q.T) is False
    report = validate_pair(CoefficientPair(Covariance(np.eye(3)), c, d))
    assert not report.admissible and not report.hypoelliptic and not report.passed


def test_kalman_rank_defective_admissible_pair():
    # the whitened drift [[0, -1], [1, 2]] has the double eigenvalue 1 with
    # a single eigenvector, which the rank-one diffusion still reaches
    report = validate_pair(rotating_pair(1.0))
    assert report.hypoelliptic and report.passed


def test_kalman_rank_defective_uncontrollable_block():
    # a Jordan block of size k splits under rounding into k eigenvalues about
    # eps**(1/k) apart, with nearly parallel eigenvectors that each nearly
    # reach the range of b; the block's left eigenvector e_n does not
    rng = np.random.default_rng(16)
    n = 5
    for k in (2, 3, 4):
        for _ in range(10):
            a = np.zeros((n, n))
            a[:n - k] = rng.normal(size=(n - k, n))
            a[n - k:, n - k:] = rng.normal() * np.eye(k) + np.eye(k, k=1)
            g = rng.normal(size=(n, n))
            g[-1] = 0.0
            q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            assert kalman_rank(q @ a @ q.T, q @ g @ g.T @ q.T) is False, k
            assert kalman_rank(q @ a @ q.T, np.eye(n)) is True, k


def test_kalman_rank_jordan_block_near_simple_eigenvalue():
    # as above, with a simple eigenvalue at lambda + delta whose eigenvector
    # leans towards the block's: the pair stays uncontrollable
    rng = np.random.default_rng(17)
    n = 5
    for k in (2, 3, 4):
        for delta in (None, 1e-2, -1e-2, 1e-4, -1e-4):
            for _ in range(20):
                lam = rng.normal()
                a = np.zeros((n, n))
                a[:n - k] = rng.normal(size=(n - k, n))
                a[n - k:, n - k:] = lam * np.eye(k) + np.eye(k, k=1)
                if delta is not None:
                    a[n - k - 1, :n - k] = 0.0
                    a[n - k - 1, n - k - 1] = lam + delta
                g = rng.normal(size=(n, n))
                g[-1] = 0.0
                q = np.linalg.qr(rng.normal(size=(n, n)))[0]
                assert kalman_rank(q @ a @ q.T, q @ g @ g.T @ q.T) is False, (k, delta)


def test_kalman_rank_tolerance_is_relative_to_the_drift():
    # b reaches only e_1..e_m, which a leaves invariant until its coupling
    # block a[m:, :m] is set to delta ||a||_F: RANK_TOL = 1e-10 separates
    # delta = 1e-6 (controllable) from delta = 1e-13 (rounding)
    rng = np.random.default_rng(18)
    n = 4
    for m in (1, 2, 3):
        for _ in range(5):
            a = rng.normal(size=(n, n))
            a[m:, :m] = 0.0
            coupling = rng.normal(size=(n - m, m))
            coupling *= np.linalg.norm(a) / np.linalg.norm(coupling)
            g = rng.normal(size=(n, m))
            g[m:] = 0.0
            q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            for delta, verdict in ((1e-6, True), (1e-13, False)):
                a[m:, :m] = delta * coupling
                assert kalman_rank(q @ a @ q.T, q @ g @ g.T @ q.T) is verdict, (m, delta)


def _random_control_pair(rng, n):
    """A random ``(a, b)`` in a random orthonormal basis: a generic drift, a
    block-triangular drift that leaves the range of ``b`` invariant, or a
    small integer spectrum with repeated, possibly defective, eigenvalues."""
    kind = rng.integers(3)
    if kind == 0:
        a = rng.normal(size=(n, n))
    elif kind == 1:
        a = np.triu(rng.normal(size=(n, n)))
    else:
        a = np.diag(rng.integers(0, 3, size=n).astype(float)) \
            + np.triu(rng.integers(0, 2, size=(n, n)), 1)
    m = rng.integers(1, n + 1)
    g = rng.normal(size=(n, m))
    if kind == 1:
        g[m:] = 0.0   # the range of b lies in the invariant span of e_1..e_m
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return q @ a @ q.T, q @ g @ g.T @ q.T


def test_kalman_rank_agrees_with_krylov_rank():
    rng = np.random.default_rng(15)
    verdicts = []
    for i in range(600):
        n = 1 + i % 5
        a, b = _random_control_pair(rng, n)
        krylov = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(n)])
        verdicts.append(bool(np.linalg.matrix_rank(krylov) == n))
        assert kalman_rank(a, b) is verdicts[-1]
    assert 100 <= verdicts.count(False) <= 500
