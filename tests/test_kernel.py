import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate

import fpopt
from fpopt import (
    InvalidMatrix,
    expm,
    expm_stack,
    general_eigenvalues,
    kalman_rank,
    spectral_norm,
)
from fpopt.kernel import antisymmetry_defect, symmetry_defect
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
        assert antisymmetry_defect(a) == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert symmetry_defect(scale * np.eye(2)) == 0.0
    assert symmetry_defect(np.zeros((2, 2))) == 0.0


# ------------------------------------------------------- spectral_norm

def test_spectral_norm_identity_and_diagonal():
    assert spectral_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-15)
    assert spectral_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0, abs=1e-15)


def test_spectral_norm_against_gram_eigensolve():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 5))
    gram_top = np.sqrt(np.linalg.eigvalsh(a.T @ a)[-1])
    assert abs(spectral_norm(a) - gram_top) <= 1e-12 * gram_top


def test_spectral_norm_submultiplicative():
    rng = np.random.default_rng(6)
    for _ in range(25):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-12


def test_spectral_norm_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        spectral_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


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
