"""Shared generators for seeded random sweeps."""

import itertools
import threading

import numpy as np
import scipy.integrate
import scipy.linalg

from fpopt import CoefficientPair, Covariance, Schedule, equidistribute_basis, propagator
from fpopt.propagator import _Flow


def random_spd(rng, dim, shift=0.5):
    g = rng.normal(size=(dim, dim))
    return g @ g.T + shift * np.eye(dim)


def random_covariance(rng, dim, shift=0.5):
    return Covariance(random_spd(rng, dim, shift))


def make_pair(cov, diffusion, skew):
    """The admissible pair with drift C = (D + J) K^{-1}, for a symmetric
    PSD diffusion D within the trace budget and an antisymmetric skew J."""
    return CoefficientPair(cov, (diffusion + skew) @ cov.inv, diffusion)


def certificate_skew(doc):
    """The skew part ``S - S^T``, ``S = C K / 2``, of a certificate
    document's ``C`` and ``K``."""
    ck = 0.5 * (np.array(doc["C"]) @ np.array(doc["K"]))
    return ck - ck.T


def whitened_skew(pair):
    """The whitened skew ``J~``: the antisymmetric part of the whitened
    drift, halved first so that it overflows only where ``J~`` does."""
    half = 0.5 * pair.whitened_drift
    return half - half.T


def basis_of(cert):
    """The certificate's basis: the eigenvectors of ``P`` and ``Q``, or the
    identity in the isotropic case."""
    if cert.weights is None:
        return np.eye(cert.dim)
    return equidistribute_basis(cert.direction)


def random_admissible_pair(rng, cov):
    """Random member of the admissible set: PSD diffusion within the trace
    budget plus an antisymmetric skew part."""
    d = cov.dim
    g = rng.normal(size=(d, d))
    diffusion = g @ g.T
    diffusion *= rng.uniform(0.2, 1.0) * d / np.trace(diffusion)
    r = rng.normal(size=(d, d))
    skew = 0.5 * (r - r.T)
    return make_pair(cov, diffusion, skew)


def initial_slope(pair):
    """The slope ``m`` of the norm curve's start, ``1 - m t + O(t^2)``: the
    smallest eigenvalue of the symmetric part of the whitened drift, which
    for an admissible pair is the whitened diffusion."""
    ct = pair.whitened_drift
    return float(np.linalg.eigvalsh(0.5 * (ct + ct.T))[0])


def exact_constant_2d(drift):
    """Independent oracle for the closed-form 2D constant: sqrt((1 + alpha)
    / (1 - alpha)), with alpha the modulus of the Hermitian inner product of
    the unit eigenvectors of ``drift``, from 60-digit mpmath eigenvectors
    of the same float matrix."""
    import mpmath

    with mpmath.workdps(60):
        _, vectors = mpmath.eig(mpmath.matrix(np.asarray(drift).tolist()))
        v1, v2 = vectors[:, 0], vectors[:, 1]
        alpha = abs(sum(mpmath.conj(v1[i]) * v2[i] for i in range(2))) \
            / (mpmath.norm(v1) * mpmath.norm(v2))
        return float(mpmath.sqrt((1 + alpha) / (1 - alpha)))


def random_stable(rng, dim, margin=0.5):
    """Random matrix with spectrum shifted into the open right half-plane."""
    a = rng.normal(size=(dim, dim))
    gap = np.min(np.real(np.linalg.eigvals(a)))
    return a + (margin - min(gap, 0.0)) * np.eye(dim)


def integrate_flow(schedule, t, rtol=1e-12, atol=1e-14):
    """Independent oracle for T(t, 0): adaptive Runge-Kutta integration of
    dx/dt = -whitened_drift(t) x, columnwise, split at the breakpoints."""
    d = schedule.dim
    bounds = list(schedule.switch_times) + [np.inf]
    cols = []
    for j in range(d):
        x = np.eye(d)[:, j]
        start = 0.0
        for pair, end in zip(schedule.pairs, bounds):
            hi = min(t, end)
            if hi > start:
                sol = scipy.integrate.solve_ivp(
                    lambda s, y, m=pair.whitened_drift: -(m @ y),
                    (start, hi), x, method="DOP853", rtol=rtol, atol=atol)
                assert sol.success
                x = sol.y[:, -1]
            if end >= t:
                break
            start = end
        cols.append(x)
    return np.column_stack(cols)


def fokker_planck_evolution(schedule, t, degree):
    """Independent oracle for the Fokker-Planck evolution itself: its
    solution operator at time ``t`` on the polynomials of degree up to
    ``degree``, in the orthonormal Hermite basis of L^2(N(0, I)), split at
    the breakpoints.  Returns the matrix and each basis function's degree.

    The whitening comes from a Cholesky factor ``K = L L^T``, not from the
    package's symmetric square root: in ``y = L^{-1} x`` the ratio
    ``h = f / f_inf`` evolves by ``dh/dt = Tr(D~ grad^2 h) - (C~^T y).grad h``
    with ``C~ = L^{-1} C L`` and ``D~ = L^{-1} D L^{-T}``.  On the functions
    ``prod_i He_{a_i}(y_i) / sqrt(a_i!)``, ``d/dy_i`` lowers ``a_i`` with the
    factor ``sqrt(a_i)`` and ``y_i`` is that lowering plus its adjoint, so
    the generator is exact on degrees up to ``degree``.  For an admissible
    pair its degree-lowering terms cancel, which makes it block diagonal by
    degree."""
    chol = np.linalg.cholesky(schedule.covariance.matrix)
    indices = [a for a in itertools.product(range(degree + 1), repeat=schedule.dim)
               if sum(a) <= degree]
    position = {a: n for n, a in enumerate(indices)}
    lower = np.zeros((schedule.dim, len(indices), len(indices)))
    for n, a in enumerate(indices):
        for i in np.flatnonzero(a):
            lower[i, position[a[:i] + (a[i] - 1,) + a[i + 1:]], n] = np.sqrt(a[i])
    coordinate = lower + lower.transpose(0, 2, 1)
    evolution = np.eye(len(indices))
    bounds = list(schedule.switch_times) + [np.inf]
    start = 0.0
    for pair, end in zip(schedule.pairs, bounds):
        drift = scipy.linalg.solve_triangular(chol, pair.drift @ chol, lower=True)
        diffusion = scipy.linalg.solve_triangular(
            chol, scipy.linalg.solve_triangular(chol, pair.diffusion, lower=True).T, lower=True)
        generator = (np.einsum("ij,iab,jbc->ac", diffusion, lower, lower)
                     - np.einsum("ji,jab,ibc->ac", drift, coordinate, lower))
        hi = min(t, end)
        evolution = scipy.linalg.expm((hi - start) * generator) @ evolution
        if end >= t:
            break
        start = end
    return evolution, np.array([sum(a) for a in indices])


def flow_stack(flow, times):
    """Stack of ``flow``'s weighted M(t), one time at a time, each from the
    segment that holds it (``_Flow._segment``)."""
    segment = np.searchsorted(flow.starts[1:], times, side="right")
    return np.array([flow._segment(i, np.array([t - flow.starts[i]]))[0]
                     for i, t in zip(segment, np.asarray(times, dtype=float))])


def propagator_at(schedule, t):
    """T(t, 0) of ``schedule``, from the package's flow."""
    return flow_stack(_Flow(schedule), [t])[0]


def restarted(schedule, s):
    """``schedule`` seen from time ``s``: the pieces active after ``s``,
    with their switch times moved back by ``s``.  Its T(t, 0) is the
    original's T(s + t, s)."""
    first = int(np.searchsorted(schedule.switch_times, s, side="right"))
    return Schedule(schedule.pairs[first:], [t - s for t in schedule.switch_times[first:]])


def blas_threads(limit=None):
    """OpenBLAS's thread count, read through its thread limit (by default
    the package's), which sets a count and returns the one before."""
    limit = limit or propagator._openblas_thread_limit()
    count = limit(1)
    limit(count)
    return count


def hold_is_free():
    """Whether a fresh thread can take the BLAS-thread hold's lock at once.
    The lock is reentrant, so the thread that holds it would always get it,
    and an ``RLock`` has no ``locked()`` before Python 3.13."""
    lock, taken = propagator._share_lock, []

    def probe():
        if lock.acquire(blocking=False):
            lock.release()
            taken.append(True)

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return taken == [True]
