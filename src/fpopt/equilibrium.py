"""Gaussian equilibria and the coefficient pairs that preserve them.

A centred Gaussian with covariance ``K`` stays stationary under the linear
drift-diffusion evolution with coefficients ``(C, D)`` exactly when
``C = (D + J) K^{-1}`` for some antisymmetric ``J``, with ``D`` symmetric
positive semi-definite and the injected randomness capped by the trace
budget ``Tr(D) <= d``.  This module holds the equilibrium object with its
cached spectral data, the coefficient-pair object with its whitened forms,
quantitative validation, and the spectral gap.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import kernel
from .errors import InvalidMatrix, NotPSD, NotSymmetric, TraceBudgetExceeded

#: Absolute slack on the trace budget Tr(D) <= d.  Pairs over budget are
#: rejected, never rescaled: rescaling would silently change the time unit.
TRACE_TOL = 1e-12

#: Relative tolerance on the stationarity residual ||C K + K C^T - 2 D||_F
#: below which a pair counts as preserving the equilibrium.
ADMISSIBILITY_TOL = 1e-10


class Covariance:
    """Symmetric positive-definite covariance with eagerly cached spectral data.

    Accepts a full SPD matrix or a 1-D array of variances (the diagonal
    case) with no subnormal variance, whose inverse would overflow;
    :meth:`from_eigen` builds one from a prescribed eigenbasis.  All derived
    matrices (inverse, square root, inverse square root) and the fastest
    attainable decay data are computed once here, so instances are
    immutable and cheap to share between threads.

    Attributes
    ----------
    matrix, inv, sqrt, inv_sqrt : ndarray
        K and its inverse, principal square root, and inverse square root.
    variances : ndarray
        Eigenvalues of K in ascending order.
    condition_number : float
        Ratio of extreme variances.
    fastest_rate : float
        Largest eigenvalue of K^{-1}, i.e. 1 / min variance; the hard upper
        limit for the exponential decay rate of any admissible pair.
    fastest_direction : ndarray
        Unit eigenvector of K^{-1} for ``fastest_rate``, with the sign fixed
        so its first nonvanishing component is positive (determinism).
    """

    def __init__(self, matrix):
        m = _symmetric(matrix)
        self._cache(m, *np.linalg.eigh(m))

    def _cache(self, m, w, v) -> None:
        """Hold ``K = m`` and the data derived from its eigenpairs: the
        variances ``w`` in ascending order and the orthonormal axes ``v``,
        one column each.  Refuses a variance that is not positive, or is
        subnormal."""
        if w[0] <= 0.0:
            raise NotPSD("covariance must be positive definite")
        if w[0] < np.finfo(float).tiny:
            raise NotPSD(f"covariance has a subnormal variance {w[0]:.3g}, "
                         "whose inverse overflows")
        self.matrix = m
        self.matrix.flags.writeable = False
        self.dim = int(m.shape[0])
        self.variances = w
        self.inv = v @ np.diag(1.0 / w) @ v.T
        self.sqrt = v @ np.diag(np.sqrt(w)) @ v.T
        self.inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.T
        self.condition_number = float(w[-1] / w[0])
        self.fastest_rate = float(1.0 / w[0])
        direction = v[:, 0].copy()
        lead = np.nonzero(np.abs(direction) > 1e-12 * np.abs(direction).max())[0][0]
        if direction[lead] < 0.0:
            direction = -direction
        self.fastest_direction = direction

    @classmethod
    def from_eigen(cls, variances, axes) -> "Covariance":
        """Build from eigenvalues plus an orthogonal eigenvector matrix.

        The stated pairs are kept, sorted by variance, with each axis scaled
        to unit length: ``variances``, the derived matrices and the fastest
        rate and direction come from them, not from an eigendecomposition
        of ``K``, whose rounding is ``eps ||K||`` absolute and would move
        the smallest variance by about ``eps kappa(K)`` relative.
        ``matrix`` is ``axes diag(variances) axes^T``, symmetrised.
        """
        variances = np.asarray(variances, dtype=float)
        axes = kernel.as_square(axes)
        if variances.ndim != 1 or variances.size != axes.shape[0]:
            raise ValueError("need one variance per eigenvector column")
        defect = np.linalg.norm(axes.T @ axes - np.eye(axes.shape[0]))
        if defect > 1e-10 * axes.shape[0]:
            raise ValueError(f"eigenvector matrix is not orthogonal (defect {defect:.3e})")
        order = np.argsort(variances, kind="stable")
        covariance = cls.__new__(cls)
        covariance._cache(_symmetric(axes @ np.diag(variances) @ axes.T), variances[order],
                          axes[:, order] / np.linalg.norm(axes[:, order], axis=0))
        return covariance

    # Whitening: the change of variables that maps the equilibrium Gaussian
    # to the standard normal.  Drifts transform by similarity, quadratic
    # forms (diffusion, skew) by congruence.
    def whiten_drift(self, c) -> np.ndarray:
        """Similarity transform K^{-1/2} c K^{1/2}."""
        return _finite_product(self.inv_sqrt, c, self.sqrt)

    def unwhiten_drift(self, c) -> np.ndarray:
        """Inverse of :meth:`whiten_drift`."""
        return _finite_product(self.sqrt, c, self.inv_sqrt)

    def whiten_form(self, m) -> np.ndarray:
        """Congruence transform K^{-1/2} m K^{-1/2}."""
        return _finite_product(self.inv_sqrt, m, self.inv_sqrt)

    def __repr__(self):
        return f"Covariance(dim={self.dim}, fastest_rate={self.fastest_rate:.6g})"


def _symmetric(matrix) -> np.ndarray:
    """``matrix`` as a finite square float array, symmetrised; refuses an
    empty or a non-symmetric one."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim == 1:
        m = np.diag(m)
    m = kernel.as_square(m)
    if m.shape[0] < 1:
        raise NotPSD("covariance must be at least 1x1")
    if kernel.symmetry_defect(m) > kernel.SYM_TOL:
        raise NotSymmetric("covariance must be symmetric")
    return 0.5 * (m + m.T)


def _finite_product(a, b, c) -> np.ndarray:
    """``a @ b @ c``; an overflow raises :class:`InvalidMatrix`, not a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = a @ b @ c
    if not np.all(np.isfinite(out)):
        raise InvalidMatrix("whitened matrix entries must be finite "
                            "(the change of variables overflows)")
    return out


def _stationarity(drift, k, diffusion):
    """``(residual, scale, e)``: ``||C K + K C^T - 2 D||_F`` and
    ``||C||_F ||K||_F + ||D||_F``, both times ``2**-e``.

    ``C``, ``K`` and ``D`` are scaled by powers of two before the norms
    (``C K`` and ``D`` by the same ``2**-e``), as in
    :func:`kernel.symmetry_defect`: exact, so finite residuals keep every
    bit, and nothing overflows for entries beyond about 1e154 or
    underflows for entries below about 1e-154.
    """
    q = kernel.binary_exponent(k)
    exponents = [kernel.binary_exponent(m) + shift
                 for m, shift in ((drift, q), (diffusion, 0)) if np.any(m)]
    e = max(exponents, default=0)
    c, k, d = np.ldexp(drift, q - e), np.ldexp(k, -q), np.ldexp(diffusion, -e)
    ck = c @ k
    residual = float(np.linalg.norm(ck + ck.T - 2.0 * d))
    scale = float(np.linalg.norm(c) * np.linalg.norm(k) + np.linalg.norm(d))
    return residual, scale, e


def same_equilibrium(a: Covariance, b: Covariance) -> bool:
    """Whether two covariances describe the same equilibrium: their distance
    is within 1e-12 of the larger norm, both taken after one exact
    power-of-two scaling, so the verdict holds at any magnitude."""
    if a is b:
        return True
    if a.dim != b.dim:
        return False
    e = max(kernel.binary_exponent(a.matrix), kernel.binary_exponent(b.matrix))
    x, y = np.ldexp(a.matrix, -e), np.ldexp(b.matrix, -e)
    return bool(np.linalg.norm(x - y) <= 1e-12 * max(np.linalg.norm(x), np.linalg.norm(y)))


class CoefficientPair:
    """A drift/diffusion pair tied to a fixed Gaussian equilibrium.

    Stores the raw matrices, the eigenvalues of ``D``, and the whitened
    forms every norm computation runs on:
    ``C~ = K^{-1/2} C K^{1/2}`` and ``D~ = K^{-1/2} D K^{-1/2}``.  For an
    admissible pair ``C = (D + J) K^{-1}``, so the whitened skew
    ``J~ = K^{-1/2} J K^{-1/2}`` is the antisymmetric part of
    ``whitened_drift``.  Construction enforces shape, finiteness,
    symmetry and positive semi-definiteness of the diffusion, and the trace
    budget.  Whether the pair actually preserves the equilibrium is a
    quantitative question answered by :func:`validate_pair`; the residual is
    stored here so reports stay cheap.
    """

    def __init__(self, covariance: Covariance, drift, diffusion):
        drift = kernel.as_square(drift)
        diffusion = kernel.as_square(diffusion)
        d = covariance.dim
        if drift.shape != (d, d) or diffusion.shape != (d, d):
            raise ValueError("coefficient matrices must match the covariance dimension")
        diffusion, eigs = kernel.symmetric_psd(diffusion, "diffusion")
        trace = float(np.trace(diffusion))
        if trace > d + TRACE_TOL:
            raise TraceBudgetExceeded(f"Tr(D) = {trace:.12g} exceeds the budget d = {d}")
        self.covariance = covariance
        self.drift = drift
        self.diffusion = diffusion
        self.diffusion_eigenvalues = eigs
        self._stationarity = _stationarity(drift, covariance.matrix, diffusion)
        residual, _, e = self._stationarity
        with np.errstate(over="ignore"):   # a residual beyond the float range is inf
            self.stationarity_residual = float(np.ldexp(residual, e))
        self.whitened_drift = covariance.whiten_drift(drift)
        self.whitened_diffusion = covariance.whiten_form(diffusion)
        self.trace_diffusion = trace

    @property
    def dim(self) -> int:
        return self.covariance.dim

    def __repr__(self):
        return (f"CoefficientPair(dim={self.dim}, trace_diffusion="
                f"{self.trace_diffusion:.6g})")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the stationarity / uniqueness checks, with raw residuals.

    ``admissible`` means the pair preserves the equilibrium (small Lyapunov
    residual); ``steady_state_unique`` is the conjunction of positive
    stability and hypoellipticity, the two conditions under which the
    preserved Gaussian is the only normalized steady state.
    """

    stationarity_residual: float
    admissible: bool
    spectral_gap: float
    positive_stable: bool
    hypoelliptic: bool
    trace_diffusion: float
    rank_diffusion: int

    @property
    def steady_state_unique(self) -> bool:
        return self.positive_stable and self.hypoelliptic

    @property
    def passed(self) -> bool:
        return self.admissible and self.steady_state_unique

    def as_dict(self) -> dict:
        return {**asdict(self), "steady_state_unique": self.steady_state_unique,
                "passed": self.passed}

    def __repr__(self):
        status = "passed" if self.passed else "FAILED"
        return (f"ValidationReport({status}, residual="
                f"{self.stationarity_residual:.3e}, gap={self.spectral_gap:.6g})")


def validate_pair(pair: CoefficientPair) -> ValidationReport:
    """Run the full check battery on a pair and report residuals.

    Checks: stationarity of the equilibrium (Lyapunov residual
    ``||C K + K C^T - 2 D||_F`` against :data:`ADMISSIBILITY_TOL`), positive
    stability of the drift by :func:`spectral_gap`, and hypoellipticity by
    the orthogonal staircase of :func:`kernel.kalman_rank` on the whitened
    pair.  Failures are reported, never raised.
    """
    # compared at the scale 2**-e the residual was taken at, so that an
    # overflow on either side cannot decide the verdict, and relative to
    # the pair's own size, so that a rescaled pair gets the same verdict
    residual, scale, _ = pair._stationarity
    admissible = residual <= ADMISSIBILITY_TOL * scale
    gap = spectral_gap(pair)
    eigs = np.abs(pair.diffusion_eigenvalues)
    return ValidationReport(
        stationarity_residual=pair.stationarity_residual,
        admissible=admissible,
        spectral_gap=gap,
        positive_stable=gap > 0.0,
        hypoelliptic=kernel.kalman_rank(pair.whitened_drift, pair.whitened_diffusion),
        trace_diffusion=pair.trace_diffusion,
        rank_diffusion=int(np.count_nonzero(eigs > kernel.RANK_TOL * eigs.max())),
    )


def spectral_gap(pair: CoefficientPair) -> float:
    """Smallest real part over the drift spectrum: the sharp asymptotic rate.
    Taken from the whitened drift, which every norm computation runs on; in
    2D from its closed-form factor (:func:`kernel.expm_2x2`), with no LAPACK call."""
    if pair.dim == 2:
        return kernel.expm_2x2(pair.whitened_drift).gap
    return float(np.min(kernel.general_eigenvalues(pair.whitened_drift).real))
