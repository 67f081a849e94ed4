"""Dense linear-algebra primitives shared by the rest of the package.

Everything here operates on plain float ``numpy`` arrays, allocates fresh
outputs, and holds no state, so all functions are safe to call concurrently.
The heavy lifting is delegated to LAPACK through numpy/scipy: the matrix
exponential at one time uses scipy's scaling-and-squaring Pade code; a
stack of times shares one eigendecomposition of the matrix, with the Pade
code as the fallback for (nearly) defective matrices; general spectra use
the Hessenberg + shifted-QR path behind ``eigvals``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import EigenFailure, InvalidMatrix

#: Relative Frobenius tolerance for accepting a matrix as (anti)symmetric.
#: Inputs in this package are constructed analytically, so the tolerance is
#: tight on purpose: a larger defect is a real bug, not noise.
SYM_TOL = 1e-12

#: Singular values below RANK_TOL * sigma_max count as zero in rank tests.
RANK_TOL = 1e-10

#: Largest condition number of the eigenvector matrix for which
#: :func:`expm_stack` exponentiates through the eigendecomposition.
EIG_COND_MAX = 1e2


def as_square(a) -> np.ndarray:
    """Coerce ``a`` to a finite square float array.

    Raises
    ------
    InvalidMatrix
        If the array is not two-dimensional square or contains NaN/Inf.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix entries must be finite")
    return a


def symmetry_defect(a) -> float:
    """Relative Frobenius distance ||a - a^T|| / ||a|| (0 for the zero matrix)."""
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(a - a.T) / scale)


def antisymmetry_defect(a) -> float:
    """Relative Frobenius distance ||a + a^T|| / ||a|| (0 for the zero matrix)."""
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(a + a.T) / scale)


def _times(t, ndim: int) -> np.ndarray:
    """``t`` as a float array of ``ndim`` dimensions with finite nonnegative entries."""
    t = np.asarray(t, dtype=float)
    if t.ndim != ndim:
        raise ValueError("times must be a scalar" if ndim == 0 else "times must be a 1-D array")
    if not np.all(np.isfinite(t)) or np.any(t < 0):
        raise ValueError("time must be finite and nonnegative")
    return t


def expm(a, t=1.0) -> np.ndarray:
    """Decay propagator ``exp(-t a)`` for one nonnegative time ``t``.

    Mind the sign convention: this is the solution operator after time ``t``
    of the linear ODE ``dx/dt = -a x``, which is the only form the rest of
    the package needs.  Relative accuracy is at working precision for the
    moderate ``||a t||`` arising here (scipy's scaling-and-squaring Pade),
    whatever the spectrum of ``a``, so this is the reference that
    :func:`expm_stack` is checked against.
    """
    a = as_square(a)
    return scipy.linalg.expm(-_times(t, 0) * a)


def expm_stack(a):
    """Factor ``a`` once; return ``times -> stack of exp(-t a)``.

    The returned callable takes a 1-D array of nonnegative times and gives
    the stack of ``exp(-t[k] a)`` along a new first axis.  When the
    eigenvector matrix ``V`` of ``a`` has condition number at most
    ``EIG_COND_MAX``, every slice is ``(V exp(-t[k] lam)) V^{-1}``, one
    numpy expression for the whole stack, accurate to about
    ``cond(V) * eps``.  Otherwise (defective or nearly defective ``a``) it
    falls back to scipy's scaling-and-squaring on the stack, whose slices
    equal scalar :func:`expm` calls bit for bit.  Either way a zero time
    gives the identity exactly.  The callable's ``factored`` attribute says
    which path it takes.
    """
    a = as_square(a)
    try:
        lam, v = np.linalg.eig(a)
        well_conditioned = np.linalg.cond(v) <= EIG_COND_MAX
    except np.linalg.LinAlgError:
        well_conditioned = False
    if well_conditioned:
        v_inv = np.linalg.inv(v)
        eye = np.eye(a.shape[0])

        def stack(t):
            t = _times(t, 1)
            out = ((v * np.exp(-t[:, None] * lam)[:, None, :]) @ v_inv).real
            out[t == 0] = eye
            return out
    else:
        def stack(t):
            return scipy.linalg.expm(-_times(t, 1)[:, None, None] * a)
    stack.factored = bool(well_conditioned)
    return stack


def spectral_norm(a) -> float:
    """Largest singular value of ``a`` (the operator norm on Euclidean space)."""
    a = as_square(a)
    return float(np.linalg.norm(a, 2))


def general_eigenvalues(a) -> np.ndarray:
    """Full complex spectrum of a real square matrix.

    Uses the LAPACK Hessenberg + shifted-QR iteration.  If the iteration
    fails to converge the failure is raised, never masked: a wrong spectral
    gap must not be reported silently.
    """
    a = as_square(a)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue iteration failed: {exc}") from exc


def spectral_abscissa_gap(a) -> float:
    """Smallest real part over the spectrum of ``a``."""
    return float(np.min(np.real(general_eigenvalues(a))))


def kalman_rank(a, b, tol: float = RANK_TOL) -> bool:
    """Controllability-style rank test.

    True iff ``[b, a b, a^2 b, ..., a^{n-1} b]`` has full rank ``n``, with
    rank counted from singular values above ``tol * sigma_max``.  Applied to
    a drift/diffusion pair this is the hypoellipticity test: no nontrivial
    invariant subspace of the diffusion kernel survives the drift.

    ``a`` is normalised by its spectral norm before the powers are formed;
    block-wise positive scaling leaves the span (hence the rank) unchanged
    but stops ``a^{n-1}`` from drowning the small singular values that the
    relative threshold is supposed to protect.
    """
    a = as_square(a)
    b = as_square(b)
    if a.shape != b.shape:
        raise InvalidMatrix("rank test needs matrices of matching shapes")
    n = a.shape[0]
    scale = spectral_norm(a)
    if scale > 0.0:
        a = a / scale
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    s = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    if s[0] == 0.0:
        return False
    return int(np.count_nonzero(s > tol * s[0])) == n
