"""Dense linear-algebra primitives shared by the rest of the package.

Everything here operates on plain float ``numpy`` arrays, allocates fresh
outputs, and holds no state, so all functions are safe to call concurrently.
A 2x2 exponential has a closed form (:func:`expm_2x2`), evaluated with no
matrix library call at all; it stays accurate as the drift nears a defective
one.  The rest of the heavy lifting is delegated to LAPACK through
numpy/scipy: the matrix exponential at one time uses scipy's
scaling-and-squaring Pade code; for ``d >= 3`` a stack of times shares one
real eigendecomposition of the matrix, with the Pade code as the fallback
for (nearly) defective matrices.  Either factor carries its matrix's
spectral ``gap``, so no caller solves for it again.  General spectra use
the Hessenberg + shifted-QR path behind ``eigvals``; the controllability
test is an orthogonal staircase of SVDs.  ``scipy.linalg`` is imported
only by the two functions that call it, keeping it out of import time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigenFailure, InvalidMatrix, NotPSD, NotSymmetric

#: Relative Frobenius tolerance for accepting a matrix as symmetric.
#: Inputs in this package are constructed analytically, so the tolerance is
#: tight on purpose: a larger defect is a real bug, not noise.
SYM_TOL = 1e-12

#: Singular values, and the eigenvalues of a PSD matrix, below RANK_TOL
#: times the scale of their matrix (in magnitude) count as zero.
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


def binary_exponent(a) -> int:
    """The ``e`` that brings the largest entry of ``2**-e a`` to [0.5, 1)
    (0 for the zero matrix).  That scaling is exact and keeps norms of
    ``a`` from overflowing for entries beyond about 1e154."""
    return int(np.frexp(np.abs(a).max(initial=0.0))[1])


def symmetry_defect(a) -> float:
    """Relative Frobenius distance ||a - a^T|| / ||a|| (0 for the zero
    matrix), taken on ``a`` scaled by ``2**-binary_exponent(a)``."""
    a = np.asarray(a, dtype=float)
    if not np.any(a):
        return 0.0
    a = np.ldexp(a, -binary_exponent(a))
    return float(np.linalg.norm(a - a.T) / np.linalg.norm(a))


def symmetric_psd(a, name: str):
    """``(s, eigs)``: the symmetric part of ``a`` and its ascending
    eigenvalues, once ``a`` is checked to be symmetric positive
    semi-definite (:class:`NotSymmetric`, :class:`NotPSD` otherwise).
    Negative eigenvalues down to ``-RANK_TOL`` times the largest magnitude
    count as zero, so the verdict is scale-free.  ``name`` is what ``a`` is
    called in the messages."""
    if symmetry_defect(a) > SYM_TOL:
        raise NotSymmetric(f"{name} must be symmetric")
    a = 0.5 * (a + a.T)
    eigs = np.linalg.eigvalsh(a)
    if eigs[0] < -RANK_TOL * np.abs(eigs).max():
        raise NotPSD(f"{name} has negative eigenvalue {eigs[0]:.3e}")
    return a, eigs


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
    import scipy.linalg

    a = as_square(a)
    return scipy.linalg.expm(-_times(t, 0) * a)


def _two_sum(x: float, y: float):
    """``(s, e)`` with ``s = fl(x + y)`` and ``s + e = x + y`` exactly (Knuth's TwoSum)."""
    s = x + y
    v = s - x
    return s, (x - (s - v)) + (y - v)


def _two_product(x: float, y: float):
    """``(p, e)`` with ``p = fl(x y)`` and ``p + e = x y`` exactly (Dekker's
    two-product), for ``|x|, |y| < 1``, where the splitting cannot overflow."""
    p = x * y
    x_split, y_split = x * 134217729.0, y * 134217729.0
    x_top, y_top = x_split - (x_split - x), y_split - (y_split - y)
    x_low, y_low = x - x_top, y - y_top
    return p, ((x_top * y_top - p) + x_top * y_low + x_low * y_top) + x_low * y_low


def expm_2x2(a):
    """Factor a 2x2 ``a`` once; return ``times -> (log_scale, c, s)``.

    With ``mu = tr(a) / 2`` and the traceless ``N = a - mu I``, whose
    square is ``delta2 I`` for ``delta2 = ((a00 - a11) / 2)^2 + a01 a10``,
    ``exp(-t a) = exp(log_scale) (c I - s N)`` elementwise over a 1-D array
    of nonnegative times ``t`` (Bernstein & So 1993; Higham 2008, ch. 10):
    for ``delta2 <= 0``, with ``omega = sqrt(-delta2)``, ``log_scale = -mu t``,
    ``c = cos(omega t)`` and ``s = sin(omega t) / omega`` (``t`` at
    ``omega = 0``); for ``delta2 > 0``, with ``delta = sqrt(delta2)`` and
    ``e = expm1(-2 delta t)``, the growth ``exp(delta t)`` goes into
    ``log_scale = -(mu - delta) t``, and ``c = 1 + e / 2``,
    ``s = -e / (2 delta)``, which stay within ``(1/2, 1]`` and ``[0, t]``.
    So ``c`` and ``s`` cannot overflow, a zero time gives ``(0, 1, 0)``
    exactly, and the form is continuous as ``delta2`` passes through 0,
    where ``a`` is defective.  ``delta2`` is summed from TwoSum and
    two-products of ``a`` scaled by a power of two, so it is correct to a
    few ulps even when its terms cancel, as they do near a defective ``a``.
    The callable's attributes hold that scaled factor, whose entries lie
    below 1 so that nothing overflows: with ``exponent =
    binary_exponent(a)``, ``traceless`` is ``2**-exponent N`` and
    ``delta2`` is ``4**-exponent delta2``.  ``gap`` is the smallest real
    part of the eigenvalues of ``a``: ``mu``, or ``mu - delta`` for
    ``delta2 > 0``, taken as ``det(a) / (mu + delta)`` when ``mu > 0``,
    with ``det(a)`` from two-products, so that no cancellation costs digits.
    """
    a = as_square(a)
    if a.shape != (2, 2):
        raise InvalidMatrix(f"expected a 2x2 matrix, got shape {a.shape}")
    e = binary_exponent(a)
    (a00, a01), (a10, a11) = np.ldexp(a, -e).tolist()
    n, n_low = _two_sum(0.5 * a00, -0.5 * a11)   # exact halves of the scaled entries
    square, square_low = _two_product(n, n)
    product, product_low = _two_product(a01, a10)
    delta2, low = _two_sum(square, product)
    delta2 += low + square_low + product_low + 2.0 * n * n_low
    half_trace, delta = 0.5 * (a00 + a11), math.sqrt(abs(delta2))
    gap = half_trace if delta2 <= 0.0 else half_trace - delta
    if delta2 > 0.0 and half_trace > 0.0:   # as det / (mu + delta): no cancellation
        diagonal, diagonal_low = _two_product(a00, a11)
        gap = ((diagonal - product) + (diagonal_low - product_low)) / (half_trace + delta)
    mu, root, gap = math.ldexp(half_trace, e), math.ldexp(delta, e), math.ldexp(gap, e)

    if delta2 > 0.0:
        def factor(t):
            t = _times(t, 1)
            decay = np.expm1(-2.0 * root * t)
            return -(mu - root) * t, 1.0 + 0.5 * decay, decay / (-2.0 * root)
    else:
        def factor(t):
            t = _times(t, 1)
            if root == 0.0:
                return -mu * t, np.ones_like(t), t
            angle = root * t
            return -mu * t, np.cos(angle), np.sin(angle) / root
    factor.traceless = np.array([[n, a01], [a10, -n]])
    factor.delta2, factor.exponent, factor.gap = delta2, e, gap
    return factor


def expm_stack(a):
    """Factor ``a`` once; return ``times -> stack of exp(-t a)``.

    The returned callable takes a 1-D array of nonnegative times and gives
    the stack of ``exp(-t[k] a)`` along a new first axis.  The
    eigendecomposition is turned into a real one, ``a = W B W^{-1}``: each
    conjugate pair ``alpha +- i beta`` with unit eigenvector ``x +- i y``
    contributes the columns ``sqrt(2) x`` and ``sqrt(2) y`` of ``W`` and the
    block ``[[alpha, beta], [-beta, alpha]]`` of ``B``, and each real
    eigenvalue its unit eigenvector and itself.  The ``sqrt(2)`` makes
    ``W`` a unitary transform of the unit complex eigenvector matrix ``V``,
    so ``cond(W) = cond(V)``.  Since ``exp(-t B)`` is made of
    ``exp(-alpha t)`` times rotations by ``beta t``, ``W exp(-t B) W^{-1}``
    is a sum of fixed real terms, one per eigenvalue, weighted by
    ``exp(-alpha t) cos(beta t)``, ``exp(-alpha t) sin(beta t)`` or
    ``exp(-lambda t)``; the whole stack is then one real matrix product of
    those weights with the terms.  When ``cond(W)`` is at most
    ``EIG_COND_MAX`` the slices are accurate to about ``cond(W) * eps``;
    otherwise (defective or nearly defective ``a``) the callable falls back
    to scipy's scaling-and-squaring on the stack, whose slices equal scalar
    :func:`expm` calls bit for bit.  Either way a zero time gives the
    identity exactly.  The callable's ``factored`` says which path it takes,
    and ``gap`` is the smallest real part of the eigenvalues, from
    :func:`general_eigenvalues` if ``eig`` fails (:class:`EigenFailure` if
    that fails too).
    """
    a = as_square(a)
    d = a.shape[0]
    try:
        lam, v = np.linalg.eig(a)
        upper, real = lam.imag > 0, lam.imag == 0
        pairs = int(np.count_nonzero(upper))
        x, y = np.sqrt(2.0) * v[:, upper].real, np.sqrt(2.0) * v[:, upper].imag
        r = v[:, real].real
        w = np.concatenate((x, y, r), axis=1)
        well_conditioned = w.shape[1] == d and np.linalg.cond(w) <= EIG_COND_MAX
    except np.linalg.LinAlgError:
        lam, well_conditioned = general_eigenvalues(a), False
    if well_conditioned:
        w_inv = np.linalg.inv(w)
        xt, yt, rt = w_inv[:pairs], w_inv[pairs:2 * pairs], w_inv[2 * pairs:]

        def outer(columns, rows):
            # k-th row: the flattened outer product of columns[:, k] and rows[k]
            return (columns.T[:, :, None] * rows[:, None, :]).reshape(len(rows), d * d)

        terms = np.concatenate((outer(x, xt) + outer(y, yt), outer(y, xt) - outer(x, yt),
                                outer(r, rt)))
        alpha, beta, lam_real = lam[upper].real, lam[upper].imag, lam[real].real

        def stack(t):
            t = _times(t, 1)
            decay, phase = np.exp(-np.outer(t, alpha)), np.outer(t, beta)
            weights = np.concatenate((decay * np.cos(phase), decay * np.sin(phase),
                                      np.exp(-np.outer(t, lam_real))), axis=1)
            out = (weights @ terms).reshape(len(t), d, d)
            out[t == 0] = np.eye(d)
            return out
    else:
        def stack(t):
            import scipy.linalg

            return scipy.linalg.expm(-_times(t, 1)[:, None, None] * a)
    stack.factored, stack.gap = bool(well_conditioned), float(lam.real.min())
    return stack


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


def kalman_rank(a, b) -> bool:
    """Kalman's rank condition, decided by an orthogonal staircase.

    True iff ``[b, a b, ..., a^{n-1} b]`` has full rank ``n``: on a
    drift/diffusion pair, the hypoellipticity test.  The Krylov matrix,
    whose small singular values drown under the powers of ``a`` (Paige
    1981), is never formed.  Instead the staircase (Van Dooren 1981) takes
    the SVD of ``b``, then of the coupling from the coordinates just kept
    into those still left; keeps the singular values above ``RANK_TOL``
    times ``||b||_F`` (first step) or ``||a||_F`` (after); and rotates the
    block of ``a`` on the remaining coordinates by the left singular
    vectors from both sides.  A step that keeps nothing means the pair is
    uncontrollable.  The number of steps minus one is the hypocoercivity
    index (Achleitner, Arnold & Mehrmann 2021).  ``a`` and ``b`` are scaled
    by powers of two first: exact, and no norm overflows.
    """
    a, b = as_square(a), as_square(b)
    if a.shape != b.shape:
        raise InvalidMatrix("rank test needs matrices of matching shapes")
    a, b = np.ldexp(a, -binary_exponent(a)), np.ldexp(b, -binary_exponent(b))
    k, block, scale, a_scale = 0, b, np.linalg.norm(b), np.linalg.norm(a)
    while k < len(a):
        u, s, _ = np.linalg.svd(block)
        kept = np.count_nonzero(s > RANK_TOL * scale)
        if kept == 0:
            return False
        a[k:, k:] = u.T @ a[k:, k:] @ u
        block, k, scale = a[k + kept:, k:k + kept], k + kept, a_scale
    return True
