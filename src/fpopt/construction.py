"""Construction of the fastest-decaying pair and its Lyapunov certificate.

Given an equilibrium covariance ``K`` and a budget ``c > 1`` for the
multiplicative constant, the construction produces a coefficient pair whose
propagator norm obeys ``||T(t, 0)|| <= c exp(-r t)`` with the best possible
rate ``r = max sigma(K^{-1})``.  It proceeds in three steps on the whitened
side:

1. Aim a rank-one diffusion ``D = d (v x v)`` along the unit eigenvector
   ``v`` of ``K^{-1}`` for the fastest rate, spending the whole trace
   budget.  Whitening scales it to ``D~ = r D``.
2. Find an orthonormal basis in which ``D~`` has constant diagonal
   ``Tr(D~)/d`` (Schur-Horn; a finite Givens sweep below), pick strictly
   increasing positive weights ``w_1 < ... < w_d`` with ``w_d / w_1 = c^2``
   and couple the basis directions with the antisymmetric matrix whose
   (j, k) entry is ``(w_j + w_k) / (w_j - w_k) <psi_j, D~ psi_k>``.  This
   choice makes ``Q = Psi diag(w) Psi^T`` satisfy the Lyapunov identity
   ``J~ Q - Q J~ + Q D~ + D~ Q = 2 r Q``, so the ``P``-weighted norm with
   ``P = Q^{-1}`` decays exactly like ``exp(-r t)`` along the whitened flow.
3. Converting back to Euclidean norm costs the factor
   ``sqrt(kappa(P)) = c``, which is the certified envelope constant.

The arithmetic weight ladder ``w_k = (d-1)/(c^2-1) + k - 1`` also keeps the
skew coupling small enough that ``||C||_F`` grows only like ``d^{3/2}`` at
fixed conditioning; :func:`frobenius_bound` is the closed-form bound and
:func:`growth_study` measures it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import kernel
from .equilibrium import CoefficientPair, Covariance
from .errors import DegenerateSchedule, InvalidConstant, NotPSD, NotSymmetric

#: Relative spread of the covariance spectrum below which the equilibrium
#: counts as isotropic and the symmetric pair (K^{-1}, I) is already optimal.
ISOTROPY_TOL = 1e-12

#: Uniformity tolerance for the equidistributed diagonal, relative to
#: the target.
EQUIDIST_TOL = 1e-10

#: The two members of the optimal family that :func:`construct_optimal` builds.
VARIANTS = ("standard", "transpose")


@dataclass(frozen=True)
class EquidistributingBasis:
    """Orthonormal basis in which a PSD matrix has constant diagonal.

    ``vectors`` holds the basis columns, ``target`` the common diagonal
    value (the trace divided by the dimension).
    """

    vectors: np.ndarray
    target: float

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def equidistribute_basis(matrix) -> EquidistributingBasis:
    """Build an orthonormal basis equalising the diagonal of a PSD matrix.

    Constructive Schur-Horn sweep.  Working on ``A = Psi^T M Psi`` with
    ``Psi`` starting at the identity, visit coordinates ``p = 0..d-2`` in
    order.  If the diagonal entry at ``p`` is off the target
    ``tau = Tr(M)/d``, pick the partner ``q > p`` whose diagonal lies
    farthest on the opposite side of ``tau`` (the trace identity guarantees
    one exists) and rotate in the (p, q) plane by the angle that pins entry
    ``p`` to ``tau``; of the two solutions, the rotation of smaller
    magnitude is used, the positive one on a tie.  Pinned coordinates are
    never revisited, so the sweep ends after at most ``d - 1`` rotations.
    """
    a = kernel.as_square(matrix)
    if kernel.symmetry_defect(a) > kernel.SYM_TOL:
        raise NotSymmetric("can only equidistribute a symmetric matrix")
    a = 0.5 * (a + a.T)
    eigs = np.linalg.eigvalsh(a)
    if eigs[0] < -1e-10 * max(1.0, float(np.abs(eigs).max())):
        raise NotPSD("can only equidistribute a positive semi-definite matrix")
    d = a.shape[0]
    # Sweep a / scale, with scale the power of two that brings every entry
    # below 1.  The division is exact, so the rotations are those of the
    # unscaled sweep, but cb * cb - ca * cc below cannot overflow at large
    # rates.  The tolerances are relative to tau, which for a PSD matrix is
    # at least its largest entry over d, so they hold at any magnitude.
    scale = 2.0 ** np.frexp(float(np.abs(a).max()))[1]
    a = a / scale
    tau = float(np.trace(a) / d)
    psi = np.eye(d)
    pin_tol = 1e-13 * abs(tau)
    for p in range(d - 1):
        gap = a[p, p] - tau
        if abs(gap) <= pin_tol:
            a[p, p] = tau
            continue
        opposite = [(abs(a[q, q] - tau), -q) for q in range(p + 1, d)
                    if (a[q, q] - tau) * gap < 0.0]
        if not opposite:
            raise AssertionError("trace balance violated; no rotation partner found")
        q = -max(opposite)[1]
        # tan(theta) solves  x^2 (A_qq - tau) + 2 x A_pq + (A_pp - tau) = 0;
        # opposite-side diagonals make the discriminant positive.
        ca, cb, cc = a[q, q] - tau, a[p, q], gap
        disc = np.sqrt(cb * cb - ca * cc)
        shifted = -(cb + disc) if cb >= 0.0 else -(cb - disc)
        roots = [shifted / ca, cc / shifted]
        roots.sort(key=lambda x: (abs(x), -x))
        x = roots[0]
        c = 1.0 / np.sqrt(1.0 + x * x)
        s = x * c
        row_p = c * a[p, :] + s * a[q, :]
        row_q = -s * a[p, :] + c * a[q, :]
        a[p, :], a[q, :] = row_p, row_q
        col_p = c * a[:, p] + s * a[:, q]
        col_q = -s * a[:, p] + c * a[:, q]
        a[:, p], a[:, q] = col_p, col_q
        a[p, p] = tau
        new_p = c * psi[:, p] + s * psi[:, q]
        new_q = -s * psi[:, p] + c * psi[:, q]
        psi[:, p], psi[:, q] = new_p, new_q
    spread = float(np.abs(np.diag(a) - tau).max())
    if spread > EQUIDIST_TOL * abs(tau):
        raise AssertionError(f"sweep left diagonal spread {spread * scale:.3e}")
    return EquidistributingBasis(vectors=psi, target=tau * scale)


class LyapunovWeights:
    """Strictly increasing positive weights: the certificate eigenvalues.

    The endpoint ratio fixes the certified envelope constant through
    ``budget**2 = values[-1] / values[0]``.
    """

    def __init__(self, values):
        values = np.array(values, dtype=float)  # copy: the array gets frozen
        if values.ndim != 1 or values.size < 2:
            raise DegenerateSchedule("need at least two weights")
        if not np.all(np.isfinite(values)) or values[0] <= 0.0:
            raise DegenerateSchedule("weights must be finite and positive")
        if np.any(np.diff(values) <= 0.0):
            raise DegenerateSchedule("weights must be strictly increasing")
        self.values = values
        self.values.flags.writeable = False

    @property
    def dim(self) -> int:
        return int(self.values.size)

    @property
    def budget(self) -> float:
        return float(np.sqrt(self.values[-1] / self.values[0]))

    def __repr__(self):
        return f"LyapunovWeights(dim={self.dim}, budget={self.budget:.6g})"


def arithmetic_weights(dim: int, budget: float) -> LyapunovWeights:
    """Unit-spaced ladder ``(d-1)/(c^2-1) + k`` for ``k = 0..d-1``.

    The offset makes the endpoint ratio exactly ``budget**2`` while keeping
    consecutive gaps equal to 1, which is what tames the skew coupling.
    """
    if dim < 2:
        raise ValueError("need dimension >= 2")
    if not budget > 1.0:
        raise InvalidConstant("budget must be > 1")
    return LyapunovWeights((dim - 1) / (budget * budget - 1.0) + np.arange(dim, dtype=float))


def shifted_weights(dim: int) -> LyapunovWeights:
    """The older ladder ``d + k`` for ``k = 1..d``, kept for comparisons.

    Its implied budget ``sqrt(2d/(d+1))`` cannot be tuned, and the larger
    offset inflates the skew coupling; see the Frobenius regression tests.
    """
    if dim < 2:
        raise ValueError("need dimension >= 2")
    return LyapunovWeights(dim + np.arange(1, dim + 1, dtype=float))


def skew_coupling(basis: EquidistributingBasis, weights: LyapunovWeights,
                  whitened_diffusion) -> np.ndarray:
    """Antisymmetric coupling in basis coordinates.

    Entry (j, k), j != k, is ``(w_j + w_k) / (w_j - w_k)`` times the basis
    matrix element of the whitened diffusion; the diagonal is zero.  This is
    exactly the coupling that turns the weight matrix into a Lyapunov
    certificate for the combined flow.
    """
    m = kernel.as_square(whitened_diffusion)
    if basis.dim != weights.dim or m.shape[0] != basis.dim:
        raise ValueError("basis, weights and diffusion dimensions must agree")
    w = weights.values
    elements = basis.vectors.T @ m @ basis.vectors
    num = w[:, None] + w[None, :]
    den = w[:, None] - w[None, :]
    np.fill_diagonal(den, 1.0)
    coupling = num / den * elements
    np.fill_diagonal(coupling, 0.0)
    return 0.5 * (coupling - coupling.T)


@dataclass(frozen=True)
class OptimalCertificate:
    """A constructed pair together with everything that certifies its decay.

    ``P`` defines the weighted norm in which the whitened flow contracts
    exactly at ``rate``; ``Q = P^{-1}`` satisfies the Lyapunov identity with
    the whitened skew and diffusion.  ``constant = sqrt(kappa(P))`` is the
    certified envelope constant (equal to the requested budget except in the
    isotropic case, where the symmetric pair achieves constant 1 and
    ``weights`` is None).  ``variant`` records whether the transposed skew
    was used; both variants certify the same envelope.
    """

    pair: CoefficientPair
    direction: np.ndarray
    basis: EquidistributingBasis
    weights: Optional[LyapunovWeights]
    Q: np.ndarray
    P: np.ndarray
    budget: Optional[float]
    constant: float
    rate: float
    variant: str

    @property
    def covariance(self) -> Covariance:
        return self.pair.covariance

    @property
    def dim(self) -> int:
        return self.pair.dim


def construct_optimal(covariance: Covariance, budget: Optional[float] = None,
                      variant: str = "standard",
                      weights: Optional[LyapunovWeights] = None) -> OptimalCertificate:
    """Build the fastest-decay pair for ``covariance`` with envelope budget.

    Exactly one of ``budget`` (> 1) or an explicit ``weights`` ladder must
    be given; with explicit weights the certified constant is their endpoint
    ratio's square root.  ``variant="transpose"`` negates the skew coupling
    and swaps the roles of the certificate matrices, yielding the other
    member of the optimal family (rotation reversed, same envelope).

    If the covariance is a multiple of the identity (relative spectral
    spread below :data:`ISOTROPY_TOL`) the symmetric pair ``(K^{-1}, I)`` is
    returned: it is already optimal there, with constant 1.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if weights is None:
        if budget is None:
            raise ValueError("either a budget > 1 or explicit weights are required")
        if not budget > 1.0:
            raise InvalidConstant("budget must be > 1")
    elif budget is not None:
        raise ValueError("give a budget or explicit weights, not both")

    d = covariance.dim
    rate = covariance.fastest_rate
    spread = float((covariance.variances[-1] - covariance.variances[0])
                   / covariance.variances[-1])
    if spread <= ISOTROPY_TOL:
        pair = CoefficientPair(covariance, covariance.inv, np.eye(d))
        eye = np.eye(d)
        return OptimalCertificate(
            pair=pair, direction=covariance.fastest_direction,
            basis=EquidistributingBasis(vectors=eye, target=rate),
            weights=None, Q=eye, P=eye.copy(),
            budget=budget if budget is not None else weights.budget,
            constant=1.0, rate=rate, variant=variant)

    direction = covariance.fastest_direction
    diffusion = float(d) * np.outer(direction, direction)
    # Whitening maps the rank-one diffusion to rate * diffusion exactly,
    # because its range is the eigenspace the rate comes from.
    whitened_diffusion = rate * diffusion
    basis = equidistribute_basis(whitened_diffusion)
    if weights is None:
        weights = arithmetic_weights(d, budget)
    coupling = skew_coupling(basis, weights, whitened_diffusion)
    whitened_skew = basis.vectors @ coupling @ basis.vectors.T
    if variant == "transpose":
        whitened_skew = -whitened_skew
        q_eigs = 1.0 / weights.values
        p_eigs = weights.values
    else:
        q_eigs = weights.values
        p_eigs = 1.0 / weights.values
    q = basis.vectors @ np.diag(q_eigs) @ basis.vectors.T
    p = basis.vectors @ np.diag(p_eigs) @ basis.vectors.T
    drift = covariance.unwhiten_drift(whitened_diffusion + whitened_skew)
    pair = CoefficientPair(covariance, drift, diffusion)
    return OptimalCertificate(
        pair=pair, direction=direction, basis=basis, weights=weights,
        Q=0.5 * (q + q.T), P=0.5 * (p + p.T),
        budget=budget, constant=weights.budget, rate=rate, variant=variant)


def frobenius_bound(covariance: Covariance, budget: float) -> tuple[float, float]:
    """Closed-form size guarantees for the constructed pair.

    Returns ``(drift_bound, diffusion_norm)``: an upper bound on
    ``||C||_F`` and the exact ``||D||_F = d``.  The drift bound is

        rate * (d + sqrt(kappa(K)) * beta * sqrt(d) * (d - 1)),
        beta = 2 pi c^2 / (sqrt(3) (c^2 - 1)),

    where the ``sqrt(d) (d - 1)`` factor comes from summing the squared
    weight ratios of the arithmetic ladder against a hyperharmonic series.
    At fixed conditioning the bound grows like ``d^{3/2}``.
    """
    if not budget > 1.0:
        raise InvalidConstant("budget must be > 1")
    d = covariance.dim
    c2 = budget * budget
    beta = 2.0 * np.pi * c2 / (np.sqrt(3.0) * (c2 - 1.0))
    drift_bound = covariance.fastest_rate * (
        d + np.sqrt(covariance.condition_number) * beta * np.sqrt(d) * (d - 1))
    return float(drift_bound), float(d)


class GrowthRow(NamedTuple):
    dim: int
    drift_norm: float
    drift_bound: float


def growth_study(budget: float, dims) -> list[GrowthRow]:
    """Measure drift size against the bound on a fixed-conditioning family.

    Uses ``K_d = diag(1, 2, ..., 2)`` so the condition number stays at 2 and
    only the dimension varies.  Each row holds the dimension, the actual
    ``||C||_F`` of the constructed pair, and the closed-form bound.
    """
    rows = []
    for d in dims:
        d = int(d)
        if d < 2:
            raise ValueError("growth study needs dimensions >= 2")
        cov = Covariance(np.concatenate(([1.0], np.full(d - 1, 2.0))))
        cert = construct_optimal(cov, budget)
        bound, _ = frobenius_bound(cov, budget)
        rows.append(GrowthRow(d, float(np.linalg.norm(cert.pair.drift)), bound))
    return rows
