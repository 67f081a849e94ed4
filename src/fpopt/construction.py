"""Construction of the fastest-decaying pair and its Lyapunov certificate.

Given an equilibrium covariance ``K`` and a budget ``c > 1`` for the
multiplicative constant, the construction produces a coefficient pair whose
propagator norm obeys ``||T(t, 0)|| <= c exp(-r t)`` with the best possible
rate ``r = max sigma(K^{-1})``.  It proceeds in three steps on the whitened
side:

1. Aim a rank-one diffusion ``D = d (v x v)`` along the unit eigenvector
   ``v`` of ``K^{-1}`` for the fastest rate, spending the whole trace
   budget.  Whitening scales it to ``D~ = r D``.
2. Find an orthonormal basis ``Psi`` whose every column has overlap
   ``1/sqrt(d)`` with ``v``: two Householder reflectors give one with
   ``Psi^T v = u = (1, ..., 1) / sqrt(d)`` (:func:`equidistribute_basis`).
   As ``D~ = r d v v^T``, every ``<psi_j, D~ psi_k> = r d u_j u_k`` is
   ``r``.  Pick strictly increasing positive weights ``w_1 < ... < w_d``
   with ``w_d / w_1 = c^2`` and couple the basis directions with
   ``(w_j + w_k) / (w_j - w_k) <psi_j, D~ psi_k>``, that is ``r A(w)`` with
   ``A_jk = (w_j + w_k) / (w_j - w_k)`` off the diagonal and 0 on it.  This
   choice makes ``Q = Psi diag(w) Psi^T`` satisfy the Lyapunov identity
   ``J~ Q - Q J~ + Q D~ + D~ Q = 2 r Q``, so the ``P``-weighted norm with
   ``P = Q^{-1}`` decays exactly like ``exp(-r t)`` along the whitened flow
   of drift ``C~ = r Psi (11^T +- A(w)) Psi^T`` (``-`` in the transposed
   variant), whose norms depend on ``K`` only through ``r``.
3. Converting back to Euclidean norm costs the factor
   ``sqrt(kappa(P)) = c``, which is the certified envelope constant.

The arithmetic weight ladder ``w_k = (d-1)/(c^2-1) + k - 1`` also keeps the
skew coupling small enough that ``||C||_F`` grows only like ``d^{3/2}`` at
fixed conditioning; :func:`frobenius_bound` is the closed-form bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernel
from .equilibrium import CoefficientPair, Covariance
from .errors import InvalidArgument, InvalidConstant, InvalidMatrix

#: Relative spread of the covariance spectrum below which the equilibrium
#: counts as isotropic and the symmetric pair (K^{-1}, I) is already optimal.
ISOTROPY_TOL = 1e-12

#: The two members of the optimal family that :func:`construct_optimal` builds.
VARIANTS = ("standard", "transpose")


def _reflector(x: np.ndarray) -> np.ndarray:
    """Householder reflector that swaps ``e_1`` and the unit vector ``x``;
    the identity when ``x = e_1``."""
    w = -x
    # 1 - x_1, formed as |x_2..d|^2 / (1 + x_1) when x_1 > 0: the direct
    # difference would leave H x off e_1 by the rounding of |x| over
    # |e_1 - x|, and this form keeps H x = e_1 to rounding however close x
    # lies to e_1.
    w[0] = (x[1:] @ x[1:]) / (1.0 + x[0]) if x[0] > 0.0 else 1.0 - x[0]
    h = np.eye(x.size)
    if np.any(w):
        w = np.ldexp(w, -kernel.binary_exponent(w))   # exact; w @ w cannot underflow
        h -= (2.0 / (w @ w)) * np.outer(w, w)
    return h


def equidistribute_basis(direction) -> np.ndarray:
    """Orthonormal basis, as matrix columns, whose every column has overlap
    ``1/sqrt(d)`` with the unit vector ``direction``.

    In this basis the rank-one matrix ``v v^T`` has constant diagonal
    ``1/d`` (the rank-one case of Schur-Horn).  The basis is
    ``Psi = H(e_1 <-> v) H(e_1 <-> u)``, the product of two Householder
    reflectors with ``u = (1, ..., 1) / sqrt(d)``, so ``Psi^T v = u`` up to
    rounding.  Any other such basis is ``Q Psi Sigma`` with ``Q`` orthogonal,
    ``Q v = v`` and ``Sigma`` a diagonal of signs, so the construction built
    on it differs from this one by the similarity ``Q``, which moves no
    spectrum, norm or envelope constant.

    The map is discontinuous at ``v = e_1``.  There the first reflector is
    the identity and ``Psi`` is one reflector (determinant -1), while a
    direction a rounding away from ``e_1`` gets two (determinant +1).  The
    two bases differ by such a ``Q``, a reflection: the whitened skew built
    for an axis-aligned covariance and for a 1e-12 rotation of it can
    differ in sign, with the same spectra and constants.

    Raises :class:`InvalidArgument` unless ``direction`` is a finite real
    1-D vector of length at least 2 with norm 1 to within 1e-12.
    """
    v = np.asarray(direction)
    if v.dtype.kind not in "fiu" or v.ndim != 1 or v.size < 2:
        raise InvalidArgument(
            f"direction must be a real 1-D vector of length >= 2, got {v.dtype} "
            f"of shape {v.shape}")
    v = v.astype(float)
    if not np.all(np.isfinite(v)):
        raise InvalidArgument("direction entries must be finite")
    with np.errstate(over="ignore"):   # a norm that overflows is refused below
        norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= 1e-12:
        raise InvalidArgument(f"direction must have unit norm, got {norm!r}")
    uniform = np.full(v.size, 1.0 / np.sqrt(v.size))
    return _reflector(v) @ _reflector(uniform)


def arithmetic_weights(dim: int, budget: float) -> np.ndarray:
    """Unit-spaced ladder ``(d-1)/(c^2-1) + k`` for ``k = 0..d-1``.

    The offset makes the endpoint ratio exactly ``budget**2`` while keeping
    consecutive gaps equal to 1, which is what tames the skew coupling.  A
    budget whose square overflows, or one so close to 1 that the unit steps
    vanish against the offset, leaves no such ladder in floating point.
    """
    if dim < 2:
        raise ValueError("need dimension >= 2")
    budget = float(budget)
    if not budget > 1.0:
        raise InvalidConstant("budget must be > 1")
    square = budget * budget   # a Python float overflows to inf, with no warning
    if square == np.inf:
        raise InvalidConstant(f"budget {budget:g} is too large: its square overflows")
    weights = (dim - 1) / (square - 1.0) + np.arange(dim, dtype=float)
    if np.any(np.diff(weights) <= 0.0):
        raise InvalidConstant(f"budget {budget!r} is too close to 1 for dimension {dim}")
    return weights


@dataclass(frozen=True)
class OptimalCertificate:
    """A constructed pair together with everything that certifies its decay.

    ``P`` defines the weighted norm in which the whitened flow contracts
    exactly at ``rate``; ``Q = P^{-1}`` satisfies the Lyapunov identity with
    the whitened skew and diffusion.  Their eigenvectors are the columns of
    ``equidistribute_basis(direction)``, each with overlap ``1/sqrt(d)``
    with ``direction``.
    ``weights`` is the arithmetic ladder of :func:`arithmetic_weights` for
    ``budget``, the eigenvalues of ``Q`` (of ``P`` in the transposed
    variant), and ``constant = sqrt(kappa(P)) = sqrt(w[-1] / w[0])`` is the
    certified envelope constant, equal to the budget up to rounding.  In
    the isotropic case the symmetric pair achieves constant 1, the basis is
    the identity and ``weights`` is None.  ``variant`` records whether the
    transposed skew was used; both variants certify the same envelope.
    """

    pair: CoefficientPair
    direction: np.ndarray
    weights: Optional[np.ndarray]
    Q: np.ndarray
    P: np.ndarray
    budget: float
    constant: float
    rate: float
    variant: str

    @property
    def covariance(self) -> Covariance:
        return self.pair.covariance

    @property
    def dim(self) -> int:
        return self.pair.dim


def construct_optimal(covariance: Covariance, budget: float,
                      variant: str = "standard") -> OptimalCertificate:
    """Build the fastest-decay pair for ``covariance`` with envelope budget.

    The certificate weights are the arithmetic ladder of
    :func:`arithmetic_weights`, whose endpoint ratio is ``budget**2`` (the
    budget must exceed 1).  In 2D this covers every ladder: ``(w_1, w_2)``
    is the ladder of budget ``sqrt(w_2 / w_1)`` up to a common factor,
    which changes neither the pair nor the constant.  ``variant="transpose"``
    negates the skew coupling and swaps the roles of the certificate
    matrices, yielding the other member of the optimal family (rotation
    reversed, same envelope).

    If the covariance is a multiple of the identity (relative spectral
    spread below :data:`ISOTROPY_TOL`) the symmetric pair ``(K^{-1}, I)`` is
    returned: it is already optimal there, with constant 1.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not 1.0 < budget < np.inf:   # the isotropic case too: "c" stays a JSON number
        raise InvalidConstant("budget must be finite and > 1")

    d = covariance.dim
    rate = covariance.fastest_rate
    spread = float((covariance.variances[-1] - covariance.variances[0])
                   / covariance.variances[-1])
    if spread <= ISOTROPY_TOL:
        pair = CoefficientPair(covariance, covariance.inv, np.eye(d))
        eye = np.eye(d)
        return OptimalCertificate(
            pair=pair, direction=covariance.fastest_direction,
            weights=None, Q=eye, P=eye.copy(),
            budget=budget, constant=1.0, rate=rate, variant=variant)

    weights = arithmetic_weights(d, budget)
    # The whitened skew's entries reach 2 w_d rate, and sums of d of them
    # are formed; refuse a rate at which that overflows, before any array
    # does (this product of Python floats gives inf, not a warning).
    if 4.0 * d * float(weights[-1]) * rate == np.inf:
        raise InvalidMatrix(
            f"smallest variance {covariance.variances[0]:.3g} is too small for budget "
            f"{budget:g} in dimension {d}: the whitened pair overflows")
    direction = covariance.fastest_direction
    diffusion = float(d) * np.outer(direction, direction)
    # Whitening maps the rank-one diffusion to rate * diffusion exactly,
    # because its range is the eigenspace the rate comes from.
    whitened_diffusion = rate * diffusion
    basis = equidistribute_basis(direction)
    # rate A(w) (module docstring, step 2): exactly antisymmetric, with the
    # zero diagonal that the infinite gaps give
    gaps = np.subtract.outer(weights, weights)
    np.fill_diagonal(gaps, np.inf)
    coupling = rate * np.add.outer(weights, weights) / gaps
    whitened_skew = basis @ coupling @ basis.T
    if variant == "transpose":
        whitened_skew = -whitened_skew
        q_eigs, p_eigs = 1.0 / weights, weights
    else:
        q_eigs, p_eigs = weights, 1.0 / weights
    q = basis @ np.diag(q_eigs) @ basis.T
    p = basis @ np.diag(p_eigs) @ basis.T
    drift = covariance.unwhiten_drift(whitened_diffusion + whitened_skew)
    pair = CoefficientPair(covariance, drift, diffusion)
    return OptimalCertificate(
        pair=pair, direction=direction, weights=weights,
        Q=0.5 * (q + q.T), P=0.5 * (p + p.T),
        budget=budget, constant=float(np.sqrt(weights[-1] / weights[0])), rate=rate,
        variant=variant)


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
