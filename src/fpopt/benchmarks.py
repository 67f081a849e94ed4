"""Worked two-dimensional decay problems shipped with the package.

One anisotropic equilibrium, variances ``(1/eps, 1)`` with ``eps = 0.05``
by default, and the family of rank-one-diffusion pairs whose whitened drift
is ``[[0, -mu], [mu, 2]]``.  These are the cases behind the bundled figure
data, the switching-study demo, and many regression tests: the reference
rotation ``mu = 7`` has sharp envelope constant ``sqrt(4/3)`` at rate 1, and
replacing it on a short initial layer by a faster rotation (``mu = 11`` or
``mu = 13.8``) lowers the constant of the whole evolution.
"""

from __future__ import annotations

import numpy as np

from .equilibrium import CoefficientPair, Covariance
from .propagator import Schedule, max_initial_decay

DEFAULT_EPS = 0.05

#: Reference rotation strength: sharp constant sqrt(4/3) at rate 1.
REFERENCE_MU = 7.0

#: Hand-picked switch time for the mu = 13.8 initial layer; it is the first
#: envelope tangency of that pair, see tangency_time.
FAST_SWITCH = 0.11413


def anisotropic_covariance(eps: float = DEFAULT_EPS) -> Covariance:
    """The benchmark equilibrium diag(1/eps, 1); fastest rate 1."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return Covariance(np.array([1.0 / eps, 1.0]))


def rotating_pair(mu: float, eps: float = DEFAULT_EPS) -> CoefficientPair:
    """Rank-one-diffusion pair with whitened drift [[0, -mu], [mu, 2]].

    The raw drift is ``[[0, -mu/sqrt(eps)], [mu sqrt(eps), 2]]`` with
    diffusion ``diag(0, 2)``.  Every ``mu > 1`` arises from the optimal
    construction with budget ``c = sqrt((mu + 1)/(mu - 1))``; larger ``mu``
    mixes the dissipative and free directions faster and tightens the
    envelope constant toward 1.
    """
    cov = anisotropic_covariance(eps)
    root = np.sqrt(eps)
    drift = np.array([[0.0, -mu / root], [mu * root, 2.0]])
    diffusion = np.diag([0.0, 2.0])
    return CoefficientPair(cov, drift, diffusion)


def symmetric_pair(eps: float = DEFAULT_EPS) -> CoefficientPair:
    """The plain reversible pair (K^{-1}, I); decay rate only eps."""
    cov = anisotropic_covariance(eps)
    return CoefficientPair(cov, cov.inv, np.eye(2))


def balanced_pair(eps: float = DEFAULT_EPS) -> CoefficientPair:
    """The symmetric pair of maximal initial decay, rate 2 eps / (1 + eps)."""
    _, pair = max_initial_decay(anisotropic_covariance(eps))
    return pair


def case_pairs(eps: float = DEFAULT_EPS) -> dict:
    """The six initial-layer candidates of the switching study, by label.

    fp1 is the reference rotation (used after the switch in every case),
    fp2 the plain symmetric pair, fp3 the maximal-initial-decay pair, fp4 a
    slower rotation, fp5 and fp6 faster rotations.
    """
    return {
        "fp1": rotating_pair(REFERENCE_MU, eps),
        "fp2": symmetric_pair(eps),
        "fp3": balanced_pair(eps),
        "fp4": rotating_pair(3.0, eps),
        "fp5": rotating_pair(11.0, eps),
        "fp6": rotating_pair(13.8, eps),
    }


def split_schedule(first: CoefficientPair, switch: float,
                   eps: float = DEFAULT_EPS) -> Schedule:
    """Run ``first`` on [0, switch), then the reference rotation forever."""
    return Schedule([first, rotating_pair(REFERENCE_MU, eps)], [switch])


def case_schedules(switch: float, eps: float = DEFAULT_EPS) -> dict:
    """Two-piece schedules for the cases fp1..fp5 at a common switch time."""
    pairs = case_pairs(eps)
    return {label: split_schedule(pairs[label], switch, eps)
            for label in ("fp1", "fp2", "fp3", "fp4", "fp5")}
