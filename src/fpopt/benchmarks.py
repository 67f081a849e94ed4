"""Worked two-dimensional decay problems shipped with the package.

One anisotropic equilibrium, variances ``(1/eps, 1)`` with ``eps`` =
``DEFAULT_EPS`` = 0.05, and the family of rank-one-diffusion pairs whose
whitened drift is ``[[0, -mu], [mu, 2]]``.  These are the cases behind the
bundled figure data, the switching-study demo, and many regression tests:
the reference rotation ``mu = 7`` has sharp envelope constant ``sqrt(4/3)``
at rate 1, and replacing it on a short initial layer by a faster rotation
(``mu = 11`` or ``mu = 13.8``) lowers the constant of the whole evolution.
"""

from __future__ import annotations

import numpy as np

from .equilibrium import CoefficientPair, Covariance
from .propagator import Schedule, max_initial_decay

DEFAULT_EPS = 0.05

#: Reference rotation strength: sharp constant sqrt(4/3) at rate 1.
REFERENCE_MU = 7.0


def anisotropic_covariance() -> Covariance:
    """The benchmark equilibrium diag(1/eps, 1); fastest rate 1."""
    return Covariance(np.array([1.0 / DEFAULT_EPS, 1.0]))


def rotating_pair(mu: float) -> CoefficientPair:
    """Rank-one-diffusion pair with whitened drift [[0, -mu], [mu, 2]].

    The raw drift is ``[[0, -mu/sqrt(eps)], [mu sqrt(eps), 2]]`` with
    diffusion ``diag(0, 2)``.  Every ``mu > 1`` arises from the optimal
    construction with budget ``c = sqrt((mu + 1)/(mu - 1))``; larger ``mu``
    mixes the dissipative and free directions faster and tightens the
    envelope constant toward 1.
    """
    cov = anisotropic_covariance()
    root = np.sqrt(DEFAULT_EPS)
    drift = np.array([[0.0, -mu / root], [mu * root, 2.0]])
    diffusion = np.diag([0.0, 2.0])
    return CoefficientPair(cov, drift, diffusion)


def symmetric_pair() -> CoefficientPair:
    """The plain reversible pair (K^{-1}, I); decay rate only eps."""
    cov = anisotropic_covariance()
    return CoefficientPair(cov, cov.inv, np.eye(2))


def balanced_pair() -> CoefficientPair:
    """The symmetric pair of maximal initial decay, rate 2 eps / (1 + eps)."""
    _, pair = max_initial_decay(anisotropic_covariance())
    return pair


def case_pairs() -> dict:
    """The six initial-layer candidates of the switching study, by label.

    fp1 is the reference rotation (used after the switch in every case),
    fp2 the plain symmetric pair, fp3 the maximal-initial-decay pair, fp4 a
    slower rotation, fp5 and fp6 faster rotations.
    """
    return {
        "fp1": rotating_pair(REFERENCE_MU),
        "fp2": symmetric_pair(),
        "fp3": balanced_pair(),
        "fp4": rotating_pair(3.0),
        "fp5": rotating_pair(11.0),
        "fp6": rotating_pair(13.8),
    }


def split_schedule(first: CoefficientPair, switch: float) -> Schedule:
    """Run ``first`` on [0, switch), then the reference rotation forever."""
    return Schedule([first, rotating_pair(REFERENCE_MU)], [switch])


def case_schedules(switch: float) -> dict:
    """Two-piece schedules for the cases fp1..fp5 at a common switch time."""
    pairs = case_pairs()
    return {label: split_schedule(pairs[label], switch)
            for label in ("fp1", "fp2", "fp3", "fp4", "fp5")}
