#!/usr/bin/env python3
"""How big does the optimal drift get as the dimension grows?

On the fixed-conditioning family K_d = diag(1, 2, ..., 2) the closed-form
bound on ||C||_F grows like d^(3/2) for any fixed budget c, driven by the
sqrt(d) (d-1) factor of the skew coupling.  The measured norms stay below
the bound throughout; a log-log fit of the bound confirms the exponent.
"""

import numpy as np

from fpopt import Covariance, construct_optimal, frobenius_bound


def main():
    budget = 2.0
    dims = np.array([2, 4, 8, 16, 32, 64])
    norms, bounds = [], []
    for d in dims:
        cov = Covariance(np.concatenate(([1.0], np.full(d - 1, 2.0))))
        norms.append(np.linalg.norm(construct_optimal(cov, budget).pair.drift))
        bounds.append(frobenius_bound(cov, budget)[0])
    print(f"budget c = {budget}, family K_d = diag(1, 2, ..., 2)")
    print(f"{'d':>4} {'||C||_F':>12} {'bound':>12} {'bound/actual':>14}")
    for d, norm, bound in zip(dims, norms, bounds):
        print(f"{d:>4} {norm:>12.3f} {bound:>12.3f} {bound / norm:>14.3f}")
    big = dims >= 8
    slope_bound = np.polyfit(np.log(dims[big]), np.log(np.array(bounds)[big]), 1)[0]
    slope_actual = np.polyfit(np.log(dims[big]), np.log(np.array(norms)[big]), 1)[0]
    print()
    print(f"log-log slope over d >= 8:  bound {slope_bound:.3f}, measured {slope_actual:.3f}")
    print("both sit near 3/2: the construction pays only a d^(3/2) price in")
    print("drift size for a dimension-independent envelope constant.")


if __name__ == "__main__":
    main()
