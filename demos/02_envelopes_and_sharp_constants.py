#!/usr/bin/env python3
"""Exact decay curves and sharp envelope constants on the 2D benchmark.

The equilibrium has variances (1/eps, 1) with eps = 0.05, so the symmetric
evolution crawls at rate eps while the optimal non-symmetric pairs decay at
rate 1.  For each budget c the measured envelope constant of the constructed
pair lands exactly on c (the estimate is sharp), and the closed-form 2D
constant from the whitened drift's eigenvectors agrees.  The classical
two-phase baseline guarantee is printed for contrast: its constant cannot go
below sqrt(kappa(K) e) ~ 7.4 here, while the single-equation construction
reaches any c > 1.

Writes the sampled curves as CSV (t,norm,envelope) into ./curve_data/.
"""

import os

import numpy as np

from fpopt import (
    best_constant_2d,
    construct_optimal,
    norm_curve,
    sharp_constant,
)
from fpopt.benchmarks import anisotropic_covariance

OUTDIR = "curve_data"


def main():
    cov = anisotropic_covariance()
    os.makedirs(OUTDIR, exist_ok=True)
    print(f"equilibrium variances: {cov.variances},  kappa = {cov.condition_number:g}, "
          f"fastest rate = {cov.fastest_rate:g}")
    print()
    print(f"{'budget c':>10} {'measured sup':>14} {'closed form':>13} {'first file':>28}")
    for budget in (1.5, 2.0, 3.0):
        cert = construct_optimal(cov, budget)
        measured = sharp_constant(cert.pair, cert.rate)
        closed = best_constant_2d(cert.pair)
        curve = norm_curve(cert.pair, 8.0, 2048, rate=cert.rate)
        path = os.path.join(OUTDIR, f"norm_curve_c{budget:g}.csv")
        curve.write_csv(path)
        print(f"{budget:>10g} {measured:>14.9f} {closed:>13.9f} {path:>28}")
    print()
    print("the three envelopes are sharp: each curve keeps touching its bound")
    print("from below while oscillating against the pure-exponential limit.")
    print()

    print("two-phase baseline guarantee (symmetric start), for contrast:")
    floor = np.sqrt(cov.condition_number * np.e)
    print(f"  its constant is at least sqrt(kappa * e) = {floor:.3f}")


if __name__ == "__main__":
    main()
