#!/usr/bin/env python3
"""Construct the fastest-decaying pair for a prescribed Gaussian equilibrium.

Walks through the whole construction on the classic 2-by-2 example with
variances (1, 2) and then on a random 4D covariance:

  1. The fastest achievable decay rate is the largest eigenvalue of the
     inverse covariance (1 / smallest variance).
  2. The optimal diffusion is rank one, aimed along the matching eigenvector,
     and spends the entire trace budget Tr(D) = d.
  3. An antisymmetric drift component mixes the dissipative direction into
     the rest; its strength is steered by the budget c > 1 for the envelope
     constant.  Smaller budgets mean faster rotation.
  4. A weighted norm (the Lyapunov certificate P) contracts exactly like
     exp(-rate * t); converting to the Euclidean norm costs the factor c.
"""

import numpy as np

from fpopt import (
    Covariance,
    construct_optimal,
    equidistribute_basis,
    expm,
    general_eigenvalues,
    spectral_gap,
    validate_pair,
)

np.set_printoptions(precision=6, suppress=True)


def show_certificate(cov, budget):
    cert = construct_optimal(cov, budget)
    pair = cert.pair
    print(f"budget c = {budget}")
    print(f"  fastest rate     = {cert.rate:.6f}")
    print("  drift C =\n    " + np.array2string(pair.drift, prefix="    "))
    print("  diffusion D =\n    " + np.array2string(pair.diffusion, prefix="    "))
    print(f"  diffusion rank   = {validate_pair(pair).rank_diffusion}, Tr(D) = {pair.trace_diffusion:g}")
    print(f"  spectral gap     = {spectral_gap(pair):.12f}")
    print(f"  drift spectrum   = {np.sort_complex(general_eigenvalues(pair.drift))}")

    # the certificate in action: exact decay in the P-weighted norm,
    # envelope with constant c in the Euclidean norm
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=cov.dim)
    p_norm = lambda x: float(np.sqrt(x @ cert.P @ x))
    worst = 0.0
    for t in (0.2, 1.0, 3.0):
        xt = expm(pair.whitened_drift, t) @ x0
        drift_free = p_norm(xt) / (np.exp(-cert.rate * t) * p_norm(x0))
        worst = max(worst, abs(drift_free - 1.0))
    print(f"  weighted-norm decay error over t in {{0.2, 1, 3}}: {worst:.2e}")

    grid = np.linspace(0.0, 12.0 / cert.rate, 600)
    excess = max(np.exp(cert.rate * t) * np.linalg.norm(expm(pair.whitened_drift, t), 2)
                 for t in grid)
    print(f"  max exp(rate*t)*||T(t,0)|| on the grid = {excess:.9f} (certified <= {cert.constant:g})")
    print()
    return cert


def main():
    print("=" * 72)
    print("2D example: variances (1, 2)")
    print("=" * 72)
    cov = Covariance(np.array([1.0, 2.0]))
    for budget in (1.5, 2.0, 1.05):
        show_certificate(cov, budget)
    print("Note the trade-off: pushing the constant toward 1 inflates the")
    print("rotational part of the drift (the high-rotation limit).")
    print()

    print("=" * 72)
    print("random 4D covariance")
    print("=" * 72)
    rng = np.random.default_rng(7)
    g = rng.normal(size=(4, 4))
    cov4 = Covariance(g @ g.T + 0.5 * np.eye(4))
    print(f"variances = {cov4.variances}")
    cert = show_certificate(cov4, 1.5)
    print("equidistribution of the whitened diffusion over the certificate basis:")
    basis = equidistribute_basis(cert.direction)
    diag = np.diag(basis.T @ cert.pair.whitened_diffusion @ basis)
    print(f"  basis diagonal = {diag}  (target {cert.rate:.6f})")


if __name__ == "__main__":
    main()
