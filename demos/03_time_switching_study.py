#!/usr/bin/env python3
"""Can time-dependent coefficients beat the best constant-coefficient pair?

All schedules here share the benchmark equilibrium (variances (20, 1)) and
run the reference rotating pair (mu = 7, sharp constant sqrt(4/3) at rate 1)
after an initial layer [0, t0) that varies:

  fp1  the reference pair itself (constant coefficients)
  fp2  the plain symmetric pair           (fast at t=0, rate eps later)
  fp3  the maximal-initial-decay pair     (fastest possible slope at t=0)
  fp4  a slower rotation (mu = 3)
  fp5  a faster rotation (mu = 11)

Since every schedule eventually decays at rate 1, the meaningful comparison
is the sharp multiplicative constant of the whole-curve envelope.  The
symmetric starts win pointwise near t = 0 yet lose on the envelope; only the
faster rotation improves it.  Switching fp5 exactly at its first envelope
tangency brings the constant down to sqrt(6/5), and an even faster initial
rotation (mu = 13.8, switched at its own tangency) goes further below.
"""

import numpy as np

from fpopt import compare_schedules, initial_decay_rate, sharp_constant, tangency_time
from fpopt.benchmarks import case_pairs, case_schedules, split_schedule


def main():
    switch = 0.1
    pairs = case_pairs()
    print("initial decay slopes of the candidate layers:")
    for label in ("fp1", "fp2", "fp3", "fp4", "fp5"):
        print(f"  {label}: {initial_decay_rate(pairs[label]):.6f}")
    print()

    schedules = case_schedules(switch)
    rows = compare_schedules(list(schedules.values()), 1.0, labels=list(schedules))
    print(f"sharp constants at rate 1 with switch time t0 = {switch} (best first):")
    print(f"{'case':>6} {'sharp constant':>16} {'||C||_F per piece':>26}")
    for row in rows:
        norms = ", ".join(f"{x:.2f}" for x in row.drift_norms)
        print(f"{row.label:>6} {row.sharp_constant:>16.9f} {norms:>26}")
    print(f"  reference value sqrt(4/3) = {np.sqrt(4/3):.9f}")
    print()

    t5 = tangency_time(pairs["fp5"], 1.0)
    tuned = sharp_constant(split_schedule(pairs["fp5"], t5), 1.0)
    print(f"switching fp5 at its first envelope tangency t0 = {t5:.5f}:")
    print(f"  constant drops to {tuned:.9f}  (sqrt(6/5) = {np.sqrt(6/5):.9f})")
    print("  i.e. the split evolution matches the non-split mu=11 pair while")
    print("  using the smaller reference drift for all t > t0.")
    print()

    t6 = tangency_time(pairs["fp6"], 1.0)
    faster = sharp_constant(split_schedule(pairs["fp6"], t6), 1.0)
    print(f"an even faster initial rotation (mu = 13.8) switched at its tangency t0 = {t6:.5f}:")
    print(f"  constant {faster:.9f}")


if __name__ == "__main__":
    main()
