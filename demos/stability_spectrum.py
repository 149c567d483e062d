"""Stability along the branch: the principal eigenvalue of the linearized
operator is positive on the minimal branch, crosses zero exactly at the
fold, and is negative on the upper (unstable) branch.
"""

import numpy as np

import pullin as pl

MEMS = pl.mems_inverse_power(2.0)
prob = pl.ProblemSpec(2.0, MEMS)

b = pl.solve_branch(prob, np.geomspace(0.05, 0.95, 31), stability=True)
print("inverse-square disc, 31 points:")
print(f"  fold at m* = {b.m_star:.6f}, lambda* = {b.lambda_star:.6f}")
print(f"  {'m':>8} {'lambda':>10} {'mu1':>12}  side")
stable = b.stable_points()
for p in b.points[::3]:
    side = "stable" if p in stable else "unstable"
    print(f"  {p.m:8.4f} {p.lam:10.6f} {p.mu1:12.6f}  {side}")

sol = pl.shoot(MEMS, 2.0, b.m_star).solution()
mu_fold = pl.mu1(2.0, MEMS, sol.lam, sol)
print(f"\nat the refined fold: mu1 = {mu_fold:+.2e} "
      f"(vanishes there; tolerance scale 1e-2 lambda* = {0.01 * b.lambda_star:.2e})")

lam1 = pl.lambda1_ball(2.0).eigenvalue
print(f"zero-voltage limit: mu1 -> lambda1(ball) = {lam1:.6f}; "
      f"mu1 at m=0.05 is {b.points[0].mu1:.6f}")
