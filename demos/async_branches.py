"""The two exact branches of the asynchronous tanh/sech drive.

Spin-conserving branch (integer gamma): the wells exchange population
without touching spin, and balancing a pair freezes the dynamics entirely,
the driven analogue of coherent destruction of tunneling.

Spin-flipping branch (half-integer gamma): closed forms exist only on the
parameter surface chi^2/4 + epsilon^2 = upsilon^2, and there the populations
of each coupled pair always cross over completely between t = -inf and
t = +inf, whatever the start.  Off the surface the package refuses the exact
engine and the numeric oracle takes over.

Run:  python3 demos/async_branches.py
"""

import math

import numpy as np

from sodw import AsyncTanhSech, check_flip_constraint, off_branch_reason, select_engine, solve


def conserving_branch():
    params = AsyncTanhSech(0.45, 1.3, 1.0)
    times = np.linspace(-25.0, 25.0, 9)
    print("spin-conserving branch, gamma = 1, start = left-up:")
    states = solve(params, 1.0, (0, 0, 1, 0), -25.0).states(times)
    p = np.abs(states) ** 2
    for t, row in zip(times, p):
        print(f"  t = {t:+6.2f}   P1 = {row[0]:.4f}   P3 = {row[2]:.4f}")

    print("balanced start (a1 = a3): nothing moves")
    r = 1 / math.sqrt(2)
    states = solve(params, 1.0, (r, 0, r, 0), -25.0).states(times)
    z31 = np.abs(states[:, 2]) ** 2 - np.abs(states[:, 0]) ** 2
    print(f"  max |Z31| over the window: {np.max(np.abs(z31)):.2e}")


def flip_branch():
    chi, eps = 1.0, 0.4
    ups = math.hypot(0.5 * chi, eps)
    params = AsyncTanhSech(eps, ups, chi)
    print("\nspin-flipping branch, gamma = 1/2:")
    residual = check_flip_constraint(eps, ups, chi)
    print(f"  constraint residual chi^2/4 + eps^2 - ups^2 = {residual:.2e}")
    early, late = solve(params, 0.5, (1, 0, 0, 0), -25.0).asymptotes()
    print(f"  P1: {early[0]:.4f} -> {late[0]:.4f}")
    print(f"  P4: {early[3]:.4f} -> {late[3]:.4f}")

    off = AsyncTanhSech(eps, 1.5, chi)
    print("off the constraint surface:")
    print(f"  engine: {select_engine(off, 0.5)}")
    print(f"  reason: {off_branch_reason(off, 0.5)}")


if __name__ == "__main__":
    conserving_branch()
    flip_branch()
