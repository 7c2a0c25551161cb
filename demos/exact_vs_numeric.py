"""Closed-form synchronous evolution against the blind numeric integrator.

Evolves the detuned half-pi sech^2 pulse (beta = 0.5, gamma = 0.5) from the
left-up level and overlays the exact superposition solution with a DOP853
integration of the raw four-level equations.  The two never share code, so
agreement at the 1e-9 level is a real check, not bookkeeping.

Run:  python3 demos/exact_vs_numeric.py [--plot]
"""

import math
import sys

import numpy as np

from sodw import IntegratorConfig, SyncSech2, integrate, solve

BETA = 0.5
GAMMA = 0.5
START = (0, 0, 1, 0)


def main(show_plot=False):
    protocol = SyncSech2(BETA, math.pi / 2, 1.0)
    times = np.linspace(0.0, 25.0, 1001)

    solution = solve(protocol, GAMMA, START, 0.0)
    exact = solution.states(times)
    traj = integrate(GAMMA, protocol, START, IntegratorConfig(0.0, 25.0), times)
    gap = np.max(np.linalg.norm(traj.states - exact, axis=1))

    p = np.abs(exact) ** 2
    r = math.hypot(1.0, BETA)
    p2_formula = math.sin(r * math.pi / 2) ** 2 / r**2

    print(f"pulse: V = pi/2, Omega = 1, beta = {BETA}, gamma = {GAMMA}, start = left-up")
    print(f"final populations  P1..P4 = {p[-1].round(6)}")
    print(f"two-level formula  P2(inf) = {p2_formula:.6f}  (engine: {p[-1, 1]:.6f})")
    print(f"Z31(inf) = {p[-1, 2] - p[-1, 0]:+.6f}   Z32(inf) = {p[-1, 2] - p[-1, 1]:+.6f}")
    print(f"max |exact - numeric| over the grid: {gap:.3e}")
    print(f"numeric solver: {traj.solver_id}, norm drift {traj.norm_drift_max:.2e}")

    if show_plot:
        try:
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not installed, skipping the plot", file=sys.stderr)
            return
        fig, ax = plt.subplots(figsize=(7, 4))
        for k, label in enumerate(("P1", "P2", "P3", "P4")):
            ax.plot(times, p[:, k], label=label)
            ax.plot(times, traj.population_array[:, k], "k:", lw=0.8)
        ax.set_xlabel("t")
        ax.set_ylabel("population")
        ax.set_title("exact (solid) vs numeric (dotted)")
        ax.legend()
        fig.tight_layout()
        plt.show()


if __name__ == "__main__":
    main(show_plot="--plot" in sys.argv[1:])
