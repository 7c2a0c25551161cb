"""Where populations come back and where they invert, for both drive shapes.

One rule on the tunnelling pulse area A = integral of upsilon dt decides
both drives: |A| = n*pi returns every population, and |A| = (n + 1/2)*pi
inverts them.  The synchronous sech^2 pulse has A = 2V/Omega and needs
beta = 0 too; the asynchronous sech coupling pulse has A = pi*upsilon/chi,
independent of the tanh detuning ramp.

The script classifies a few parameter sets, then backs each verdict with the
actual endpoint populations of a randomly chosen normalized start.

Run:  python3 demos/conservation_conditions.py
"""

import math

import numpy as np

from sodw import (
    AsyncTanhSech,
    SyncSech2,
    classify_async_conserving,
    classify_sync_condition,
    solve,
)

rng = np.random.default_rng(7)


def random_state():
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return a / np.linalg.norm(a)


def endpoints(protocol, gamma, t0):
    # impose a random state at t0, read the populations in the far past and future
    return solve(protocol, gamma, random_state(), t0).asymptotes()


def verdict(cond):
    label = cond.kind if cond.n is None else f"{cond.kind}(n={cond.n})"
    return f"A = {cond.area / math.pi:5.2f}*pi -> {label}"


def show_sync(beta, V, Omega, gamma):
    cond = classify_sync_condition(beta, V, Omega)
    p0, p1 = endpoints(SyncSech2(beta, V, Omega), gamma, -math.inf)
    print(f"sync  beta={beta:3.1f} {verdict(cond)}")
    print(f"      P(-inf) = {p0.round(4)}   wells L/R = {p0[2] + p0[3]:.4f}/{p0[0] + p0[1]:.4f}")
    print(f"      P(+inf) = {p1.round(4)}   wells L/R = {p1[2] + p1[3]:.4f}/{p1[0] + p1[1]:.4f}")


def show_async(upsilon, chi, gamma):
    cond = classify_async_conserving(upsilon, chi)
    p0, p1 = endpoints(AsyncTanhSech(0.45, upsilon, chi), gamma, 0.0)
    print(f"async {verdict(cond)}")
    print(f"      P(-inf) = {p0.round(4)}")
    print(f"      P(+inf) = {p1.round(4)}")


if __name__ == "__main__":
    print("synchronous pulse, random start each time:")
    show_sync(0.0, math.pi / 2, 1.0, gamma=0.73)  # CCPC n=1
    show_sync(0.0, 3 * math.pi / 4, 1.0, gamma=0.73)  # CCPI n=1
    show_sync(0.0, 1.0, 1.0, gamma=0.73)  # neither
    show_sync(0.4, math.pi / 2, 1.0, gamma=0.73)  # splitting breaks the return
    show_sync(0.0, -math.pi / 2, 1.0, gamma=0.73)  # a negative area returns too: CCPC n=1

    print("\nasynchronous pulse (gamma = 1, eps = 0.45), random start each time:")
    show_async(2.0, 1.0, gamma=1.0)  # CCPC
    show_async(1.5, 1.0, gamma=1.0)  # CCPI
    show_async(0.8, 1.0, gamma=1.0)  # neither
    show_async(0.0, 1.0, gamma=1.0)  # no pulse at all: CCPC n=0
