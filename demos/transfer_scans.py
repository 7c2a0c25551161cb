"""Asymptotic transfer maps: splitting, pulse area and coupling angle sweeps.

Three one-parameter scans of the synchronous drive, all starting from the
left-up level at the pulse peak (epoch 0):

  * Zeeman splitting beta at fixed half-pi pulse area: transfer is killed
    like 1/(1+beta^2), the detuning-dominated suppression.
  * Pulse area V/Omega at integer coupling angle: Z31 oscillates as
    cos(2V/Omega) between complete return (+1) and complete transfer (-1).
  * Coupling angle gamma at half-pi area: the left well always empties, and
    the spin of what arrives is set by gamma alone (Z31 + Z32 = -1).

Run:  python3 demos/transfer_scans.py
"""

import math

import numpy as np

from sodw import ScanSpec, run_scan

START = (0, 0, 1, 0)


def splitting_scan():
    spec = ScanSpec(
        "beta",
        np.linspace(0.0, 4.0, 17),
        {"gamma": 0.5, "V": math.pi / 2, "Omega": 1.0},
        START,
        epoch=0.0,
    )
    res = run_scan(spec)
    print("beta scan (gamma = 1/2, V/Omega = pi/2):")
    print("  beta    Z31      Z32      1/(1+beta^2)")
    for beta, (z31, z32) in zip(spec.grid[::4], res.values[::4]):
        bound = 1.0 / (1.0 + beta**2)
        print(f"  {beta:4.1f}  {z31:+.4f}  {z32:+.4f}   {bound:.4f}")


def area_scan():
    spec = ScanSpec(
        "V_over_Omega",
        np.linspace(0.0, 2.0 * math.pi, 25),
        {"gamma": 1.0, "beta": 0.0, "Omega": 1.0},
        START,
        epoch=0.0,
        observables=((3, 1),),
    )
    res = run_scan(spec)
    print("\npulse area scan (gamma = 1, beta = 0):")
    for area, z31 in zip(spec.grid[::4], res.values[::4, 0]):
        marks = ""
        if abs(z31 - 1.0) < 1e-9:
            marks = "  <- complete return"
        if abs(z31 + 1.0) < 1e-9:
            marks = "  <- complete transfer"
        print(f"  V/Omega = {area:6.4f}   Z31 = {z31:+.6f}{marks}")


def angle_scan():
    spec = ScanSpec(
        "gamma",
        np.linspace(0.0, 2.0, 21),
        {"beta": 0.0, "V": math.pi / 2, "Omega": 1.0},
        START,
        epoch=0.0,
    )
    res = run_scan(spec)
    print("\ncoupling angle scan (beta = 0, V/Omega = pi/2):")
    print("  gamma   Z31      Z32      Z31+Z32")
    totals = res.values.sum(axis=1)
    for gamma, (z31, z32), total in zip(spec.grid[::5], res.values[::5], totals[::5]):
        print(f"  {gamma:5.2f}  {z31:+.4f}  {z32:+.4f}  {total:+.4f}")
    worst = np.max(np.abs(totals + 1.0))
    print(f"  max |Z31 + Z32 + 1| over the grid: {worst:.2e}")


if __name__ == "__main__":
    splitting_scan()
    area_scan()
    angle_scan()
