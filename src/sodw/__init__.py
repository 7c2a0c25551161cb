"""Exact and numerical dynamics of a spin-orbit-coupled atom in a driven double well.

Four basis levels (right-well up/down, left-well up/down) evolve under a
time-dependent tunneling amplitude and Zeeman detuning.  Closed-form engines
cover the synchronous sech^2 pulse (any parameters) and the asynchronous
tanh/sech drive on its two analytic branches; an independent high-accuracy
integrator verifies them and handles everything else.

The package exports what the README and the demos use; everything else is
imported from its own module (sodw.core, sodw.sync, sodw.asynchronous,
sodw.oracle, sodw.analysis, sodw.figures, sodw.acceptance).
"""

from .analysis import ScanSpec, off_branch_reason, run_scan, select_engine, solve
from .asynchronous import check_flip_constraint, classify_async_conserving
from .core import AsyncTanhSech, SyncSech2
from .oracle import IntegratorConfig, integrate, integrate_batch
from .sync import classify_sync_condition

__version__ = "0.1.0"
