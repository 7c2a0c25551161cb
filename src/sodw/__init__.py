"""Exact and numerical dynamics of a spin-orbit-coupled atom in a driven double well.

Four basis levels (right-well up/down, left-well up/down) evolve under a
time-dependent tunneling amplitude and Zeeman detuning.  Closed-form engines
cover the synchronous sech^2 pulse (any parameters) and the asynchronous
tanh/sech drive on its two analytic branches; an independent high-accuracy
integrator verifies them and handles everything else.
"""

from .acceptance import CRITERIA, format_record, run_all
from .analysis import (
    ENGINE_ASYNC,
    ENGINE_ORACLE,
    ENGINE_SYNC,
    SWEPT_NAMES,
    ScanResult,
    ScanRow,
    ScanSpec,
    asymptotic_extract,
    count_peaks,
    default_horizon,
    off_branch_reason,
    run_scan,
    select_engine,
    solve,
)
from .asynchronous import (
    AsyncBranchConstants,
    AsyncConservingCondition,
    PhasePair,
    check_flip_constraint,
    classify_async_conserving,
    conserving_asymptotic_imbalance,
    conserving_branch_sign,
    conserving_constants,
    conserving_imbalance,
    evolve_async_conserving,
    evolve_async_flip,
    flip_branch_sign,
    flip_constants,
    phase_integrals,
)
from .core import (
    AsyncTanhSech,
    CustomDrive,
    PopulationSnapshot,
    SOCoupling,
    SyncSech2,
    as_coupling,
    as_state,
    hamiltonian_matrix,
    imbalance,
    is_normalized,
    norm2,
    populations,
)
from .figures import (
    FIGURE_IDS,
    Dataset,
    FigureData,
    amplitude_text,
    build_figure,
    figure_kind,
    observable_columns,
)
from .oracle import IntegratorConfig, TrajectoryRecord, compare_to_analytic, integrate
from .sync import (
    EigenSystem,
    SuperpositionCoeffs,
    SyncCondition,
    classify_sync_condition,
    eigen_sync,
    evolve_sync,
    superposition_from_initial,
    tau_sech2,
)

__version__ = "0.1.0"
