"""Entanglement monotones from the partial transpose."""

import math
from dataclasses import dataclass

import numpy as np

from .core import _block_eigvalsh, _check_hermitian


@dataclass(frozen=True)
class NegativityResult:
    """Log-negativity together with the diagnostics behind the clamping.

    value          log2 of the partial-transpose trace norm, clamped at 0
    min_eig        smallest partial-transpose eigenvalue
    trunc_warning  True when the trace norm fell below 1 by more than eig_tol,
                   which signals lost weight (e.g. truncation damage)
    """

    value: float
    min_eig: float
    trunc_warning: bool


def trace_norm(arr, herm_tol=1e-10):
    """Sum of absolute eigenvalues of a Hermitian matrix; a rank-4 tensor
    p[n, m, k, l] is read as its matrix, rows (n, m) against columns (k, l).
    States take the block solve through trace_distance and log_negativity."""
    a = np.asarray(arr)
    if a.ndim == 4:
        a = a.reshape(a.shape[0] * a.shape[1], -1)
    _check_hermitian(a, herm_tol)
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def log_negativity(state):
    """Log-negativity of a normalized two-mode state.

    Spectra whose negative part sits within eig_tol of zero are treated as
    numerical noise and reported as exactly 0.
    """
    tol = state.cfg.eig_tol
    eigs = _block_eigvalsh(state.sector, "pt")
    min_eig = float(eigs[0])
    tn = float(np.abs(eigs).sum())
    if min_eig >= -tol:
        value = 0.0
    else:
        value = max(math.log2(tn), 0.0)
    return NegativityResult(value, min_eig, tn < 1.0 - tol)


def trace_distance(state_a, state_b):
    """(1/2) trace norm of the difference of two states."""
    if state_a.dim != state_b.dim:
        raise ValueError("states must share dimension")
    eigs = _block_eigvalsh(state_a.sector - state_b.sector, "rho", herm_tol=1e-10)
    return 0.5 * float(np.abs(eigs).sum())
