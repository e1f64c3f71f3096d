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


def partial_transpose(state):
    """Transpose on mode A only; returns a rank-4 tensor, not a state."""
    return state.coeffs.transpose(2, 1, 0, 3)


def trace_norm(arr, herm_tol=1e-10):
    """Sum of absolute eigenvalues of a Hermitian matrix (rank-4 input ok)."""
    a = np.asarray(arr)
    if a.ndim == 4:
        eigs = _block_eigvalsh(a, "rho", herm_tol)
    else:
        _check_hermitian(a, herm_tol)
        eigs = np.linalg.eigvalsh(a)
    return float(np.abs(eigs).sum())


def log_negativity(state):
    """Log-negativity of a normalized two-mode state.

    Spectra whose negative part sits within eig_tol of zero are treated as
    numerical noise and reported as exactly 0.
    """
    tol = state.cfg.eig_tol
    eigs = _block_eigvalsh(state.coeffs, "pt")
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
    return 0.5 * trace_norm(state_a.coeffs - state_b.coeffs)
