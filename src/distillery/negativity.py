"""Entanglement monotones from the partial transpose."""

import math
from typing import NamedTuple

import numpy as np

from .core import TruncationConfig, _block_eigvalsh, _check_hermiticity


class NegativityResult(NamedTuple):
    """Log-negativity together with the diagnostics behind the clamping.

    value          log2 of the partial-transpose trace norm, clamped at 0
    min_eig        smallest partial-transpose eigenvalue
    trunc_warning  True when the trace norm fell below 1 by more than eig_tol,
                   which signals lost weight (e.g. truncation damage)
    """

    value: float
    min_eig: float
    trunc_warning: bool


def trace_norm(arr):
    """Sum of absolute eigenvalues of a Hermitian matrix, Hermitian to the
    default eig_tol; a rank-4 tensor p[n, m, k, l] is read as its matrix,
    rows (n, m) against columns (k, l). States take the block solve through
    trace_distance and log_negativity."""
    a = np.asarray(arr)
    if a.ndim == 4:
        a = a.reshape(a.shape[0] * a.shape[1], -1)
    defect = float(np.abs(a - a.conj().T).max())
    _check_hermiticity(defect, TruncationConfig._field_defaults["eig_tol"])
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def _log_negativities(x, eig_tol):
    """NegativityResult of each stored array of a stack x (b, d, d, d),
    from one batched block solve, as a list."""
    eigs = _block_eigvalsh(x, "pt")
    norms = np.abs(eigs).sum(axis=-1).tolist()
    return [
        NegativityResult(
            0.0 if min_eig >= -eig_tol else max(math.log2(tn), 0.0),
            min_eig,
            tn < 1.0 - eig_tol,
        )
        for min_eig, tn in zip(eigs[:, 0].tolist(), norms)
    ]


def log_negativity(state):
    """Log-negativity of a normalized two-mode state.

    Spectra whose negative part sits within eig_tol of zero are treated as
    numerical noise and reported as exactly 0.
    """
    return _log_negativities(state.sector[None], state.cfg.eig_tol)[0]


def _trace_distances(x_a, x_b, below=math.inf):
    """(1/2) trace norm of x_a - x_b, elementwise for two stacks of stored
    arrays (b, d, d, d).

    (1/2) the Frobenius norm of the difference bounds that distance from
    below, and it is one reduction over the stored layout, with each
    diagonal j > 0 counted twice for its mirror -j. Where it is at or above
    `below`, it is the distance returned and no eigensolve is made, so a
    caller that only asks whether the distance is below some tolerance
    passes that tolerance.
    """
    diff = x_a - x_b
    sq = np.einsum("bjpq,bjpq->bj", diff, diff)
    dist = 0.5 * np.sqrt(sq[:, 0] + 2.0 * sq[:, 1:].sum(axis=-1))
    solve = ~(dist >= below)
    if solve.any():
        dist[solve] = 0.5 * np.abs(_block_eigvalsh(diff[solve], "rho")).sum(axis=-1)
    return dist


def trace_distance(state_a, state_b):
    """(1/2) trace norm of the difference of two states."""
    if state_a.dim != state_b.dim:
        raise ValueError("states must share dimension")
    return float(_trace_distances(state_a.sector[None], state_b.sector[None])[0])
