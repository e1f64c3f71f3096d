"""Checks and transforms of two-mode states on their dense expansion.

Each helper reads or builds the d^4 tensor p[n, m, k, l], so it costs
O(d^4) and serves the tests only; the package itself works on the stored
sector layout.
"""

import numpy as np

import oracles
from distillery import TruncationConfig, min_eigenvalue, state_from_coeffs
from distillery.core import EIG_TOL, TRACE_TOL


def truncated_tmss(lam, n_max):
    """The squeezed state at any cutoff, also one below what tmss admits
    (a small, heavily truncated test state), from the oracle's ladder."""
    return state_from_coeffs(oracles.tmss_coeffs(lam, n_max), TruncationConfig(n_max))


def swap_modes(state):
    """Exchange the roles of modes A and B."""
    return state_from_coeffs(state.coeffs.transpose(1, 0, 3, 2), TruncationConfig(state.n_max))


def partial_transpose(state):
    """Transpose on mode A only; returns a rank-4 tensor, not a state."""
    return state.coeffs.transpose(2, 1, 0, 3)


def trace_of(state):
    """Trace as the dense einsum over the coefficients, beside state.trace,
    which sums the sector's j = 0 diagonal."""
    return float(np.einsum("nmnm->", state.coeffs))


def hermiticity_defect(state):
    """Largest |p[n,m,k,l] - p[k,l,n,m]| (for real p, Hermitian is symmetric)."""
    c = state.coeffs
    return float(np.abs(c - c.transpose(2, 3, 0, 1)).max())


def check_state(state, psd=True):
    """Validate positivity and trace consistency; raise on failure. A state
    is symmetric by construction (state_from_coeffs checks its input)."""
    if abs(trace_of(state) - state.trace) > max(TRACE_TOL, 1e-12):
        raise ValueError("sector's j = 0 sum disagrees with the dense einsum trace")
    if psd:
        low = min_eigenvalue(state)
        if low < -EIG_TOL:
            raise ValueError(f"state has eigenvalue {low:.3g} < -eig_tol")
