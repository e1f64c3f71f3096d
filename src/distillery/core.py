"""Truncated two-mode Fock-space density operators.

A state over modes A and B is stored as the rank-4 coefficient tensor
p[n, m, k, l] of sum_{nmkl} p |n, m><k, l|, with n, k indexing mode A and
m, l indexing mode B. Flattening (n, m) rows against (k, l) columns gives
the usual dim^2 x dim^2 density matrix.
Every Fock matrix element of the protocol is real, so coefficients are
float64 and the density matrix is real symmetric.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class ZeroTraceError(ValueError):
    """Raised when a conditional branch carries (numerically) no weight."""


class NotHermitianError(ValueError):
    """Raised when an operator expected to be Hermitian is not."""


@dataclass(frozen=True)
class TruncationConfig:
    """Numerical policy: Fock cutoff and the tolerances every op consults.

    n_max      highest Fock index kept per mode (dim = n_max + 1)
    eig_tol    Hermiticity / positivity slack for eigenvalue checks
    trace_tol  admissible truncated tail weight; also the zero-trace floor
    conv_tol   trace-distance threshold for fixed-point iteration
    """

    n_max: int
    eig_tol: float = 1e-10
    trace_tol: float = 1e-15
    conv_tol: float = 1e-8

    def __post_init__(self):
        if int(self.n_max) != self.n_max or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max}")
        for name in ("eig_tol", "trace_tol", "conv_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")

    @property
    def dim(self):
        return self.n_max + 1


def auto_n_max(lam, trace_tol=TruncationConfig.trace_tol):
    """Smallest cutoff whose discarded squeezed-state tail stays below trace_tol.

    The tail weight of the geometric photon-number distribution beyond n_max
    is lam^(2*(n_max + 1)).
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"squeezing parameter must lie in [0, 1), got {lam}")
    n = 1
    while lam ** (2 * (n + 1)) >= trace_tol:
        n += 1
    return n


@dataclass(frozen=True, eq=False)
class TwoModeState:
    """Immutable two-mode density operator plus its numerical policy."""

    coeffs: np.ndarray
    trace: float
    cfg: TruncationConfig = field(repr=False)

    @property
    def dim(self):
        return self.coeffs.shape[0]

    @property
    def n_max(self):
        return self.coeffs.shape[0] - 1

    def as_matrix(self):
        """Density-matrix view, rows (n, m) against columns (k, l)."""
        d = self.dim
        return self.coeffs.reshape(d * d, d * d)


def state_from_coeffs(coeffs, cfg):
    """Wrap a rank-4 coefficient tensor as a read-only float64 copy, computing
    its trace. Complex input is accepted only with a zero imaginary part."""
    c = np.asarray(coeffs)
    if np.iscomplexobj(c) and np.any(c.imag):
        raise ValueError("coefficients must be real, got a nonzero imaginary part")
    d = cfg.n_max + 1
    if c.shape != (d, d, d, d):
        raise ValueError(f"expected shape {(d, d, d, d)}, got {c.shape}")
    return _wrap_fresh(np.array(c.real, dtype=np.float64, order="C"), cfg)


def _wrap_fresh(c, cfg):
    """Wrap a C-contiguous float64 array of the right shape that no one else
    holds (an op's own output) without copying it: freeze it, read its trace."""
    c.flags.writeable = False
    return TwoModeState(c, float(np.einsum("nmnm->", c)), cfg)


def tmss(lam, cfg, allow_truncation=False):
    """Truncated, renormalized two-mode squeezed state.

    Refuses (lam, n_max) pairs whose discarded tail weight lam^(2*(n_max+1))
    reaches cfg.trace_tol unless allow_truncation is set; auto_n_max() gives
    the smallest admissible cutoff.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"squeezing parameter must lie in [0, 1), got {lam}")
    tail = lam ** (2 * (cfg.n_max + 1))
    if tail >= cfg.trace_tol and not allow_truncation:
        raise ValueError(
            f"n_max={cfg.n_max} keeps a truncated tail of {tail:.3g} >= "
            f"trace_tol={cfg.trace_tol:.3g} at lam={lam}; raise n_max "
            f"(auto_n_max gives {auto_n_max(lam, cfg.trace_tol)}) or pass "
            "allow_truncation=True"
        )
    d = cfg.dim
    amps = lam ** np.arange(d)
    amps /= math.sqrt(np.sum(amps * amps))
    c = np.zeros((d, d, d, d))
    idx = np.arange(d)
    c[idx[:, None], idx[:, None], idx[None, :], idx[None, :]] = np.outer(amps, amps)
    return state_from_coeffs(c, cfg)


def vacuum(cfg):
    d = cfg.dim
    c = np.zeros((d, d, d, d))
    c[0, 0, 0, 0] = 1.0
    return state_from_coeffs(c, cfg)


def trace_of(state):
    """Trace re-read from the coefficients (not the cached field)."""
    return float(np.einsum("nmnm->", state.coeffs))


def normalize(state):
    """Rescale by the cached trace; returns (normalized state, original trace).

    The original trace is the outcome probability when the input is an
    unnormalized conditional state.
    """
    tr = state.trace
    if tr <= state.cfg.trace_tol:
        raise ZeroTraceError(f"trace {tr:.3g} is at or below trace_tol")
    return _wrap_fresh(state.coeffs / tr, state.cfg), tr


def swap_modes(state):
    """Exchange the roles of modes A and B."""
    return state_from_coeffs(state.coeffs.transpose(1, 0, 3, 2), state.cfg)


def hermiticity_defect(state):
    """Largest |p[n,m,k,l] - p[k,l,n,m]| (for real p, Hermitian is symmetric)."""
    c = state.coeffs
    return float(np.abs(c - c.transpose(2, 3, 0, 1)).max())


@lru_cache(maxsize=None)
def _block_tables(dim, kind):
    """Gather tables for the 2d-1 blocks of the density matrix (kind "rho")
    or of its partial transpose on mode A (kind "pt"), each padded to d x d.

    Returns (index, pad, keep): the flat position in the d^4 coefficient
    tensor of every block entry (shape (2d-1, d, d)), the mask of padding
    entries, and keep[b, i] = i < size of block b.
    Block b of "rho" holds rows (n, m) and columns (k, l) with
    n - m = k - l = b - (d - 1); block N of "pt" is
    B_N[m, l] = c[N - l, m, N - m, l]. Both cover exactly the entries with
    n - k = m - l, each once.
    """
    # broadcast ranges and in-place arithmetic keep the returned arrays the
    # only full-size ones: freed full-size temporaries here fragmented the
    # heap and raised a malting run's peak memory at d = 34 by 6 MiB
    b, i, j = np.ogrid[: 2 * dim - 1, :dim, :dim]
    size = dim - np.abs(b - (dim - 1))
    if kind == "rho":
        shift = b - (dim - 1)  # J = n - m
        n, m = i + np.maximum(shift, 0), i + np.maximum(-shift, 0)
        k, l_ = j + np.maximum(shift, 0), j + np.maximum(-shift, 0)
    else:  # "pt", block b = N = k + m
        low = np.maximum(b - (dim - 1), 0)  # smallest m (and l) with N - m < d
        m, l_ = i + low, j + low
        n, k = b - l_, b - m
    index = np.zeros((2 * dim - 1, dim, dim), dtype=np.intp)
    for part in (n, m, k, l_):
        index *= dim
        index += part
    pad = (i >= size) | (j >= size)
    index[pad] = 0
    keep = i[..., 0] < size[..., 0]
    for arr in (index, pad, keep):
        arr.flags.writeable = False
    return index, pad, keep


def _check_hermitian(mat, herm_tol):
    # on one matrix or a stack of them
    defect = float(np.abs(mat - mat.conj().swapaxes(-1, -2)).max())
    if defect > herm_tol:
        raise NotHermitianError(f"hermiticity defect {defect:.3g} > {herm_tol:.3g}")


def _block_eigvalsh(c, kind, herm_tol=None):
    """Ascending eigenvalues of the d^2 x d^2 matrix of the rank-4 tensor c
    (kind "rho") or of its partial transpose on mode A (kind "pt").

    Where every nonzero of c obeys n - k = m - l, as in every protocol
    state, that matrix is block-diagonal: in n - m for "rho" and in the
    total photon number for "pt". The 2d-1 blocks, each padded to d x d
    with a diagonal sentinel above its Gershgorin bound, are then solved in
    one batched call, and the first `size` eigenvalues of each are that
    block's spectrum. Any nonzero off the blocks takes the dense solve.
    With herm_tol, Hermiticity is checked first (on the blocks when the
    input is block-diagonal) and NotHermitianError raised beyond it.
    """
    d = c.shape[0]
    index, pad, keep = _block_tables(d, kind)
    blocks = c.reshape(-1)[index]
    blocks[pad] = 0.0
    if np.count_nonzero(blocks) != np.count_nonzero(c):
        # a nonzero off the blocks: the only branch that forms the d^4 matrix
        mat = (c if kind == "rho" else c.transpose(2, 1, 0, 3)).reshape(d * d, d * d)
        if herm_tol is not None:
            _check_hermitian(mat, herm_tol)
        return np.linalg.eigvalsh(mat)
    if herm_tol is not None:
        _check_hermitian(blocks, herm_tol)
    # the sum of |entries| bounds every eigenvalue of the matrix that
    # eigvalsh reads from the lower triangle; the sentinel sits above it
    sentinel = 2.0 * np.abs(blocks).sum(axis=(1, 2)) + 1.0
    r = np.arange(d)
    blocks[:, r, r] = np.where(keep, blocks[:, r, r], sentinel[:, None])
    return np.sort(np.linalg.eigvalsh(blocks)[keep])


def min_eigenvalue(state):
    """Smallest eigenvalue of the density matrix (negative means non-PSD)."""
    return float(_block_eigvalsh(state.coeffs, "rho")[0])


def check_state(state, psd=True):
    """Validate Hermiticity, positivity and trace consistency; raise on failure."""
    tol = state.cfg.eig_tol
    defect = hermiticity_defect(state)
    if defect > tol:
        raise NotHermitianError(f"hermiticity defect {defect:.3g} > eig_tol {tol:.3g}")
    if abs(trace_of(state) - state.trace) > max(state.cfg.trace_tol, 1e-12):
        raise ValueError("cached trace disagrees with coefficients")
    if psd:
        low = min_eigenvalue(state)
        if low < -tol:
            raise ValueError(f"state has eigenvalue {low:.3g} < -eig_tol")
