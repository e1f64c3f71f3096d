"""Truncated two-mode Fock-space density operators.

A state over modes A and B has the coefficients p[n, m, k, l] of
sum_{nmkl} p |n, m><k, l|, with n, k indexing mode A and m, l indexing
mode B. Flattening (n, m) rows against (k, l) columns gives the usual
dim^2 x dim^2 density matrix. Only the entries with n - k = m - l are
nonzero, and of those only the ones with n >= k are stored, in the layout
below.
Every Fock matrix element of the protocol is real, so coefficients are
float64 and the density matrix is real symmetric.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np


class ZeroTraceError(ValueError):
    """Raised when a conditional branch carries (numerically) no weight."""


class NotHermitianError(ValueError):
    """Raised when an operator expected to be Hermitian is not."""


# The numerical policy, the same for every run: the Hermiticity slack and
# negativity clamp, the weight at or below which a state or outcome has
# vanished (also the admissible truncated squeezed-state tail), the trace
# distance at which mashing has converged, the rounds it makes at most, and
# how far from 1 the trace of a mashing input may lie.
EIG_TOL = 1e-10
TRACE_TOL = 1e-15
CONV_TOL = 1e-8
MAX_ITER = 50
NORM_TOL = 1e-9


def _integer(name, x, low, high=math.inf):
    """int(x) for an integral value x in [low, high], else ValueError."""
    try:
        ok = int(x) == x and low <= x <= high
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        span = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {span}, got {x}")
    return int(x)


class TruncationConfig(NamedTuple("TruncationConfig", [("n_max", int)])):
    """The Fock cutoff: n_max is the highest Fock index kept per mode, so
    dim = n_max + 1. The tolerances are fixed (EIG_TOL, TRACE_TOL, CONV_TOL)."""

    __slots__ = ()

    def __new__(cls, n_max):
        return super().__new__(cls, _integer("n_max", n_max, 1))

    @property
    def dim(self):
        return self.n_max + 1


def auto_n_max(lam):
    """Smallest cutoff whose discarded squeezed-state tail stays below TRACE_TOL.

    The cutoff rule admits n_max where the float tail lam^(2*(n_max + 1))
    falls below TRACE_TOL, and this is the first n_max >= 1 it admits:
    estimated from logarithms, then corrected with the rule, so lam near 1
    costs a few steps, not one per cutoff. Refuses lam outside [0, 1).
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"squeezing parameter must lie in [0, 1), got {lam}")

    def admitted(n):
        return lam ** (2 * (n + 1)) < TRACE_TOL
    if admitted(1):
        return 1
    n = max(1, math.ceil(math.log(TRACE_TOL) / (2.0 * math.log(lam))) - 1)
    while n > 1 and admitted(n - 1):
        n -= 1
    while not admitted(n):
        n += 1
    return n


def _check_cutoff(lam, n_max):
    """ValueError unless auto_n_max admits lam and its rule admits n_max."""
    auto = auto_n_max(lam)
    if n_max < auto:
        raise ValueError(
            f"n_max={n_max} discards a squeezed-state tail of trace_tol={TRACE_TOL:.3g} "
            f"or more at lam={lam}; the smallest admissible n_max is {auto}"
        )


# The stored layout. Every protocol state commutes with N_A - N_B, so its
# coefficients p[n, m, k, l] vanish unless n - k = m - l, and it is real
# symmetric, so p[n, m, k, l] = p[k, l, n, m]. The coherence diagonal
# j = n - k of mode A then fixes that of mode B, diagonal -j mirrors
# diagonal j, and a state is the (d, d, d) array X[j, p, q] of the
# diagonals j = |n - k| = 0 ... d - 1: mode A's pair (n, k) is entry
# p = min(n, k) of diagonal |n - k|, mode B's pair (m, l) entry
# q = min(m, l) of the same diagonal. Diagonal j has d - j entries per mode;
# the rest of its d x d slice is padding and always zero. Each coefficient
# is stored once, so no stored array can break Hermiticity.


def _slot(dim, n, m, k, l_):
    """Flat position in the stored layout of p[n, m, k, l] (n - k = m - l)."""
    return (np.abs(n - k) * dim + np.minimum(n, k)) * dim + np.minimum(m, l_)


@lru_cache(maxsize=None)
def _sector_entries(dim):
    """(slot, dense) for every slot of the stored layout that holds a
    coefficient: its flat position there, and in the d^4 tensor that of the
    coefficient p[n, m, k, l] with n >= k that it holds."""
    j, p, q = np.ogrid[:dim, :dim, :dim]
    ok = (p + j < dim) & (q + j < dim)
    n, k, m, l_ = p + j, p, q + j, q
    slot = np.flatnonzero(ok)
    dense = (((n * dim + m) * dim + k) * dim + l_)[ok]
    for arr in (slot, dense):
        arr.flags.writeable = False
    return slot, dense


def _dense(sector):
    """The d^4 coefficient tensor p[n, m, k, l] of a stored array."""
    dim = sector.shape[1]
    slot, dense = _sector_entries(dim)
    values = sector.reshape(-1)[slot]
    c = np.zeros(dim**4)
    c[dense] = values
    # and at its mirror p[k, l, n, m]: the two halves of the flat index swap
    c[dense % dim**2 * dim**2 + dense // dim**2] = values
    c = c.reshape((dim,) * 4)
    c.flags.writeable = False
    return c


class TwoModeState:
    """Immutable two-mode density operator.

    sector is the stored (d, d, d) layout described above; coeffs and
    as_matrix() expand it to the d^4 tensor and cost O(d^4) per call.
    States compare by identity.
    """

    __slots__ = ("sector",)

    def __init__(self, sector):
        object.__setattr__(self, "sector", sector)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return TwoModeState, (self.sector,)

    def __repr__(self):
        return f"TwoModeState(sector={self.sector!r}, trace={self.trace!r})"

    @property
    def trace(self):
        """The sum of diagonal j = 0 of the stored layout."""
        return float(self.sector[0].sum())

    @property
    def dim(self):
        return self.sector.shape[1]

    @property
    def n_max(self):
        return self.sector.shape[1] - 1

    @property
    def coeffs(self):
        """Read-only d^4 tensor p[n, m, k, l] of sum p |n, m><k, l|."""
        return _dense(self.sector)

    def as_matrix(self):
        """Density-matrix view, rows (n, m) against columns (k, l)."""
        d = self.dim
        return self.coeffs.reshape(d * d, d * d)


def _check_hermiticity(defect):
    if defect > EIG_TOL:
        raise NotHermitianError(f"hermiticity defect {defect:.3g} > {EIG_TOL:.3g}")


def state_from_coeffs(coeffs, cfg):
    """Store a rank-4 coefficient tensor p[n, m, k, l] as a state. Complex
    input is accepted only with a zero imaginary part, every nonzero must
    obey n - k = m - l, and p[n, m, k, l] may differ from p[k, l, n, m] by
    at most EIG_TOL (NotHermitianError beyond it); the entries with n >= k
    are stored. This is where a state enters: every op maps stored arrays to
    stored arrays, which cannot break Hermiticity."""
    c = np.asarray(coeffs)
    if np.iscomplexobj(c) and np.any(c.imag):
        raise ValueError("coefficients must be real, got a nonzero imaginary part")
    d = cfg.n_max + 1
    if c.shape != (d, d, d, d):
        raise ValueError(f"expected shape {(d, d, d, d)}, got {c.shape}")
    c = c.real
    n, m, k, l_ = np.ogrid[:d, :d, :d, :d]
    if np.any(c[n - k != m - l_]):
        raise ValueError(
            "coefficients must obey n - k = m - l, got a nonzero entry off that sector"
        )
    _check_hermiticity(float(np.abs(c - c.transpose(2, 3, 0, 1)).max()))
    slot, dense = _sector_entries(d)
    x = np.zeros((d, d, d))
    x.reshape(-1)[slot] = c.reshape(-1)[dense]
    return _wrap_fresh(x)


def _wrap_fresh(x):
    """Wrap a C-contiguous float64 stored array that no one else holds (an
    op's own output) without copying it: freeze it."""
    x.flags.writeable = False
    return TwoModeState(x)


def _tmss_amplitudes(lam, cfg):
    """The photon-number amplitudes lam^n of the truncated squeezed state,
    n < dim, normalized."""
    _check_cutoff(lam, cfg.n_max)
    amps = lam ** np.arange(cfg.dim)
    amps /= math.sqrt(np.sum(amps * amps))
    return amps


def tmss(lam, cfg):
    """Truncated, renormalized two-mode squeezed state.

    Refuses the lam and n_max that auto_n_max refuses or rules out;
    auto_n_max(lam) is the smallest admissible cutoff.
    """
    amps = _tmss_amplitudes(lam, cfg)
    d = cfg.dim
    # |n, n><k, k| is entry (p, p) of diagonal |n - k|
    x = np.zeros((d, d, d))
    r = np.arange(d)
    x[:, r, r] = _pair_rows(amps, d)
    return _wrap_fresh(x)


def vacuum(cfg):
    return tmss(0.0, cfg)


def _pair_rows(w, dim):
    """u[j, p] = w[p + j] w[p] for entry p of diagonal j = |n - k|, or 0
    where p + j lies beyond w: a one-mode weight w[n] w[k] in the stored
    layout, to scale axis 1 (mode A) or axis 2 (mode B) with."""
    j, p = np.ogrid[:dim, :dim]
    top = len(w)
    ext = np.append(w, 0.0)
    return ext[np.minimum(p + j, top)] * ext[np.minimum(p, top)]


def normalize(state):
    """Rescale by the trace; returns (normalized state, original trace).

    The original trace is the outcome probability when the input is an
    unnormalized conditional state.
    """
    tr = state.trace
    if tr <= TRACE_TOL:
        raise ZeroTraceError(f"trace {tr:.3g} is at or below trace_tol")
    return _wrap_fresh(state.sector / tr), tr


@lru_cache(maxsize=None)
def _block_tables(dim, kind):
    """Gather tables for the 2d-1 blocks of the density matrix (kind "rho")
    or of its partial transpose on mode A (kind "pt"): for each size
    s = 1 ... d, an int32 array (g, s, s) of the flat position in the stored
    layout of every entry of the g blocks of that size (two, one for s = d),
    mirrored entries at the one slot they share.
    Block b of "rho" holds rows (n, m) and columns (k, l) with
    n - m = k - l = b - (d - 1); block N of "pt" is
    B_N[m, l] = c[N - l, m, N - m, l]; block b has size d - |b - (d - 1)|.
    Both cover exactly the entries with n - k = m - l, each once.
    """
    tables = []
    for s in range(1, dim + 1):
        # blocks s - 1 and 2d - 1 - s have size s; at s = d they are one
        b = np.array(sorted({s - 1, 2 * dim - 1 - s}))[:, None, None]
        i, j = np.ogrid[:s, :s]
        if kind == "rho":
            shift = b - (dim - 1)  # J = n - m
            n, m = i + np.maximum(shift, 0), i + np.maximum(-shift, 0)
            k, l_ = j + np.maximum(shift, 0), j + np.maximum(-shift, 0)
        else:  # "pt", block b = N = k + m
            low = np.maximum(b - (dim - 1), 0)  # smallest m (and l) with N - m < d
            m, l_ = i + low, j + low
            n, k = b - l_, b - m
        index = _slot(dim, n, m, k, l_).astype(np.int32)
        index.flags.writeable = False
        tables.append(index)
    return tuple(tables)


def _block_eigvalsh(x, kind):
    """Ascending eigenvalues of the d^2 x d^2 density matrix (kind "rho")
    or of its partial transpose on mode A (kind "pt") of each stored array
    of a stack x (b, d, d, d), shape (b, d^2).

    The sector rule makes that matrix block-diagonal: in n - m for "rho" and
    in the total photon number for "pt". The blocks of each size are
    gathered and solved in one batched call at that size, and their spectra
    are joined and sorted.
    """
    flat = x.reshape(len(x), -1)
    # C order, so that a stack's rows sum like a stack of one, bit for bit
    eigs = np.concatenate(
        [np.linalg.eigvalsh(flat[:, index]).reshape(len(x), -1)
         for index in _block_tables(x.shape[-1], kind)],
        axis=-1,
    )
    eigs.sort(axis=-1)
    return eigs


def min_eigenvalue(state):
    """Smallest eigenvalue of the density matrix (negative means non-PSD)."""
    return float(_block_eigvalsh(state.sector[None], "rho")[0, 0])
