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


class _TruncationFields(NamedTuple):
    n_max: int
    eig_tol: float = 1e-10
    trace_tol: float = 1e-15
    conv_tol: float = 1e-8


class TruncationConfig(_TruncationFields):
    """Numerical policy: Fock cutoff and the tolerances every op consults.

    n_max      highest Fock index kept per mode (dim = n_max + 1)
    eig_tol    Hermiticity / positivity slack for eigenvalue checks
    trace_tol  admissible truncated tail weight; also the zero-trace floor
    conv_tol   trace-distance threshold for fixed-point iteration
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if int(self.n_max) != self.n_max or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max}")
        for name in ("eig_tol", "trace_tol", "conv_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        return self

    @property
    def dim(self):
        return self.n_max + 1


def auto_n_max(lam, trace_tol=TruncationConfig._field_defaults["trace_tol"]):
    """Smallest cutoff whose discarded squeezed-state tail stays below trace_tol.

    The tail weight of the geometric photon-number distribution beyond n_max
    is lam^(2*(n_max + 1)). The cutoff is the first n_max >= 1 whose float
    tail falls below trace_tol: estimated from logarithms, then corrected
    with that float test, so lam near 1 costs a few steps, not one per cutoff.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"squeezing parameter must lie in [0, 1), got {lam}")
    if lam**4 < trace_tol:
        return 1
    n = max(1, math.ceil(math.log(trace_tol) / (2.0 * math.log(lam))) - 1)
    while n > 1 and lam ** (2 * n) < trace_tol:
        n -= 1
    while lam ** (2 * (n + 1)) >= trace_tol:
        n += 1
    return n


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


def _zero_slot(dim):
    # X[d - 1, d - 1, d - 1]: diagonal d - 1 has one entry, so this padding
    # slot is zero in every stored array (dim >= 2)
    return dim**3 - 1


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
    """Immutable two-mode density operator plus its numerical policy.

    sector is the stored (d, d, d) layout described above; coeffs and
    as_matrix() expand it to the d^4 tensor and cost O(d^4) per call.
    States compare by identity.
    """

    __slots__ = ("sector", "trace", "cfg")

    def __init__(self, sector, trace, cfg):
        object.__setattr__(self, "sector", sector)
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "cfg", cfg)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return TwoModeState, (self.sector, self.trace, self.cfg)

    def __repr__(self):
        return f"TwoModeState(sector={self.sector!r}, trace={self.trace!r})"

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


def _check_hermiticity(defect, tol):
    if defect > tol:
        raise NotHermitianError(f"hermiticity defect {defect:.3g} > {tol:.3g}")


def state_from_coeffs(coeffs, cfg):
    """Store a rank-4 coefficient tensor p[n, m, k, l] as a state, computing
    its trace. Complex input is accepted only with a zero imaginary part,
    every nonzero must obey n - k = m - l, and p[n, m, k, l] may differ from
    p[k, l, n, m] by at most cfg.eig_tol (NotHermitianError beyond it); the
    entries with n >= k are stored. This is where a state enters: every op
    maps stored arrays to stored arrays, which cannot break Hermiticity."""
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
    _check_hermiticity(float(np.abs(c - c.transpose(2, 3, 0, 1)).max()), cfg.eig_tol)
    slot, dense = _sector_entries(d)
    x = np.zeros((d, d, d))
    x.reshape(-1)[slot] = c.reshape(-1)[dense]
    return _wrap_fresh(x, cfg)


def _wrap_fresh(x, cfg):
    """Wrap a C-contiguous float64 stored array that no one else holds (an
    op's own output) without copying it: freeze it, read its trace, the sum
    of diagonal j = 0."""
    x.flags.writeable = False
    return TwoModeState(x, float(x[0].sum()), cfg)


def _tmss_amplitudes(lam, cfg, allow_truncation=False):
    """The photon-number amplitudes lam^n of the truncated squeezed state,
    n < dim, normalized; refuses the (lam, n_max) pairs tmss refuses."""
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
    amps = lam ** np.arange(cfg.dim)
    amps /= math.sqrt(np.sum(amps * amps))
    return amps


def tmss(lam, cfg, allow_truncation=False):
    """Truncated, renormalized two-mode squeezed state.

    Refuses (lam, n_max) pairs whose discarded tail weight lam^(2*(n_max+1))
    reaches cfg.trace_tol unless allow_truncation is set; auto_n_max() gives
    the smallest admissible cutoff.
    """
    amps = _tmss_amplitudes(lam, cfg, allow_truncation)
    d = cfg.dim
    # |n, n><k, k| is entry (p, p) of diagonal |n - k|
    x = np.zeros((d, d, d))
    r = np.arange(d)
    x[:, r, r] = _pair_rows(amps, d)
    return _wrap_fresh(x, cfg)


def vacuum(cfg):
    d = cfg.dim
    x = np.zeros((d, d, d))
    x[0, 0, 0] = 1.0
    return _wrap_fresh(x, cfg)


def _pair_rows(w, dim):
    """u[j, p] = w[p + j] w[p] for entry p of diagonal j = |n - k|, or 0
    where p + j lies beyond w: a one-mode weight w[n] w[k] in the stored
    layout, to scale axis 1 (mode A) or axis 2 (mode B) with."""
    j, p = np.ogrid[:dim, :dim]
    top = len(w)
    ext = np.append(w, 0.0)
    return ext[np.minimum(p + j, top)] * ext[np.minimum(p, top)]


def normalize(state):
    """Rescale by the cached trace; returns (normalized state, original trace).

    The original trace is the outcome probability when the input is an
    unnormalized conditional state.
    """
    tr = state.trace
    if tr <= state.cfg.trace_tol:
        raise ZeroTraceError(f"trace {tr:.3g} is at or below trace_tol")
    return _wrap_fresh(state.sector / tr, state.cfg), tr


@lru_cache(maxsize=None)
def _block_tables(dim, kind):
    """Gather tables for the 2d-1 blocks of the density matrix (kind "rho")
    or of its partial transpose on mode A (kind "pt"), each padded to d x d.

    Returns (index, keep): the flat position in the stored layout of every
    block entry (shape (2d-1, d, d)), mirrored entries at the one slot they
    share, padding entries at the zero slot, and
    keep[b, i] = i < size of block b.
    Block b of "rho" holds rows (n, m) and columns (k, l) with
    n - m = k - l = b - (d - 1); block N of "pt" is
    B_N[m, l] = c[N - l, m, N - m, l]. Both cover exactly the entries with
    n - k = m - l, each once.
    """
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
    index = np.where((i < size) & (j < size), _slot(dim, n, m, k, l_), _zero_slot(dim))
    keep = i[..., 0] < size[..., 0]
    for arr in (index, keep):
        arr.flags.writeable = False
    return index, keep


def _block_eigvalsh(x, kind):
    """Ascending eigenvalues of the d^2 x d^2 density matrix (kind "rho")
    or of its partial transpose on mode A (kind "pt") of each stored array
    of a stack x (b, d, d, d), shape (b, d^2).

    The sector rule makes that matrix block-diagonal: in n - m for "rho" and
    in the total photon number for "pt". The 2d-1 blocks, each padded to
    d x d with a diagonal sentinel above its Frobenius norm, are solved in
    one batched call, and the first `size` eigenvalues of each are that
    block's spectrum.
    """
    b, d = len(x), x.shape[-1]
    index, keep = _block_tables(d, kind)
    blocks = x.reshape(b, -1)[:, index]
    # the blocks are full symmetric, so their Frobenius norm bounds every
    # eigenvalue, with no temporary of their size; the sentinel sits above it
    sentinel = 2.0 * np.sqrt(np.einsum("bnij,bnij->bn", blocks, blocks)) + 1.0
    r = np.arange(d)
    blocks[:, :, r, r] = np.where(keep, blocks[:, :, r, r], sentinel[..., None])
    # C order, so that a stack's rows sum like a stack of one, bit for bit
    eigs = np.ascontiguousarray(np.linalg.eigvalsh(blocks)[:, keep])
    eigs.sort(axis=-1)
    return eigs


def min_eigenvalue(state):
    """Smallest eigenvalue of the density matrix (negative means non-PSD)."""
    return float(_block_eigvalsh(state.sector[None], "rho")[0, 0])
