"""Beam-splitter-mediated channels: memory loss, phonon counting, mashing.

Loss and phonon detection both come from coupling a mode to vacuum on a
splitter of transmissivity t; keeping q of the reflected quanta has amplitude
A(n, q) = sqrt(C(n, q)) t^(n-q) r^q on Fock level n. Summing q gives the loss
channel, fixing q gives the (unnormalized) measurement update.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    TwoModeState,
    ZeroTraceError,
    _pair_rows,
    _sector_entries,
    _slot,
    _wrap_fresh,
    _zero_slot,
)


@lru_cache(maxsize=None)
def _sqrt_fact(n_top):
    # sqrt(k!) for k = 0..n_top as a running product: k! overflows float64 from k = 171
    return np.concatenate(([1.0], np.cumprod(np.sqrt(np.arange(1.0, n_top + 1)))))


@dataclass(frozen=True)
class LossChannelParams:
    """Memory transmissivity per clock cycle, t in (0, 1]."""

    t: float

    def __post_init__(self):
        if not 0.0 < self.t <= 1.0:
            raise ValueError(f"transmissivity t must lie in (0, 1], got {self.t}")

    @property
    def tau(self):
        """Cycles per memory lifetime, 1 / (1 - t^2)."""
        if self.t == 1.0:
            return math.inf
        return 1.0 / (1.0 - self.t * self.t)

    @classmethod
    def from_tau(cls, tau):
        if not tau > 1.0:
            raise ValueError(f"tau must exceed 1, got {tau}")
        return cls(math.sqrt(1.0 - 1.0 / tau))


@dataclass(frozen=True)
class SubtractionParams:
    """Transmissivity of the weakly reflecting subtraction splitter."""

    t_s: float

    def __post_init__(self):
        if not 0.0 < self.t_s < 1.0:
            raise ValueError(f"t_s must lie in (0, 1), got {self.t_s}")


def bs_amplitude(n, q, t):
    """Amplitude for removing exactly q of n quanta at transmissivity t."""
    if not 0 <= q <= n:
        raise ValueError(f"need 0 <= q <= n, got q={q}, n={n}")
    r = math.sqrt(max(0.0, 1.0 - t * t))
    return math.sqrt(math.comb(n, q)) * t ** (n - q) * r**q


def loss_kraus(t, dim):
    """Kraus operators of the single-mode loss channel, indexed by quanta lost.

    Returns an array K[q, out, in] with K[q, n-q, n] = A(n, q).
    """
    ks = np.zeros((dim, dim, dim))
    for q in range(dim):
        for n in range(q, dim):
            ks[q, n - q, n] = bs_amplitude(n, q, t)
    return ks


@lru_cache(maxsize=None)
def _loss_maps(t, dim):
    # L[j + d - 1] is the one-mode loss channel on coherence diagonal j in
    # the stored layout: sum_q K_q |n><k| K_q† moves entry p of the diagonal
    # to p - q with weight A(n, q) A(k, q), so L[j][p - q, p] is entry p - q
    # of row j of the q-count weights (_count_rows, built uncached here so
    # that only the maps stay in memory).
    maps = np.zeros((2 * dim - 1, dim, dim))
    for q in range(dim):
        x = np.arange(dim - q)
        maps[:, x, x + q] = _pair_rows(_kraus_weights(q, t, dim), dim)[:, : dim - q]
    maps.flags.writeable = False
    return maps


def loss_event(state, params):
    """One clock cycle of memory loss on both modes (trace preserving): on
    every diagonal j, X_j <- L_j X_j L_j^T, mode A on the left, B on the right."""
    maps = _loss_maps(params.t, state.dim)
    return _wrap_fresh(maps @ state.sector @ maps.transpose(0, 2, 1), state.cfg)


def repeated_loss(state, params, m):
    """m consecutive loss events."""
    if int(m) != m or m < 0:
        raise ValueError(f"m must be a non-negative integer, got {m}")
    for _ in range(int(m)):
        state = loss_event(state, params)
    return state


@lru_cache(maxsize=None)
def _kraus_weights(q, t, dim):
    # w[n] = A(n + q, q) = K_q[n, n + q]: amplitude of output level n after
    # q quanta are removed (lost or counted)
    w = np.array([bs_amplitude(n + q, q, t) for n in range(dim - q)])
    w.flags.writeable = False
    return w


@lru_cache(maxsize=None)
def _count_rows(q, t, dim):
    # u[j + d - 1, p] = A(n + q, q) A(k + q, q) for output pair (n, k) = entry
    # p of diagonal j: the weight K_q |n + q><k + q| K_q† puts on it
    u = _pair_rows(_kraus_weights(q, t, dim), dim)[:, : dim - q]
    u.flags.writeable = False
    return u


def _count(x, q, t, mode):
    # K rho K† for the q-count operator K[n - q, n] = A(n, q) on one mode: a
    # shift by q along that mode's axis of the stored layout (1 for A, 2 for
    # B), scaled by the per-diagonal weight rows. Elementwise on purpose: no
    # BLAS call, no temporaries of the state's size.
    d = x.shape[1]
    u = _count_rows(q, t, d)
    out = np.zeros_like(x)
    if mode == "A":
        kept, src, w = out[:, : d - q, :], x[:, q:, :], u[:, :, None]
    else:
        kept, src, w = out[:, :, : d - q], x[:, :, q:], u[:, None, :]
    np.multiply(src, w, out=kept)
    return out


def detect_phonons(state, params, q_a, q_b):
    """Joint counting outcome (q_a, q_b) on the two modes, unnormalized.

    The trace of the returned state is the outcome probability.
    """
    for q in (q_a, q_b):
        if int(q) != q or not 0 <= q <= state.n_max:
            raise ValueError(f"outcome q must be an integer in [0, n_max], got {q}")
    x = _count(state.sector, int(q_a), params.t_s, "A")
    return _wrap_fresh(_count(x, int(q_b), params.t_s, "B"), state.cfg)


def detect_one_mode(state, params, mode, q):
    """Counting outcome q on a single mode ('A' or 'B'), unnormalized."""
    if mode not in ("A", "B"):
        raise ValueError(f"mode must be 'A' or 'B', got {mode!r}")
    if int(q) != q or not 0 <= q <= state.n_max:
        raise ValueError(f"outcome q must be an integer in [0, n_max], got {q}")
    return _wrap_fresh(_count(state.sector, int(q), params.t_s, mode), state.cfg)


def _bs_blocks(n_top, t):
    """Yield B_N[m1, n1] = <m1, N-m1| B |n1, N-n1> for N = 0..n_top.

    Each block follows from the last by the spin-1/2 coupling
    |n> = (1/N) sum_s sqrt(n_s) a_s† |n - e_s> on both sides, with
    B a1† B† = t a1† - r a2† and B a2† B† = r a1† + t a2†. Its weights are
    products of two unit vectors' components, so rounding errors never grow,
    where the alternating binomial sum cancels catastrophically at large N.
    """
    r = math.sqrt(max(0.0, 1.0 - t * t))
    b = np.ones((1, 1))
    yield b
    for n in range(1, n_top + 1):
        up = np.sqrt(np.arange(n + 1.0))  # sqrt(x) at x = 0..n
        down = up[::-1]  # sqrt(n - x)
        nb = np.zeros((n + 1, n + 1))
        nb[1:, 1:] += t * b * np.outer(up[1:], up[1:])
        nb[1:, :-1] += r * b * np.outer(up[1:], down[:-1])
        nb[:-1, 1:] -= r * b * np.outer(down[:-1], up[1:])
        nb[:-1, :-1] += t * b * np.outer(down[:-1], down[:-1])
        b = nb / n
        yield b


def fock_bs_element(n1, n2, m1, m2, t):
    """<m1, m2| B |n1, n2> for a splitter whose reflection into output 2
    carries the minus sign. Zero unless photon number is conserved."""
    if n1 + n2 != m1 + m2 or min(n1, n2, m1, m2) < 0:
        return 0.0
    return float(_bs_block(n1 + n2, t)[m1, n1])


@lru_cache(maxsize=64)
def _bs_block(total, t):
    # the last block of _bs_blocks, kept for repeated element lookups
    for b in _bs_blocks(total, t):
        pass
    b.flags.writeable = False
    return b


class MashResult(NamedTuple):
    state: TwoModeState
    prob: float
    discarded_weight: float


# Mashing coordinates. The kernel reads a stored array as a d^3 array
# indexed (n, m, k), with l = m - n + k implied by the sector rule, where its
# truncated convolution adds indices.


@lru_cache(maxsize=None)
def _mash_tables(dim):
    # gather[n, m, k]: slot of p[n, m, k, m - n + k] in the stored layout,
    # the zero slot where that l leaves the cutoff; scatter: for every slot
    # of the stored layout, the flat (n, m, k) position of its entry, so that
    # one take fills the whole layout (padding reads entry 0, and the output
    # weights, zero there, clear it)
    n, m, k = np.ogrid[:dim, :dim, :dim]
    l_ = m - n + k
    gather = np.where((l_ >= 0) & (l_ < dim), _slot(dim, n, m, k, l_), _zero_slot(dim))
    slot, dense = _sector_entries(dim)
    scatter = np.zeros((2 * dim - 1) * dim * dim, dtype=np.intp)
    scatter[slot] = dense // dim  # drops l from ((n d + m) d + k) d + l
    for arr in (gather, scatter):
        arr.flags.writeable = False
    return gather, scatter


@lru_cache(maxsize=None)
def _vacuum_weights(dim):
    # V[j + dim - 1, p, p'] = sqrt(C(N, p + |j|) C(N, p)) / 2^N with
    # N = p + p' + |j|: the weight with which rho_0's pair (n, k) (entry p of
    # diagonal j) meets rho_i's pair (N - n, N - k) (entry p' of diagonal -j)
    # in the vacuum-conditioned output N of one 50/50 splitter. Each factor
    # sqrt(C(N, x) / 2^N) is an exact integer ratio, rounded once: at most 1,
    # so nothing overflows at any cutoff.
    top = 2 * (dim - 1)
    root = np.zeros((top + 1, top + 1))
    for n in range(top + 1):
        for x in range(n + 1):
            root[n, x] = math.sqrt(math.comb(n, x) / 2**n)
    j, p, p2 = np.indices((2 * dim - 1, dim, dim))
    a = np.abs(j - (dim - 1))
    n = np.minimum(p + p2 + a, top)
    ok = (p + a < dim) & (p2 + a < dim)
    v = np.where(ok, root[n, np.minimum(p + a, top)] * root[n, p], 0.0)
    v.flags.writeable = False
    return v


@lru_cache(maxsize=None)
def _block_count(dim):
    # blocks per (m, k) axis of _convolve at cutoff dim: of the counts whose
    # blocks are at least 8 wide (narrower ones make matmuls too small to pay
    # for their calls), the one with the fewest multiply-adds,
    # (B (B + 1) / 2)^2 block products of s^4 each at block side s = ceil(d / B)
    return min(
        range(1, max(1, dim // 8) + 1),
        key=lambda b: (b * (b + 1)) ** 2 * (-(-dim // b)) ** 4,
    )


# A mashing run convolves every round against the same operand, its
# rescaled rho_0 (_mash_source). Where one branch's window blocks, d shifts
# of B^2 blocks of s^4 float64 (d^5 up to d = 15), fit _WINDOW_CACHE_FLOATS
# (1 MiB), so up to d = 10, _source_windows copies them out once for the
# whole run, and each round is matmuls only. Past that, each convolution
# copies one shift's blocks at a time into a reused buffer. The scan's
# chunks keep their copied windows within the same budget
# (protocol._chunk_width).
_WINDOW_CACHE_FLOATS = 2**17


def _source_window_floats(dim):
    """float64 count of the window blocks that _source_windows keeps for
    one branch at cutoff dim: all of them where they fit
    _WINDOW_CACHE_FLOATS, else none."""
    nb = _block_count(dim)
    s = -(-dim // nb)
    floats = dim * (nb * s * s) ** 2
    return floats if floats <= _WINDOW_CACHE_FLOATS else 0


def _window_view(y):
    # view[e, ..., A - a, C - b, i, j, I, J] = y[..., e, (A - a) s + I - i,
    # (C - b) s + J - j], zero where that index is negative or past d - 1:
    # the distinct blocks of every window matrix of y (see _convolve), as a
    # sliding-window view of a zero-padded copy
    d = y.shape[-1]
    nb = _block_count(d)
    s = -(-d // nb)
    w = nb * s
    pad = np.zeros((*y.shape[:-3], d, s - 1 + w, s - 1 + w))
    pad[..., s - 1 : s - 1 + d, s - 1 : s - 1 + d] = y
    view = sliding_window_view(pad, (s, s), axis=(-2, -1))[..., ::-1, ::-1]
    view = view.reshape(*view.shape[:-4], nb, s, nb, s, s, s)
    return np.moveaxis(view, (-7, -5, -3), (0, -2, -1))


def _source_windows(y):
    """The operand y (..., d, d, d) of _convolve, in the form it reads: y
    itself, or, where _source_window_floats(d) is nonzero, every window
    block of y copied out, (..., d, B, B, s^2, s^2), indexed
    (e, A - a, C - b, (i, j), (I, J)) as in _window_view."""
    d = y.shape[-1]
    if not _source_window_floats(d):
        return y
    s = -(-d // _block_count(d))
    blocks = np.moveaxis(_window_view(y), 0, -7)
    return blocks.reshape(*blocks.shape[:-4], s * s, s * s)


def _truncated_convolution(x, y):
    """out[..., N, M, K] = sum x[..., n, m, k] y[..., N - n, M - m, K - k]
    over N, M, K < d, for each array of two stacks (..., d, d, d) whose
    leading axes broadcast."""
    return _convolve(x, _source_windows(y))


def _convolve(x, windows):
    """_truncated_convolution of x and the y whose _source_windows are
    `windows`.

    One loop over the first-axis shift e of y. The (M, K) part of shift e is
    x[..., :d - e, :, :] times the window matrix W[(m, k), (M, K)] =
    y[..., e, M - m, K - k], zero where M < m or K < k. With the (m, k) axes
    split into B x B blocks of side s (zero-padded to B s), W is block upper
    triangular and block Toeplitz: the block from input block (a, b) to
    output block (A, C) is zero unless A >= a and C >= b, and depends only on
    (A - a, C - b). So each shift takes its B^2 distinct s^2 x s^2 blocks,
    from `windows` where they were copied out, else copied from a
    sliding-window view of y into one reused buffer, and makes one batched
    matmul per block: (B (B + 1) / 2)^2 block products of s^4 multiply-adds,
    against d^4 for the whole matrix. B = _block_count(d); B = 1 is the
    whole matrix.
    """
    d = x.shape[-1]
    nb = _block_count(d)
    s = -(-d // nb)
    w = nb * s
    copied = _source_window_floats(d) > 0
    lead = np.broadcast_shapes(x.shape[:-3], windows.shape[: -5 if copied else -3])
    if w > d:
        xw = np.zeros((*x.shape[:-2], w, w))
        xw[..., :d, :d] = x
        x = xw
    # xb[..., a, b, n, (i, j)] = x[..., n, a s + i, b s + j]
    ax = x.ndim - 3
    xb = x.reshape(*x.shape[:-2], nb, s, nb, s)
    xb = xb.transpose(*range(ax), ax + 1, ax + 3, ax, ax + 2, ax + 4)
    xb = xb.reshape(*x.shape[:-3], nb, nb, d, s * s)
    if not copied:
        view = _window_view(windows)
        # one buffer for the blocks of every shift, so that one shift's copy
        # is live at a time
        buf = np.empty(view.shape[1:])
        blocks = buf.reshape(*buf.shape[:-4], 1, 1, s * s, s * s)
    ob = np.zeros((*lead, nb, nb, d, s * s))
    for e in range(d):
        if copied:
            blocks = windows[..., e, :, :, None, None, :, :]
        else:
            buf[...] = view[e]
        for da in range(nb):
            for db in range(nb):
                src = xb[..., : nb - da, : nb - db, : d - e, :]
                ob[..., da:, db:, e:, :] += src @ blocks[..., da, db, :, :, :, :]
    ax = len(lead)
    out = ob.reshape(*lead, nb, nb, d, s, s)
    out = out.transpose(*range(ax), ax + 2, ax, ax + 3, ax + 1, ax + 4)
    return out.reshape(*lead, d, w, w)[..., :d, :d]


@lru_cache(maxsize=None)
def _mash_weights(dim):
    # The per-index factors of the projector (see _mash_round) on both
    # inputs and on the output, as per-diagonal weight rows of the stored
    # layout; (2d-1) x d each.
    sf = _sqrt_fact(dim - 1)
    rows = []
    for w in ((1.0 / math.sqrt(2.0)) ** np.arange(dim) / sf, sf):
        u = _pair_rows(w, dim)
        u.flags.writeable = False
        rows.append(u)
    return tuple(rows)


def _rescaled(x):
    # the projector's input side of stored arrays: each entry times
    # 2^(-(n+m+k+l)/2) / sqrt(n! m! k! l!), read as (n, m, k) arrays
    d = x.shape[-1]
    u = _mash_weights(d)[0]
    y = x * u[:, :, None]
    y *= u[:, None, :]
    return y.reshape(*y.shape[:-3], -1).take(_mash_tables(d)[0], axis=-1)


def _mash_source(x_0):
    """rho_0's side of the projector, the same in every round against
    fresh copies of one rho_0: the _source_windows of its _rescaled array,
    and its stored array x_0; for a stack x_0 (..., 2d-1, d, d), a stack of
    each, whose rows a caller takes as branches leave."""
    return _source_windows(_rescaled(x_0)), x_0


def _mash_round(x_i, source, cfg):
    """One mashing round on a stack of stored arrays x_i (b, 2d-1, d, d),
    each against its rho_0 in the stack `source` (_mash_source of the
    rho_0 stack, or of one rho_0 for all).

    Vacuum on output 1 of each splitter leaves amplitudes that factor per
    index: r^x / sqrt(x!) on the rho_0 side, t^x / sqrt(x!) on the rho_i
    side, and sqrt(N!) on each output index (t = r here). The kept block is
    a truncated convolution of the rescaled inputs in (n, m, k) coordinates;
    the untruncated trace needs only output N = K, M = L, where rho_0's
    diagonal j meets rho_i's diagonal -j, weighted by _vacuum_weights. The
    reflection sign would enter as (-1)^(n+m+k+l), which is 1 on the sector
    n - k = m - l, so the kernel carries none.

    Returns (kept, prob, discarded, weight) per array: the kept block
    renormalized by its trace `weight` (left as is where weight is at or
    below trace_tol, which _zero_weight_error reports), the projection
    probability before truncation, and the weight cut by re-truncating
    combined indices beyond n_max.
    """
    d = x_i.shape[-1]
    b = len(x_i)
    windows, x_0 = source
    # where the run keeps rho_0's windows the iterate is multiplied into
    # them; where it keeps none, windowing either operand costs the same,
    # and the iterate is windowed, which keeps the summation order that
    # results at those cutoffs were recorded in
    y_i = _rescaled(x_i)
    part = _convolve(y_i, windows) if _source_window_floats(d) else _convolve(windows, y_i)
    kept = part.reshape(b, -1).take(_mash_tables(d)[1], axis=1).reshape(b, 2 * d - 1, d, d)
    u = _mash_weights(d)[1]
    kept *= u[:, :, None]
    kept *= u[:, None, :]
    v = _vacuum_weights(d)
    p_full = np.sum(x_0 * (v @ x_i[..., ::-1, :, :] @ v.transpose(0, 2, 1)), axis=(-3, -2, -1))
    weight = kept[:, cfg.n_max].sum(axis=(-2, -1))
    kept /= np.where(weight > cfg.trace_tol, weight, 1.0)[:, None, None, None]
    return kept, p_full, np.maximum(p_full - weight, 0.0), weight


def _zero_weight_error(weight):
    return ZeroTraceError(f"mash projection weight {weight:.3g} at or below trace_tol")


def _check_normalized(state):
    if abs(state.trace - 1.0) > 1e-9:
        raise ValueError(f"mash inputs must be normalized, got trace {state.trace}")


def mash_step(rho_i, rho_0):
    """One mashing round: interfere rho_i with a fresh copy of rho_0 on 50/50
    splitters (one per party), detect vacuum on one output of each splitter
    and keep the other two.

    Returns MashResult(state, prob, discarded_weight): the renormalized kept
    block, the projection probability before truncation, and the weight cut
    by re-truncating combined indices beyond n_max. Only the kept block is
    computed; prob comes from the closed-form trace of the untruncated output.
    """
    if rho_i.cfg != rho_0.cfg or rho_i.dim != rho_0.dim:
        raise ValueError("mash inputs must share dimension and truncation config")
    for s in (rho_i, rho_0):
        _check_normalized(s)
    cfg = rho_i.cfg
    source = _mash_source(rho_0.sector)
    kept, prob, discarded, weight = _mash_round(rho_i.sector[None], source, cfg)
    if weight[0] <= cfg.trace_tol:
        raise _zero_weight_error(weight[0])
    return MashResult(_wrap_fresh(kept[0], cfg), float(prob[0]), float(discarded[0]))
