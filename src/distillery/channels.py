"""Beam-splitter-mediated channels: memory loss, phonon counting, mashing.

Loss and phonon detection both come from coupling a mode to vacuum on a
splitter of transmissivity t; keeping q of the reflected quanta has amplitude
A(n, q) = sqrt(C(n, q)) t^(n-q) r^q on Fock level n. Summing q gives the loss
channel, fixing q gives the (unnormalized) measurement update.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    NORM_TOL,
    TRACE_TOL,
    TwoModeState,
    ZeroTraceError,
    _integer,
    _pair_rows,
    _sector_entries,
    _slot,
    _wrap_fresh,
)


@lru_cache(maxsize=None)
def _sqrt_fact(n_top):
    # sqrt(k!) for k = 0..n_top as a running product: k! overflows float64 from k = 171
    return np.concatenate(([1.0], np.cumprod(np.sqrt(np.arange(1.0, n_top + 1)))))


class _LossFields(NamedTuple):
    t: float


class LossChannelParams(_LossFields):
    """Memory transmissivity per clock cycle, t in (0, 1]."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.t <= 1.0:
            raise ValueError(f"transmissivity t must lie in (0, 1], got {self.t}")
        return self

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


class _SubtractionFields(NamedTuple):
    t_s: float


class SubtractionParams(_SubtractionFields):
    """Transmissivity of the weakly reflecting subtraction splitter."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.t_s < 1.0:
            raise ValueError(f"t_s must lie in (0, 1), got {self.t_s}")
        return self


def bs_amplitude(n, q, t):
    """Amplitude for removing exactly q of n quanta at transmissivity t."""
    if not 0 <= q <= n:
        raise ValueError(f"need 0 <= q <= n, got q={q}, n={n}")
    return _amplitude(math.comb(n, q), n - q, q, t)


def _amplitude(c, kept, q, t):
    # sqrt(c) t^kept r^q for the exact binomial c = C(kept + q, q)
    r = math.sqrt(max(0.0, 1.0 - t * t))
    try:
        return math.sqrt(c) * t**kept * r**q
    except OverflowError:
        # c beyond float64, so kept, q > 0: the amplitude (<= 1) from its log
        if t == 0.0 or r == 0.0:
            return 0.0
        log_a = 0.5 * math.log(c) + kept * math.log(abs(t)) + q * math.log(r)
        return math.copysign(1.0, t) ** kept * math.exp(log_a)


def loss_kraus(t, dim):
    """Kraus operators of the single-mode loss channel, indexed by quanta lost.

    Returns an array K[q, out, in] with K[q, n-q, n] = A(n, q).
    """
    ks = np.zeros((dim, dim, dim))
    for q in range(dim):
        a = np.arange(dim - q)
        ks[q, a, a + q] = _kraus_weights(q, t, dim)
    return ks


# Loss multiplies the diagonals at their own lengths, in buckets: the
# diagonals j0 <= j < j1 at side s = d - j0, where a bucket takes those
# longer than s/2. At a side of 16 or less a product costs mostly its call,
# so the rest is one bucket, and up to d = 16 loss is one batched product
# (with one BLAS thread, stopping at sides 8 to 32 timed alike at d = 20-64).
_ONE_BUCKET_SIDE = 16


@lru_cache(maxsize=None)
def _loss_buckets(dim):
    # per bucket, the index (j0:j1, :s, :s) of its block of the stored
    # layout; the buckets cover j = 0 ... dim - 1 once
    buckets, j0 = [], 0
    while j0 < dim:
        s = dim - j0
        j1 = dim if s <= _ONE_BUCKET_SIDE else j0 + (s + 1) // 2
        buckets.append((slice(j0, j1), slice(s), slice(s)))
        j0 = j1
    return tuple(buckets)


# Caches keyed by a transmissivity are bounded: a run reads one loss t
# (_loss_maps keeps 2) and counts q = 0 and 1 per t_s (_count_rows keeps 4).
@lru_cache(maxsize=2)
def _loss_maps(t, dim):
    # (index, L) per bucket of _loss_buckets, L[j] for its diagonals j at its
    # side: the one-mode loss channel on coherence diagonal j in the stored
    # layout. sum_q K_q |n><k| K_q† moves entry p of the diagonal to p - q
    # with weight A(n, q) A(k, q), so L[j][p - q, p] is entry p - q of row j
    # of the q-count weights (_count_rows, built uncached here so that only
    # the maps stay in memory).
    buckets = _loss_buckets(dim)
    maps = [np.zeros((j.stop - j.start, s.stop, s.stop)) for j, s, _ in buckets]
    for q in range(dim):
        u = _pair_rows(_kraus_weights(q, t, dim), dim)
        for (j, s, _), m in zip(buckets, maps):
            x = np.arange(max(0, s.stop - q))
            m[:, x, x + q] = u[j, : len(x)]
    for m in maps:
        m.flags.writeable = False
    return tuple(zip(buckets, maps))


def loss_event(state, params):
    """One clock cycle of memory loss on both modes (trace preserving): on
    every diagonal j, X_j <- L_j X_j L_j^T, mode A on the left, B on the
    right, as one batched product per bucket of diagonals."""
    x = state.sector
    out = np.zeros(x.shape)
    for b, m in _loss_maps(params.t, state.dim):
        np.matmul(m @ x[b], m.transpose(0, 2, 1), out=out[b])
    return _wrap_fresh(out)


def repeated_loss(state, params, m):
    """m consecutive loss events."""
    for _ in range(_integer("m", m, 0)):
        state = loss_event(state, params)
    return state


def _kraus_weights(q, t, dim):
    # w[n] = A(n + q, q) = K_q[n, n + q]: amplitude of output level n after
    # q quanta are removed (lost or counted): bs_amplitude's value, with
    # C(n + q, q) a running exact integer instead of a math.comb per entry
    w, c = np.empty(dim - q), 1
    for n in range(dim - q):
        w[n] = _amplitude(c, n, q, t)
        c = c * (n + q + 1) // (n + 1)
    return w


@lru_cache(maxsize=4)
def _count_rows(q, t, dim):
    # u[j, p] = A(n + q, q) A(k + q, q) for output pair (n, k) = entry p of
    # diagonal j: the weight K_q |n + q><k + q| K_q† puts on it
    u = _pair_rows(_kraus_weights(q, t, dim), dim)[:, : dim - q]
    u.flags.writeable = False
    return u


def _count(x, q_a, q_b, t):
    # K rho K† for the count operators K[n - q, n] = A(n, q) on the arms whose
    # q is not None (at least one): a shift by q_a along axis 1 (mode A) and
    # q_b along axis 2 (mode B) of the stored layout, each scaled by its
    # per-diagonal weight rows, A first, into one fresh array. Elementwise on
    # purpose: no BLAS call and no other temporary of the state's size.
    d = x.shape[1]
    out = np.zeros(x.shape)
    kept = out[:, : d - (q_a or 0), : d - (q_b or 0)]
    src = x[:, q_a or 0 :, q_b or 0 :]
    for q, axis in ((q_a, 2), (q_b, 1)):
        if q is not None:
            np.multiply(src, np.expand_dims(_count_rows(q, t, d), axis), out=kept)
            src = kept
    return out


def detect_phonons(state, params, q_a, q_b):
    """Joint counting outcome (q_a, q_b) on the two modes, unnormalized.

    The trace of the returned state is the outcome probability.
    """
    q_a, q_b = (_integer("outcome q", q, 0, state.n_max) for q in (q_a, q_b))
    return _wrap_fresh(_count(state.sector, q_a, q_b, params.t_s))


def detect_one_mode(state, params, mode, q):
    """Counting outcome q on a single mode ('A' or 'B'), unnormalized."""
    if mode not in ("A", "B"):
        raise ValueError(f"mode must be 'A' or 'B', got {mode!r}")
    q = _integer("outcome q", q, 0, state.n_max)
    qs = (q, None) if mode == "A" else (None, q)
    return _wrap_fresh(_count(state.sector, *qs, params.t_s))


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
    # gather[n, m, k]: slot of p[n, m, k, m - n + k] in the stored layout;
    # where that l leaves the cutoff, the last slot, which is padding
    # (diagonal d - 1 has one entry) and so zero. scatter: for every slot of
    # the stored layout, the flat (n, m, k) position of the entry with n >= k
    # that it holds, so that one take fills the whole layout (padding reads
    # entry 0, and the output weights, zero there, clear it)
    n, m, k = np.ogrid[:dim, :dim, :dim]
    l_ = m - n + k
    gather = np.where((l_ >= 0) & (l_ < dim), _slot(dim, n, m, k, l_), dim**3 - 1)
    slot, dense = _sector_entries(dim)
    scatter = np.zeros(dim**3, dtype=np.intp)
    scatter[slot] = dense // dim  # drops l from ((n d + m) d + k) d + l
    for arr in (gather, scatter):
        arr.flags.writeable = False
    return gather, scatter


@lru_cache(maxsize=None)
def _vacuum_weights(dim):
    # V[j, p, p'] = sqrt(C(N, p + j) C(N, p)) / 2^N with N = p + p' + j:
    # the weight with which rho_0's pair (n, k) (entry p of diagonal
    # j = |n - k|) meets rho_i's pair (N - n, N - k) (entry p' of the same
    # diagonal) in the vacuum-conditioned output N of one 50/50 splitter.
    # Each factor sqrt(C(N, x) / 2^N) is an exact integer ratio, rounded
    # once: at most 1, so nothing overflows at any cutoff.
    top = 2 * (dim - 1)
    root = np.zeros((top + 1, top + 1))
    for n in range(top + 1):
        for x in range(n + 1):
            root[n, x] = math.sqrt(math.comb(n, x) / 2**n)
    j, p, p2 = np.indices((dim, dim, dim))
    n = np.minimum(p + p2 + j, top)
    ok = (p + j < dim) & (p2 + j < dim)
    v = np.where(ok, root[n, np.minimum(p + j, top)] * root[n, p], 0.0)
    v.flags.writeable = False
    return v


# A mashing run convolves every round against the same operand, its
# rescaled rho_0 (_mash_source). Where one branch's expansion of it
# (_source_operand, d^4 floats at one K block) and one round's expansion of
# the iterate fit _EXPANSION_BUDGET_FLOATS (1 MiB), so up to d = 16, the run
# keeps the source expansion, and each round is one copy and matmuls. Past
# that, each round builds one shift of it at a time into a reused buffer.
# The arm-B scan mashes its branches in chunks whose kept expansions fit the
# same budget (_Plan.width).
_EXPANSION_BUDGET_FLOATS = 2**17


class _Plan(NamedTuple):
    """The mashing kernel's geometry at one cutoff (see _plan)."""

    m_side: int  # s_M, side of the M blocks of _truncated_convolution
    k_side: int  # s_K, side of its K blocks
    # f0 per M block A: the iterate expansion of block A is zero for
    # f < f0 = d - (A + 1) s_M, so it starts there
    m_starts: tuple
    kept: int  # float64 per branch that a mashing run keeps, 0 = none
    width: int  # branches per chunk of the arm-B scan


@lru_cache(maxsize=None)
def _plan(dim):
    if dim - 1 > _MASH_MAX_N_MAX:
        raise ValueError(
            f"mashing needs n_max <= {_MASH_MAX_N_MAX}; at n_max={dim - 1} the "
            "untilted projector weights ((n_max)!)^2 overflow float64, and mashing "
            f"past n_max={_MASH_MAX_N_MAX} has not been checked"
        )
    # Narrow M blocks skip more of the zero triangle but make more, smaller
    # matmuls; measured with one BLAS thread, the fastest M blocks held one
    # block of the iterate expansion (about s_M d^3 floats) within 2^15
    # floats and were at least 2 wide: one block up to d = 13, 2 at
    # d = 14-16, 5 at d = 19 and ceil(d / 2) from d = 23 on. Splitting K
    # narrows every product's output, which paid only with blocks at least
    # 15 wide. The sides are those rules' block counts evened out over d. A
    # run keeps the source expansion and one round's iterate expansion
    # where they fit _EXPANSION_BUDGET_FLOATS, and a scan chunk is as many
    # branches as fit it, else one.
    s_m = -(-dim // -(-dim // min(dim, max(2, 2**15 // dim**3))))
    s_k = -(-dim // max(1, dim // 15))
    starts = tuple(max(0, dim - (a + 1) * s_m) for a in range(-(-dim // s_m)))
    k_cols = -(-dim // s_k) * s_k
    kept = dim * k_cols * (dim * dim + s_m * sum(dim - f0 for f0 in starts))
    if kept > _EXPANSION_BUDGET_FLOATS:
        return _Plan(s_m, s_k, starts, 0, 1)
    return _Plan(s_m, s_k, starts, kept, _EXPANSION_BUDGET_FLOATS // kept)


def _expand_iterate(x):
    # [X_A per M block A], X_A[b, n, m, C, f - f0_A, g] =
    # x[b, n, A s_M + m + f - (d - 1), C s_K + g] for f >= f0_A, zero where
    # that index is negative or past d - 1: x expanded along M, in blocks of
    # side s_M of M and s_K of K (_plan), each copied from a strided view of
    # one zero-padded copy pad[b, n, M + f, g]
    b, d = len(x), x.shape[-1]
    plan = _plan(d)
    s_m, s_k = plan.m_side, plan.k_side
    b_k = -(-d // s_k)
    pad = np.zeros((b, d, len(plan.m_starts) * s_m + d - 1, b_k * s_k))
    pad[:, :, d - 1 : 2 * d - 1, :d] = x
    step_b, step_n, step_m, item = pad.strides
    return [
        np.ascontiguousarray(
            np.ndarray(
                (b, d, s_m, b_k, d - f0, s_k),
                buffer=pad,
                offset=(a * s_m + f0) * step_m,
                strides=(step_b, step_n, step_m, s_k * item, step_m, item),
            )
        )
        for a, f0 in enumerate(plan.m_starts)
    ]


def _source_operand(y):
    """The operand y (b, d, d, d) of _truncated_convolution in the form it
    reads: y expanded along K, (b, d, B_K, d, s_K, d), indexed
    [b, e, C, f, g, K] = y[b, e, d - 1 - f, K - C s_K - g] (zero where
    that index is negative). Where the plan keeps it, it is copied out;
    else it is a view of one zero-padded copy of y, 2 d^3 floats per branch,
    from which the kernel copies one shift at a time."""
    b, d = len(y), y.shape[-1]
    plan = _plan(d)
    s_k = plan.k_side
    b_k = -(-d // s_k)
    pad = np.zeros((b, d, d, b_k * s_k + d - 1))
    pad[..., b_k * s_k - 1 :] = y
    view = sliding_window_view(pad, d, axis=-1)[:, :, ::-1, ::-1, :]
    view = np.moveaxis(view.reshape(b, d, d, b_k, s_k, d), 3, 2)
    return np.ascontiguousarray(view) if plan.kept else view


def _truncated_convolution(x, source):
    """out[b, N, M, K] = sum x[b, n, m, k] y[b, N - n, M - m, K - k] over
    N, M, K < d, for a stack x (b, d, d, d) and source = _source_operand(y)
    of a stack y of the same length.

    Split axes: x is expanded along M, X[n, M, f, g] = x[n, M + f - (d-1), g],
    and y along K, T_e[f, g, K] = y[e, d-1-f, K - g], so the shift e of the
    first axis is one matmul, out[e:] += X[:d-e] @ T_e, rows (n, M) against
    columns (f, g). Each operand holds d^4 floats per array, where a window
    matrix over both axes holds d^5. X is zero where f < d-1-M and T_e where
    g > K. With M split into blocks of side s_M and K (and g) into blocks of
    side s_K (_plan), zero-padded, each shift makes one matmul per pair of
    an M block A and a K block C, of contiguous slices: the rows of block
    A, the f from d - (A+1) s_M on (the rest of those rows is zero) with
    the g of block C, and the outputs K from C s_K on (below that T_e is
    zero). T_e is read from `source` where that holds the expansion, else
    copied from it into one reused buffer.
    """
    b, d = len(x), x.shape[-1]
    plan = _plan(d)
    s_m, s_k = plan.m_side, plan.k_side
    blocks = _expand_iterate(x)  # its padded copy is freed before the buffers below
    shifts = source
    if not plan.kept:
        # one buffer for every shift, so that one shift's copy is live at a
        # time; shifts[:, 0] is the current one
        shifts = np.empty((b, 1, *source.shape[2:]))
    ob = np.zeros((b, len(plan.m_starts), d, s_m, d))
    products = []
    for a, (xa, f0) in enumerate(zip(blocks, plan.m_starts)):
        for c, k0 in enumerate(range(0, d, s_k)):
            rows = xa[:, :, :, c].reshape(b, d * s_m, -1)
            t = shifts[:, :, c, f0:, :, k0:]
            t = t.reshape(*t.shape[:2], -1, d - k0)
            acc = ob[:, a, :, :, k0:].reshape(b, d * s_m, d - k0)
            products.append((rows, t, acc))
    for e in range(d):
        now = e
        if not plan.kept:
            shifts[:, 0] = source[:, e]
            now = 0
        r = (d - e) * s_m
        for rows, t, acc in products:
            acc[:, e * s_m :, :] += rows[:, :r, :] @ t[:, now]
    out = ob.transpose(0, 2, 1, 3, 4).reshape(b, d, -1, d)
    return out[:, :, :d, :]


# Mashing runs at n_max <= 98 only (_plan). Untilted, the projector's
# largest output weight is ((d - 1)!)^2, which is inf in float64 from
# d = 100. The tilted tables of _mash_weights stay finite and normal past
# that (the input table first holds subnormals at d = 116, the output table
# first overflows at d = 140), but mashing there, its accuracy and its time,
# has not been checked.
_MASH_MAX_N_MAX = 98


@lru_cache(maxsize=None)
def _mash_weights(dim):
    # The per-index factors of the projector (see _mash_round) on both
    # inputs and on the output, as whole weight tables per slot of the
    # stored layout, tilted: each input index x carries an extra 2^x and
    # each output index 2^-x. Scaling a variable of the generating function
    # commutes with the truncated product, so the output is unchanged, and
    # a power of two scales a float64 exactly within the normal range: every
    # product and sum that was normal keeps its bits, and the high-degree
    # operands (below 1e-154 at d = 78 untilted) stay out of subnormal
    # arithmetic, which is far slower.
    sf = _sqrt_fact(dim - 1)
    x = np.arange(dim)
    tables = []
    for w in (np.ldexp((1.0 / math.sqrt(2.0)) ** x / sf, x), np.ldexp(sf, -x)):
        u = _pair_rows(w, dim)
        table = u[:, :, None] * u[:, None, :]
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def _rescaled(x):
    # the projector's input side of a stack of stored arrays (b, d, d, d):
    # each entry times 2^(-(n+m+k+l)/2) / sqrt(n! m! k! l!), tilted by
    # 2^(n+m+k+l) (see _mash_weights), read as (n, m, k) arrays
    d = x.shape[-1]
    return (x * _mash_weights(d)[0]).reshape(len(x), -1).take(_mash_tables(d)[0], axis=1)


def _mash_source(x_0):
    """rho_0's side of the projector, the same in every round against
    fresh copies of one rho_0: for a stack x_0 (b, d, d, d), the
    _source_operand of its _rescaled arrays, and the operators z of the
    untruncated probability (see _mash_round), whose rows a caller takes as
    branches leave. The plan refuses a cutoff mashing cannot run before
    any table is built."""
    d = x_0.shape[-1]
    _plan(d)
    v = _vacuum_weights(d)
    z = v.transpose(0, 2, 1) @ x_0 @ v
    z[:, 1:] *= 2.0  # diagonal j > 0 stands for j and -j
    return _source_operand(_rescaled(x_0)), z


def _mash_round(x_i, source):
    """One mashing round on a stack of stored arrays x_i (b, d, d, d),
    each against its rho_0 in `source`, the _mash_source of a stack of b
    rho_0 arrays.

    Vacuum on output 1 of each splitter leaves amplitudes that factor per
    index: r^x / sqrt(x!) on the rho_0 side, t^x / sqrt(x!) on the rho_i
    side, and sqrt(N!) on each output index (t = r here). The kept block is
    a truncated convolution of the rescaled inputs in (n, m, k) coordinates,
    of which the entries with n >= k are kept; the untruncated trace needs
    only output N = K, M = L, where rho_0's diagonal j meets rho_i's
    diagonal -j, weighted by V = _vacuum_weights, and diagonal -j mirrors
    j: sum_j c_j <x_0[j], V_j x_i[j] V_j^T> over j >= 0 with c_0 = 1 and
    c_j = 2 beyond, which is the product-sum of x_i with
    z[j] = c_j V_j^T x_0[j] V_j, kept in the source for the whole run. The
    reflection sign would enter as (-1)^(n+m+k+l), which is 1 on the sector
    n - k = m - l, so the kernel carries none.

    Returns (kept, prob, discarded, weight) per array: the kept block
    renormalized by its trace `weight` (left as is where weight is at or
    below TRACE_TOL, which _zero_weight_error reports), the projection
    probability before truncation, and the weight cut by re-truncating
    combined indices beyond n_max.
    """
    d = x_i.shape[-1]
    b = len(x_i)
    operand, z = source
    part = _truncated_convolution(_rescaled(x_i), operand)
    kept = part.reshape(b, -1).take(_mash_tables(d)[1], axis=1).reshape(b, d, d, d)
    kept *= _mash_weights(d)[1]
    p_full = (z * x_i).reshape(b, -1).sum(axis=-1)
    weight = kept[:, 0].sum(axis=(-2, -1))
    kept /= np.where(weight > TRACE_TOL, weight, 1.0)[:, None, None, None]
    return kept, p_full, np.maximum(p_full - weight, 0.0), weight


def _zero_weight_error(weight):
    return ZeroTraceError(f"mash projection weight {weight:.3g} at or below trace_tol")


def _check_normalized(state):
    if abs(state.trace - 1.0) > NORM_TOL:
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
    if rho_i.dim != rho_0.dim:
        raise ValueError("mash inputs must share dimension")
    for s in (rho_i, rho_0):
        _check_normalized(s)
    source = _mash_source(rho_0.sector[None])
    kept, prob, discarded, weight = _mash_round(rho_i.sector[None], source)
    if weight[0] <= TRACE_TOL:
        raise _zero_weight_error(weight[0])
    return MashResult(_wrap_fresh(kept[0]), float(prob[0]), float(discarded[0]))
