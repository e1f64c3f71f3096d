"""Beam-splitter-mediated channels: memory loss and phonon counting.

Loss and phonon detection both come from coupling a mode to vacuum on a
splitter of transmissivity t; keeping q of the reflected quanta has amplitude
A(n, q) = sqrt(C(n, q)) t^(n-q) r^q on Fock level n. Summing q gives the loss
channel, fixing q gives the (unnormalized) measurement update.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import _integer, _pair_rows, _wrap_fresh


class LossChannelParams(NamedTuple("LossChannelParams", [("t", float)])):
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


class SubtractionParams(NamedTuple("SubtractionParams", [("t_s", float)])):
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
