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

from .core import TwoModeState, ZeroTraceError, _wrap_fresh, state_from_coeffs


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
def _mode_superop(t, dim):
    # One-mode loss channel as a dim^2 x dim^2 matrix acting on (ket, bra)
    # pairs, sum_q K_q (x) K_q filled directly: each (output, input) pair
    # gets the one term q = n - n_out, sup[(n - q, k - q), (n, k)] = A(n, q) A(k, q).
    s = np.zeros((dim,) * 4)
    for q in range(dim):
        x = np.arange(dim - q)
        a = _kraus_weights(q, t, dim)
        s[x[:, None], x, x[:, None] + q, x + q] = np.outer(a, a)
    return s.reshape(dim * dim, dim * dim)


def _apply_mode_channel(c, sup, mode):
    d = c.shape[0]
    if mode == "A":
        x = c.transpose(0, 2, 1, 3).reshape(d * d, d * d)
        y = (sup @ x).reshape(d, d, d, d)
        return y.transpose(0, 2, 1, 3)
    x = c.transpose(1, 3, 0, 2).reshape(d * d, d * d)
    y = (sup @ x).reshape(d, d, d, d)
    return y.transpose(2, 0, 3, 1)


def loss_event(state, params):
    """One clock cycle of memory loss on both modes (trace preserving)."""
    sup = _mode_superop(params.t, state.dim)
    c = _apply_mode_channel(state.coeffs, sup, "A")
    c = _apply_mode_channel(c, sup, "B")
    return state_from_coeffs(c, state.cfg)


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


def _detect_mode(c, q, t, mode):
    # K rho K† for the q-count operator K[n - q, n] = A(n, q) on one mode: a
    # shift by q of that mode's ket and bra indices, scaled by w[n] w[k].
    # Elementwise on purpose: a BLAS contraction here raises peak RSS by an
    # extra OpenBLAS thread buffer at large d.
    d = c.shape[0]
    w = _kraus_weights(q, t, d)
    out = np.zeros_like(c)
    if mode == "A":
        kept, src = out[: d - q, :, : d - q, :], c[q:, :, q:, :]
        ket, bra = w[:, None, None, None], w[None, None, :, None]
    else:
        kept, src = out[:, : d - q, :, : d - q], c[:, q:, :, q:]
        ket, bra = w[None, :, None, None], w[None, None, None, :]
    np.multiply(src, ket, out=kept)
    kept *= bra
    return out


def detect_phonons(state, params, q_a, q_b):
    """Joint counting outcome (q_a, q_b) on the two modes, unnormalized.

    The trace of the returned state is the outcome probability.
    """
    for q in (q_a, q_b):
        if int(q) != q or not 0 <= q <= state.n_max:
            raise ValueError(f"outcome q must be an integer in [0, n_max], got {q}")
    c = _detect_mode(state.coeffs, int(q_a), params.t_s, "A")
    c = _detect_mode(c, int(q_b), params.t_s, "B")
    return _wrap_fresh(c, state.cfg)


def detect_one_mode(state, params, mode, q):
    """Counting outcome q on a single mode ('A' or 'B'), unnormalized."""
    if mode not in ("A", "B"):
        raise ValueError(f"mode must be 'A' or 'B', got {mode!r}")
    if int(q) != q or not 0 <= q <= state.n_max:
        raise ValueError(f"outcome q must be an integer in [0, n_max], got {q}")
    return _wrap_fresh(_detect_mode(state.coeffs, int(q), params.t_s, mode), state.cfg)


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


@lru_cache(maxsize=None)
def _fock_bs_matrix(dim_in, dim_out, t):
    # Full two-mode splitter matrix W[(m1, m2), (n1, n2)], inputs < dim_in.
    w = np.zeros((dim_out * dim_out, dim_in * dim_in))
    for total, b in enumerate(_bs_blocks(2 * (dim_in - 1), t)):
        for n1 in range(max(0, total - dim_in + 1), min(total, dim_in - 1) + 1):
            for m1 in range(max(0, total - dim_out + 1), min(total, dim_out - 1) + 1):
                w[m1 * dim_out + total - m1, n1 * dim_in + total - n1] = b[m1, n1]
    return w


class MashResult(NamedTuple):
    state: TwoModeState
    prob: float
    discarded_weight: float


# Sector coordinates. A coefficient p[n, m, k, l] has the sector label
# delta = (n - k) - (m - l); every protocol state lives in delta = 0. Within a
# sector l is implied, so a sector is a d^3 array indexed (n, m, k) with
# l = m - n + k + delta, and mashing adds labels: inputs from sectors d0 and
# di only feed output sector d0 + di. Index tables point one past the end of
# a flattened d^4 array, at an appended zero, where the implied l is not a
# level of the cutoff.


@lru_cache(maxsize=None)
def _sector_labels(dim):
    # delta of every coefficient; int16 keeps this table at a quarter of the
    # size of one state
    i = np.arange(dim, dtype=np.int16)
    labels = (i[:, None, None, None] - i[None, None, :, None]) - (
        i[None, :, None, None] - i[None, None, None, :]
    )
    labels.flags.writeable = False
    return labels


@lru_cache(maxsize=None)
def _sector_index(dim, delta):
    # flat position of p[n, m, k, m - n + k + delta], per (n, m, k)
    n, m, k = np.indices((dim,) * 3)
    l_ = m - n + k + delta
    idx = np.where((l_ >= 0) & (l_ < dim), ((n * dim + m) * dim + k) * dim + l_, dim**4)
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=None)
def _diagonal_index(dim, delta):
    # Flat position of p[n, m, k, l] per (j + dim - 1, p, q): mode A's pair
    # (n, k) is entry p of the diagonal n - k = j, mode B's pair (m, l) entry
    # q of the diagonal m - l = j - delta.
    j, p, q = np.indices((2 * dim - 1, dim, dim))
    j -= dim - 1
    n, k = p + np.maximum(j, 0), p + np.maximum(-j, 0)
    m, l_ = q + np.maximum(j - delta, 0), q + np.maximum(delta - j, 0)
    ok = (n < dim) & (k < dim) & (m < dim) & (l_ < dim)
    idx = np.where(ok, ((n * dim + m) * dim + k) * dim + l_, dim**4)
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=None)
def _vacuum_weights(dim, sign):
    # V[j + dim - 1, p, p'] = sign^|j| sqrt(C(N, p + |j|) C(N, p)) / 2^N with
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
    v = np.where(ok, sign**a * root[n, np.minimum(p + a, top)] * root[n, p], 0.0)
    v.flags.writeable = False
    return v


def _padded(c):
    # flattened copy of c with one zero appended, for the index tables above
    flat = np.zeros(c.size + 1)
    flat[:-1] = c.reshape(-1)
    return flat


def _sectors(c):
    """{delta: d^3 array} over the sectors holding a nonzero entry of c."""
    d = c.shape[0]
    flat = _padded(c)
    present = np.unique(_sector_labels(d)[c != 0])
    return {int(delta): flat[_sector_index(d, delta)] for delta in present}


def _truncated_convolution(x, y):
    """out[N, M, K] = sum x[n, m, k] y[N - n, M - m, K - k] over N, M, K < d.

    One matmul per first-axis shift e of y: the (M, K) part is a matrix of
    shifted copies of y[e], read as a sliding-window view.
    """
    d = x.shape[0]
    pad = np.zeros((d, 2 * d - 1, 2 * d - 1))
    pad[:, d - 1 :, d - 1 :] = y
    # windows[e, m, k, M, K] = y[e, M - m, K - k], zero where M < m or K < k
    windows = sliding_window_view(pad, (d, d), axis=(1, 2))[:, ::-1, ::-1]
    x2 = x.reshape(d, d * d)
    out = x2 @ windows[0].reshape(d * d, d * d)
    for e in range(1, d):
        out[e:] += x2[: d - e] @ windows[e].reshape(d * d, d * d)
    return out.reshape(d, d, d)


@lru_cache(maxsize=None)
def _mash_weights(dim, sign):
    # Pair products w[a] w[b] of the per-index factors of the prose projector
    # on the rho_0 side, the rho_i side and the output (see _mash_prose);
    # d x d each, so the cache stays small at any cutoff.
    sf = _sqrt_fact(dim - 1)
    half = 1.0 / math.sqrt(2.0)
    x = np.arange(dim)
    pairs = []
    for w in ((sign * half) ** x / sf, half**x / sf, sf):
        pair = np.outer(w, w)
        pair.flags.writeable = False
        pairs.append(pair)
    return tuple(pairs)


def _weighted(c, pair):
    # c[a, b, c, d] w[a] w[b] w[c] w[d] from the pair products w[a] w[b]
    return c * (pair[:, :, None, None] * pair)


def _prose_source(c_0, sign):
    """rho_0's side of the prose projector, the same in every round against
    fresh copies of one rho_0: its rescaled sectors and its padded flat
    array."""
    w_0 = _mash_weights(c_0.shape[0], sign)[0]
    return _sectors(_weighted(c_0, w_0)), _padded(c_0)


def _mash_prose(c_i, source, sign):
    """Kept block and untruncated trace of the prose projector's output,
    for rho_i against rho_0's _prose_source.

    Vacuum on output 1 of each splitter leaves amplitudes that factor per
    input index: (sign r)^x / sqrt(x!) on the rho_0 side, t^x / sqrt(x!) on
    the rho_i side, and sqrt(N!) on each output index (t = r here). The
    kept block is a truncated convolution of the rescaled inputs, sector by
    sector; the trace needs only output N = K, M = L, so only sectors d0 and
    -d0 meet there, weighted by _vacuum_weights.
    """
    d = c_i.shape[0]
    _, w_i, w_out = _mash_weights(d, sign)
    s0, flat_0 = source
    si = _sectors(_weighted(c_i, w_i))
    by_sector = {}
    for d_i, y in si.items():
        for d_0, x0 in s0.items():
            # outside |delta| <= 2(d - 1) every implied l leaves the cutoff
            if abs(d_0 + d_i) <= 2 * (d - 1):
                part = _truncated_convolution(x0, y)
                by_sector[d_0 + d_i] = by_sector.get(d_0 + d_i, 0.0) + part
    kept = np.zeros(d**4 + 1)
    for delta, part in by_sector.items():
        kept[_sector_index(d, delta)] = part  # dropped l land on the spare slot
    kept = _weighted(kept[:-1].reshape(d, d, d, d), w_out)

    flat_i = _padded(c_i)
    v = _vacuum_weights(d, sign)
    p_full = 0.0
    for delta in s0:
        if -delta not in si:
            continue
        a = flat_0[_diagonal_index(d, delta)]
        b = flat_i[_diagonal_index(d, -delta)][::-1]  # rho_i on diagonal -j, -(j - delta)
        # mode B's diagonal j - delta; where it leaves the cutoff a is all zero
        v_b = v[np.clip(np.arange(2 * d - 1) - delta, 0, 2 * d - 2)]
        p_full += float(np.sum(a * (v @ b @ v_b.transpose(0, 2, 1))))
    return kept, p_full


def _mash_printed(c_i, c_0):
    # Photon conservation pins both of party A's splitter inputs to vacuum;
    # party B's pair then passes through its splitter unmeasured. Only the
    # splitter rows whose two outputs are both below the cutoff are kept.
    d = c_i.shape[0]
    od = 2 * d - 1
    t_pair = np.einsum("bd,fh->bfdh", c_0[0, :, 0, :], c_i[0, :, 0, :]).reshape(d * d, d * d)
    w2 = _fock_bs_matrix(d, od, 1.0 / math.sqrt(2.0))
    p_full = float(np.sum((w2 @ t_pair) * w2))  # trace of w2 t_pair w2^T
    rows = w2.reshape(od, od, d * d)[:d, :d].reshape(d * d, d * d)
    return (rows @ t_pair @ rows.T).reshape(d, d, d, d), p_full


# sign of the reflection into output 2 in mash_step's splitters
_BS_SIGN = -1.0


def mash_step(rho_i, rho_0, projector="prose", _bs_sign=_BS_SIGN, _source=None):
    """One mashing round: interfere rho_i with a fresh copy of rho_0 on 50/50
    splitters (one per party) and condition on vacuum.

    projector="prose" detects vacuum on one output of each splitter and keeps
    the other two (the production setting). projector="printed" detects
    vacuum on both outputs of party A's splitter and keeps party B's output
    pair unmeasured, for comparison.

    Returns MashResult(state, prob, discarded_weight): the renormalized kept
    block, the projection probability before truncation, and the weight cut
    by re-truncating combined indices beyond n_max. Only the kept block is
    computed; prob comes from the closed-form trace of the untruncated output.
    A caller that mashes against one rho_0 many times may pass its
    _prose_source(rho_0.coeffs, _bs_sign) as _source.
    """
    if rho_i.cfg != rho_0.cfg or rho_i.dim != rho_0.dim:
        raise ValueError("mash inputs must share dimension and truncation config")
    for s in (rho_i, rho_0):
        if abs(s.trace - 1.0) > 1e-9:
            raise ValueError(f"mash inputs must be normalized, got trace {s.trace}")
    if projector not in ("prose", "printed"):
        raise ValueError(f"unknown projector {projector!r}")
    cfg = rho_i.cfg
    if projector == "printed":
        kept, p_full = _mash_printed(rho_i.coeffs, rho_0.coeffs)
    else:
        if _source is None:
            _source = _prose_source(rho_0.coeffs, _bs_sign)
        kept, p_full = _mash_prose(rho_i.coeffs, _source, _bs_sign)
    kept_tr = float(np.einsum("nmnm->", kept))
    if kept_tr <= cfg.trace_tol:
        raise ZeroTraceError(f"mash projection weight {kept_tr:.3g} at or below trace_tol")
    discarded = max(p_full - kept_tr, 0.0)
    return MashResult(_wrap_fresh(kept / kept_tr, cfg), p_full, discarded)
