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

from .core import TwoModeState, ZeroTraceError, state_from_coeffs


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
    # One-mode loss channel as a dim^2 x dim^2 matrix acting on (ket, bra) pairs.
    ks = loss_kraus(t, dim)
    s = np.zeros((dim * dim, dim * dim))
    for q in range(dim):
        s += np.kron(ks[q], ks[q])
    return s


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
def _detect_weights(q, t, dim):
    # w[n] = A(n + q, q): amplitude of output level n after a q-count
    w = np.array([bs_amplitude(n + q, q, t) for n in range(dim - q)])
    w.flags.writeable = False
    return w


def _detect_mode(c, q, t, mode):
    # K rho K† for the q-count operator K[n - q, n] = A(n, q) on one mode: a
    # shift by q of that mode's ket and bra indices, scaled by w[n] w[k].
    # Elementwise on purpose: a BLAS contraction here raises peak RSS by an
    # extra OpenBLAS thread buffer at large d.
    d = c.shape[0]
    w = _detect_weights(q, t, d)
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
    return state_from_coeffs(c, state.cfg)


def detect_one_mode(state, params, mode, q):
    """Counting outcome q on a single mode ('A' or 'B'), unnormalized."""
    if mode not in ("A", "B"):
        raise ValueError(f"mode must be 'A' or 'B', got {mode!r}")
    if int(q) != q or not 0 <= q <= state.n_max:
        raise ValueError(f"outcome q must be an integer in [0, n_max], got {q}")
    return state_from_coeffs(_detect_mode(state.coeffs, int(q), params.t_s, mode), state.cfg)


def fock_bs_element(n1, n2, m1, m2, t):
    """<m1, m2| B |n1, n2> for a splitter whose reflection into output 2
    carries the minus sign. Zero unless photon number is conserved."""
    if n1 + n2 != m1 + m2:
        return 0.0
    r = math.sqrt(max(0.0, 1.0 - t * t))
    sf = _sqrt_fact(max(n1 + n2, 1))
    total = 0.0
    for i in range(max(0, m1 - n2), min(n1, m1) + 1):
        j = m1 - i
        total += (
            math.comb(n1, i)
            * math.comb(n2, j)
            * t ** (i + n2 - j)
            * (-1.0) ** (n1 - i)
            * r ** (n1 - i + j)
        )
    return total * sf[m1] * sf[m2] / (sf[n1] * sf[n2])


@lru_cache(maxsize=None)
def _fock_bs_matrix(dim_in, dim_out, t):
    # Full two-mode splitter matrix W[(m1, m2), (n1, n2)], inputs < dim_in.
    w = np.zeros((dim_out * dim_out, dim_in * dim_in))
    for n1 in range(dim_in):
        for n2 in range(dim_in):
            for m1 in range(min(n1 + n2, dim_out - 1) + 1):
                m2 = n1 + n2 - m1
                if m2 >= dim_out:
                    continue
                w[m1 * dim_out + m2, n1 * dim_in + n2] = fock_bs_element(n1, n2, m1, m2, t)
    return w


class MashResult(NamedTuple):
    state: TwoModeState
    prob: float
    discarded_weight: float


def _convolve_pairs(s0, si, od):
    """Exact 4-index convolution out[a+e, b+f, c+g, d+h] += s0[abcd] si[efgh].

    Runs over the nonzero entries of each factor only; states produced by
    this protocol obey a photon-number-difference selection rule that keeps
    them dim^3-sparse, which this exploits without assuming it.
    """
    d = s0.shape[0]
    flat0 = s0.reshape(-1)
    flati = si.reshape(-1)
    nz0 = np.flatnonzero(flat0)
    nzi = np.flatnonzero(flati)
    out = np.zeros(od**4)
    if nz0.size == 0 or nzi.size == 0:
        return out.reshape(od, od, od, od)

    def rebase(flat_idx):
        i0, i1, i2, i3 = np.unravel_index(flat_idx, (d, d, d, d))
        return ((i0 * od + i1) * od + i2) * od + i3

    b0 = rebase(nz0)
    bi = rebase(nzi)
    v0 = flat0[nz0]
    vi = flati[nzi]
    chunk = max(1, 4_000_000 // bi.size)
    for s in range(0, b0.size, chunk):
        idx = (b0[s : s + chunk, None] + bi[None, :]).ravel()
        vals = (v0[s : s + chunk, None] * vi[None, :]).ravel()
        out += np.bincount(idx, weights=vals, minlength=out.size)
    return out.reshape(od, od, od, od)


def mash_step(rho_i, rho_0, projector="prose", _bs_sign=-1.0):
    """One mashing round: interfere rho_i with a fresh copy of rho_0 on 50/50
    splitters (one per party) and condition on vacuum.

    projector="prose" detects vacuum on one output of each splitter and keeps
    the other two (the production setting). projector="printed" detects
    vacuum on both outputs of party A's splitter and keeps party B's output
    pair unmeasured, for comparison.

    Returns MashResult(state, prob, discarded_weight): the renormalized kept
    block, the projection probability before truncation, and the weight cut
    by re-truncating combined indices beyond n_max.
    """
    if rho_i.cfg != rho_0.cfg or rho_i.dim != rho_0.dim:
        raise ValueError("mash inputs must share dimension and truncation config")
    for s in (rho_i, rho_0):
        if abs(s.trace - 1.0) > 1e-9:
            raise ValueError(f"mash inputs must be normalized, got trace {s.trace}")
    if projector not in ("prose", "printed"):
        raise ValueError(f"unknown projector {projector!r}")
    d = rho_i.dim
    od = 2 * (d - 1) + 1
    cfg = rho_i.cfg
    sf = _sqrt_fact(od - 1)

    if projector == "printed":
        # Photon conservation pins both of party A's splitter inputs to
        # vacuum; party B's pair then passes through its splitter unmeasured.
        t_pair = np.einsum("bd,fh->bfdh", rho_0.coeffs[0, :, 0, :], rho_i.coeffs[0, :, 0, :])
        w2 = _fock_bs_matrix(d, od, 1.0 / math.sqrt(2.0))
        mat = w2 @ t_pair.reshape(d * d, d * d) @ w2.T
        out = mat.reshape(od, od, od, od)
    else:
        # Vacuum on output 1 of each splitter leaves amplitudes that factor per
        # input index: (sign r)^x / sqrt(x!) on the rho_0 side, t^x / sqrt(x!)
        # on the rho_i side, and sqrt(N!) on each output index (t = r here).
        half = 1.0 / math.sqrt(2.0)
        x = np.arange(d)
        w_res = (_bs_sign * half) ** x / sf[:d]
        w_inp = half**x / sf[:d]
        s0 = rho_0.coeffs * np.einsum("a,b,c,d->abcd", w_res, w_res, w_res, w_res)
        si = rho_i.coeffs * np.einsum("a,b,c,d->abcd", w_inp, w_inp, w_inp, w_inp)
        out = _convolve_pairs(s0, si, od)
        for axis in range(4):
            shape = [1, 1, 1, 1]
            shape[axis] = od
            out = out * sf.reshape(shape)

    p_full = float(np.einsum("nmnm->", out))
    kept = out[:d, :d, :d, :d]
    kept_tr = float(np.einsum("nmnm->", kept))
    if kept_tr <= cfg.trace_tol:
        raise ZeroTraceError(f"mash projection weight {kept_tr:.3g} at or below trace_tol")
    discarded = max(p_full - kept_tr, 0.0)
    return MashResult(state_from_coeffs(kept / kept_tr, cfg), p_full, discarded)
