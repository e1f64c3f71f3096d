"""Mashing: successive 50/50 interference of the current state with a fresh
malted copy, conditioned on vacuum, iterated to a fixed point.

mash_step is one round on one pair of states, mash_iterate runs rounds to
the fixed point, and _mash_stack runs them on a stack of states at once
(the arm-B scan's branches; a single state, a stack of one, in _mash_one).
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    CONV_TOL,
    MAX_ITER,
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
from .negativity import _log_negativities, _trace_distances, log_negativity


@lru_cache(maxsize=None)
def _sqrt_fact(n_top):
    # sqrt(k!) for k = 0..n_top as a running product: k! overflows float64 from k = 171
    return np.concatenate(([1.0], np.cumprod(np.sqrt(np.arange(1.0, n_top + 1)))))


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


class DistillationOutcome(NamedTuple):
    rho_final: TwoModeState
    iterations: int
    mash_probs: list
    negativity_by_stage: list
    converged: bool
    max_discarded: float
    # last round's trace distance / 3: a close estimate (not a bound) of the
    # distance left to the fixed point; see mash_iterate
    tail: float


# Relative margin on CONV_TOL below which _mash_stack solves a branch's
# trace distance: rounding in the Frobenius bound and in the eigensolve is
# orders of magnitude smaller, so a branch it skips could not have
# converged.
_BOUND_MARGIN = 1e-9


def _mash_stack(x_0, max_iter, every_round):
    """Mash each normalized stored array of the stack x_0 (b, d, d, d)
    against fresh copies of itself until successive iterates are
    CONV_TOL-close in trace distance, for at most max_iter rounds (0 leaves
    each array as it is), as one stacked iteration: each round is one call
    per kernel for the branches still running, and a branch leaves the
    stack when it stops. The source side of the rounds (_mash_source) is
    built once, if any round runs, and its rows are taken as branches
    leave.

    Returns one entry per branch, in order: its DistillationOutcome, or the
    ZeroTraceError that stopped it, not raised. Each entry starts as the
    outcome of zero rounds; the rounds append to its lists, and it is
    finished once, when its branch converges, fails or reaches the round
    cap. The negativities solved are each round's with every_round, one per
    round and none for the input (its caller holds that value), else the
    last iterate's alone.
    """
    runs = [DistillationOutcome(_wrap_fresh(x), 0, [], [], False, 0.0, 0.0) for x in x_0]
    source = _mash_source(x_0) if max_iter else None
    # the live branches, their iterates and their worst discards so far
    live, cur, worst = list(range(len(x_0))), x_0, np.zeros(len(x_0))
    for r in range(max_iter):
        new, prob, discarded, weight = _mash_round(cur, source)
        worst = np.maximum(worst, discarded)
        # the last allowed round solves every branch, for its tail; before
        # it, a branch whose Frobenius bound exceeds CONV_TOL by more than
        # rounding cannot converge this round and is not solved
        last = r + 1 == max_iter
        below = math.inf if last else CONV_TOL * (1.0 + _BOUND_MARGIN)
        step = _trace_distances(new, cur, below)
        round_negs = _log_negativities(new) if every_round else None
        going = []
        rows = zip(live, weight.tolist(), prob.tolist(), step.tolist(), worst.tolist())
        for a, (i, w, p, dist, cut) in enumerate(rows):
            run = runs[i]
            if w <= TRACE_TOL:
                runs[i] = _zero_weight_error(w)
                continue
            run.mash_probs.append(p)
            if every_round:
                run.negativity_by_stage.append(round_negs[a].value)
            converged = dist < CONV_TOL
            if converged or last:
                runs[i] = run._replace(
                    rho_final=_wrap_fresh(new[a]),
                    iterations=r + 1,
                    converged=converged,
                    max_discarded=cut,
                    tail=dist / 3.0,
                )
            else:
                going.append(a)
        if not going:
            break
        if len(going) < len(live):
            source = tuple(part[going] for part in source)
            new, worst = new[going], worst[going]
        live, cur = [live[a] for a in going], new
    if not every_round:
        done = [run for run in runs if not isinstance(run, Exception)]
        if done:
            finals = np.stack([run.rho_final.sector for run in done])
            for run, res in zip(done, _log_negativities(finals)):
                run.negativity_by_stage.append(res.value)
    return runs


def _admit(max_iter, dim):
    """Every mashing run's entry check, as (max_iter, plan): max_iter must
    be an integer >= 0, and _plan(dim) refuses a cutoff mashing cannot run."""
    return _integer("max_iter", max_iter, 0), _plan(dim)


def _mash_one(x, max_iter, stages):
    """_mash_stack on one stored array x (d, d, d), every round solved,
    raising its failure; the caller's solved stages lead negativity_by_stage."""
    (run,) = _mash_stack(x[None], max_iter, every_round=True)
    if isinstance(run, Exception):
        raise run
    return run._replace(negativity_by_stage=[*stages, *run.negativity_by_stage])


def mash_iterate(rho_0, max_iter=MAX_ITER):
    """Iterate mashing rounds against fresh copies of rho_0 until successive
    iterates are within CONV_TOL in trace distance, for at most
    max_iter rounds. The outcome's tail, the last round's trace distance
    over 3, estimates the distance left to the fixed point: it is the rest
    of the series if the iterates close in by exactly 1/4 per round. They
    close in a little slower, and on malted states the distance left
    measured 1.00006-1.00018 times tail, so tail is a close estimate, not a
    bound. max_iter = 0 runs no round: the outcome holds rho_0 itself, with
    iterations 0, converged False and tail 0. negativity_by_stage is rho_0's
    value, solved here, then one solved per round."""
    max_iter, _ = _admit(max_iter, rho_0.dim)
    _check_normalized(rho_0)
    return _mash_one(rho_0.sector, max_iter, [log_negativity(rho_0).value])
