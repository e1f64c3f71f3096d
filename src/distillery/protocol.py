"""The distillation protocol: malting, mashing, and its figures of merit.

Malting: each memory clock cycle applies one loss event to both modes, then a
subtraction attempt on every arm that has not yet counted a phonon (forced
vacuum outcome before an arm's success cycle, a single count at it). An arm
that has succeeded keeps decohering but is no longer measured.

Mashing: successive 50/50 interference of the current state with a fresh
malted copy, conditioned on vacuum, iterated to a fixed point.
"""

import math
from typing import NamedTuple

import numpy as np

from .channels import (
    LossChannelParams,
    SubtractionParams,
    _check_normalized,
    _kraus_weights,
    _mash_round,
    _mash_source,
    _plan,
    _zero_weight_error,
    detect_one_mode,
    loss_event,
)
from .core import (
    TwoModeState,
    ZeroTraceError,
    _tmss_amplitudes,
    _wrap_fresh,
    normalize,
    tmss,
)
from .negativity import _log_negativities, _trace_distances, log_negativity


class NoConvergenceError(RuntimeError):
    """Raised when a fixed-point iteration exhausts max_iter where the
    caller needs a converged value."""


class _ScheduleFields(NamedTuple):
    m_a: int
    m_b: int
    loss: LossChannelParams
    sub: SubtractionParams


class MaltingSchedule(_ScheduleFields):
    """Success cycles for the two arms plus the channel settings."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, m in (("m_a", self.m_a), ("m_b", self.m_b)):
            if int(m) != m or m < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {m}")
        return self


class MaltingRecord(NamedTuple):
    state: TwoModeState
    joint_prob: float
    negativity_trace: list  # (clock-cycle, negativity) pairs, cycle 0 = input state
    cycle_probs: list = ()  # detection weight per cycle


class DistillationOutcome(NamedTuple):
    rho_final: TwoModeState
    iterations: int
    mash_probs: list
    negativity_by_stage: list
    converged: bool
    max_discarded: float = 0.0
    # last round's trace distance / 3: a close estimate (not a bound) of the
    # distance left to the fixed point; see mash_iterate
    tail: float = 0.0


class CriticalCount(NamedTuple):
    m_c: int
    baseline_negativity: float
    mash_rounds: int = 0  # mashing rounds run over the whole scan
    max_discarded: float = 0.0  # worst truncation discard of any of them
    max_tail: float = 0.0  # worst tail of the scan's mashing runs
    mashed_branches: int = 0  # branches mashed, counted or not (see average_entanglement)


class AvgEntanglement(NamedTuple):
    value: float
    terms: list  # (j, success probability, final negativity) per retained j
    mash_rounds: int = 0  # mashing rounds run over the whole scan
    max_discarded: float = 0.0  # worst truncation discard of any of them
    max_tail: float = 0.0  # worst tail of the scan's mashing runs
    mashed_branches: int = 0  # branches mashed, counted or not (see average_entanglement)


def baseline_negativity(lam):
    """Log-negativity of the undistilled two-mode squeezed resource,
    log2((1 + lam) / (1 - lam)): the value a distilled state must beat."""
    return math.log2((1.0 + lam) / (1.0 - lam))


def _count_step(state, sub, outcomes, cycle):
    """The counting half of one clock cycle, on a state that has had the
    cycle's loss event: count outcome q on each arm whose entry in
    outcomes = (q_A, q_B) is not None, A first.

    Returns (normalized state, probability of this cycle's outcomes).
    """
    for mode, q in zip("AB", outcomes):
        if q is None:
            continue  # this arm already counted its phonon; loss only
        state = detect_one_mode(state, sub, mode, q)
        if state.trace <= state.cfg.trace_tol:
            raise ZeroTraceError(
                f"outcome q={q} on arm {mode} at cycle {cycle} has vanishing probability"
            )
    return normalize(state)


def _arm_outcome(cycle, m_arm):
    # vacuum before the arm's success cycle, one count at it, None after
    if cycle > m_arm:
        return None
    return 1 if cycle == m_arm else 0


def malt(lam, schedule, cfg):
    """Run one malting trajectory; the returned state is normalized and
    joint_prob is the probability of the whole outcome sequence."""
    state = tmss(lam, cfg)
    trace = [(0, log_negativity(state).value)]
    cycle_probs = []
    joint = 1.0
    for cycle in range(1, max(schedule.m_a, schedule.m_b) + 1):
        outcomes = (_arm_outcome(cycle, schedule.m_a), _arm_outcome(cycle, schedule.m_b))
        # rebind `state` so the previous cycle's state is freed before the
        # counts: at large d every extra live state raises peak memory
        state = loss_event(state, schedule.loss)
        state, p_cycle = _count_step(state, schedule.sub, outcomes, cycle)
        joint *= p_cycle
        cycle_probs.append(p_cycle)
        trace.append((cycle, log_negativity(state).value))
    return MaltingRecord(state, joint, trace, cycle_probs)


def _arm_b_branches(lam, loss, sub, cfg, j_last):
    """The malting trajectories of the arm-B scan: arm A counts at cycle 1,
    arm B at cycle j = 1..j_last. Yields (j, joint probability, normalized
    malted state). Each probability is the product of the cycle
    probabilities in cycle order, as in malt. The branches share arm B's
    vacuum streak and its loss events, and the walk is lazy, so a caller
    may stop early.
    """
    lossy = loss_event(tmss(lam, cfg), loss)
    malted, p = _count_step(lossy, sub, (1, 1), 1)
    yield 1, p, malted
    # arm A counts at cycle 1 and only decays after it
    running, p_run = _count_step(lossy, sub, (1, 0), 1)
    for j in range(2, j_last + 1):
        decayed = loss_event(running, loss)
        malted, p = _count_step(decayed, sub, (None, 1), j)
        yield j, p_run * p, malted
        if j < j_last:
            running, p = _count_step(decayed, sub, (None, 0), j)
            p_run *= p


def subtraction_probability_matrix(lam, loss, sub, cfg, i_max, j_max):
    """P[i-1, j-1] = probability that arm A succeeds at cycle i and arm B at
    cycle j.

    Loss and counting act on each mode alone and are phase covariant, so an
    outcome's probability reads only the photon-number populations, which
    each one-mode Kraus operator K_q moves from n to n - q with weight
    A(n, q)^2. The squeezed state holds n phonons in both modes with weight
    w[n], and an arm's loss after its success preserves the trace, so
    P[i-1, j-1] = sum_n w[n] f_i[n] f_j[n], where f_c[n] is the probability
    that one mode holding n phonons first counts a single phonon at cycle c.
    """
    if i_max < 1 or j_max < 1:
        raise ValueError("i_max and j_max must be >= 1")
    d = cfg.dim
    w = _tmss_amplitudes(lam, cfg) ** 2
    lost = np.zeros((d, d))  # lost[a, n]: n phonons become a
    for q in range(d):
        a = np.arange(d - q)
        lost[a, a + q] = _kraus_weights(q, loss.t, d) ** 2
    vac = _kraus_weights(0, sub.t_s, d) ** 2  # vac[a]: a phonons, none counted
    single = np.append(0.0, _kraus_weights(1, sub.t_s, d) ** 2)  # one counted
    f = np.empty((max(i_max, j_max), d))
    f[0] = lost.T @ single
    for c in range(1, len(f)):
        f[c] = lost.T @ (vac * f[c - 1])
    return (f[:i_max] * w) @ f[:j_max].T


# Relative margin on conv_tol below which _mash_stack solves a branch's
# trace distance: rounding in the Frobenius bound and in the eigensolve is
# orders of magnitude smaller, so a branch it skips could not have
# converged.
_BOUND_MARGIN = 1e-9


def _mash_stack(x_0, cfg, max_iter, every_round):
    """Mash each normalized stored array of the stack x_0 (b, d, d, d)
    against fresh copies of itself until successive iterates are
    conv_tol-close in trace distance, for at most max_iter rounds (0 leaves
    each array as it is), as one stacked iteration: each round is one call
    per kernel for the branches still running, and a branch leaves the
    stack when it stops. The source side of the rounds (_mash_source) is
    built once, if any round runs, and its rows are taken as branches
    leave.

    Returns one entry per branch, in order: its DistillationOutcome, or the
    ZeroTraceError that stopped it, not raised. The
    negativities are the input's and each round's with every_round, else
    the last iterate's alone.
    """
    b = len(x_0)
    source = _mash_source(x_0) if max_iter else None
    final = list(x_0)
    probs = [[] for _ in range(b)]
    negs = [[] for _ in range(b)]
    if every_round:
        for neg, res in zip(negs, _log_negativities(x_0, cfg.eig_tol)):
            neg.append(res.value)
    cut, dist, error, converged = [0.0] * b, [0.0] * b, [None] * b, [False] * b
    live, cur = list(range(b)), x_0
    for r in range(max_iter):
        new, prob, discarded, weight = _mash_round(cur, source, cfg)
        # the last allowed round solves every branch, for its tail; before
        # it, a branch whose Frobenius bound exceeds conv_tol by more than
        # rounding cannot converge this round and is not solved
        below = cfg.conv_tol * (1.0 + _BOUND_MARGIN) if r + 1 < max_iter else math.inf
        step = _trace_distances(new, cur, below)
        round_negs = _log_negativities(new, cfg.eig_tol) if every_round else None
        going = []
        rows = zip(live, weight.tolist(), prob.tolist(), discarded.tolist())
        for a, (i, w, p, c) in enumerate(rows):
            if w <= cfg.trace_tol:
                error[i] = _zero_weight_error(w)
                continue
            probs[i].append(p)
            cut[i] = max(cut[i], c)
            if every_round:
                negs[i].append(round_negs[a].value)
            final[i], dist[i] = new[a], float(step[a])
            if dist[i] < cfg.conv_tol:
                converged[i] = True
            else:
                going.append(a)
        if not going:
            break
        if len(going) < len(live):
            source = tuple(part[going] for part in source)
            new = new[going]
        live, cur = [live[a] for a in going], new
    if not every_round:
        done = [i for i in range(b) if error[i] is None]
        if done:
            finals = np.stack([final[i] for i in done])
            for i, res in zip(done, _log_negativities(finals, cfg.eig_tol)):
                negs[i].append(res.value)
    return [
        error[i]
        or DistillationOutcome(
            _wrap_fresh(final[i], cfg),
            len(probs[i]),
            probs[i],
            negs[i],
            converged[i],
            cut[i],
            dist[i] / 3.0,
        )
        for i in range(b)
    ]


def mash_iterate(rho_0, max_iter=50):
    """Iterate mashing rounds against fresh copies of rho_0 until successive
    iterates are within rho_0's conv_tol in trace distance, for at most
    max_iter rounds. The outcome's tail, the last round's trace distance
    over 3, estimates the distance left to the fixed point: it is the rest
    of the series if the iterates close in by exactly 1/4 per round. They
    close in a little slower, and on malted states the distance left
    measured 1.00006-1.00018 times tail, so tail is a close estimate, not a
    bound."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    _check_normalized(rho_0)
    (run,) = _mash_stack(rho_0.sector[None], rho_0.cfg, max_iter, every_round=True)
    if isinstance(run, Exception):
        raise run
    return run


def full_protocol(lam, schedule, cfg, max_iter=50):
    """Malting followed by iterated mashing; negativity_by_stage concatenates
    the per-cycle malting trace with the per-round mashing values."""
    _plan(cfg.dim)  # a cutoff mashing cannot run is refused before malting
    record = malt(lam, schedule, cfg)
    outcome = mash_iterate(record.state, max_iter=max_iter)
    stages = [n for _, n in record.negativity_trace] + list(
        outcome.negativity_by_stage[1:]
    )
    return outcome._replace(negativity_by_stage=stages)


def _chunks(branches, cap):
    """Lists of successive items of `branches`, of widths 1, 2, 4, ... up
    to cap. A ZeroTraceError raised while pulling an item ends its list
    early and is raised on the next pull, so that the scan raises it only
    if it reaches that item."""
    width = 1
    while True:
        chunk = []
        try:
            for item in branches:
                chunk.append(item)
                if len(chunk) == width:
                    break
        except ZeroTraceError:
            if chunk:
                yield chunk
            raise
        if not chunk:
            return
        yield chunk
        width = min(2 * width, cap)


# The scan stops at arm-B cycle ceil(tau) * _SCAN_CAP_FACTOR at the latest.
_SCAN_CAP_FACTOR = 3


def average_entanglement(lam, loss, sub, cfg, max_iter=50):
    """Success-weighted mean of the distilled negativity over the retained
    arm-B cycles j = 1..m_c (arm A fixed at cycle 1), zero when none is
    retained. The scan runs j = 1, 2, ... and stops at the first j whose
    distilled negativity does not beat the undistilled baseline, at
    ceil(tau) * _SCAN_CAP_FACTOR at the latest; m_c is len(terms).

    Each weight is the malting probability times the product of the mashing
    vacuum probabilities over the converged rounds. max_iter = 0 runs the
    same scan with zero mashing rounds (the malt-only baseline), so it
    scores each malted state with its malting probability alone. The raw
    weights are kept in terms, so the unnormalized sum is recoverable.

    mash_rounds totals the mashing rounds run, and max_discarded and
    max_tail give their worst truncation discard and tail, over the retained
    j's and the first failing one. The branches are mashed in chunks (see
    _chunks), and those past the first failing j are dropped, their rounds,
    discards and failures, malting ones included, uncounted.
    mashed_branches counts every branch mashed (with zero rounds at
    max_iter = 0), the dropped ones included, so the chunks' waste shows.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    # chunks of widths 1, 2, 4, ... up to the plan's width: as many branches
    # as the expansions their runs keep fit into 1 MiB (channels._plan),
    # 16 at d = 8, 2 at d = 13 and 1 from d = 14 on; read first, so that
    # the plan refuses a cutoff mashing cannot run, with or without rounds
    width = _plan(cfg.dim).width
    if lam == 0.0:
        return AvgEntanglement(0.0, [])
    if not math.isfinite(loss.tau):
        raise ValueError("critical-count scan needs finite tau (t < 1)")
    baseline = baseline_negativity(lam)
    terms = []
    total_rounds, worst_cut, worst_tail, mashed = 0, 0.0, 0.0, 0
    j_limit = math.ceil(loss.tau) * _SCAN_CAP_FACTOR
    branches = _arm_b_branches(lam, loss, sub, cfg, j_limit)
    for chunk in _chunks(branches, width):
        x = np.stack([state.sector for *_, state in chunk])
        runs = _mash_stack(x, cfg, max_iter, every_round=False)
        mashed += len(chunk)
        for (j, p_j, _), run in zip(chunk, runs):
            if isinstance(run, Exception):
                raise run
            total_rounds += run.iterations
            worst_cut = max(worst_cut, run.max_discarded)
            worst_tail = max(worst_tail, run.tail)
            if max_iter and not run.converged:
                raise NoConvergenceError(
                    f"mashing did not converge within {max_iter} rounds at j={j}"
                )
            final_neg = run.negativity_by_stage[-1]
            if final_neg <= baseline:
                break
            terms.append((j, p_j * math.prod(run.mash_probs), final_neg))
        else:
            continue
        break  # the first failing j ends the scan
    value = 0.0
    if terms:
        value = sum(p * n for _, p, n in terms) / sum(p for _, p, _ in terms)
    return AvgEntanglement(value, terms, total_rounds, worst_cut, worst_tail, mashed)


def critical_attempts(lam, loss, sub, cfg, max_iter=50):
    """Largest arm-B success cycle m_c (arm A fixed at cycle 1) whose
    distilled negativity still beats the undistilled baseline: the number
    of attempts the average_entanglement scan retains."""
    avg = average_entanglement(lam, loss, sub, cfg, max_iter)
    return CriticalCount(
        len(avg.terms),
        baseline_negativity(lam),
        avg.mash_rounds,
        avg.max_discarded,
        avg.max_tail,
        avg.mashed_branches,
    )
