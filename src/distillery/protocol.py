"""The distillation protocol: malting, mashing, and its figures of merit.

Malting: each memory clock cycle applies one loss event to both modes, then a
subtraction attempt on every arm that has not yet counted a phonon (forced
vacuum outcome before an arm's success cycle, a single count at it). An arm
that has succeeded keeps decohering but is no longer measured.

Mashing (see the mashing module) takes the malted state to its fixed point.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from .channels import LossChannelParams, SubtractionParams, _count, _kraus_weights, loss_event
from .core import (
    MAX_ITER,
    TRACE_TOL,
    TwoModeState,
    ZeroTraceError,
    _integer,
    _tmss_amplitudes,
    _wrap_fresh,
    tmss,
)
from .mashing import _admit, _mash_one, _mash_stack
from .negativity import _log_negativities, log_negativity


class NoConvergenceError(RuntimeError):
    """Raised when a fixed-point iteration exhausts max_iter where the
    caller needs a converged value."""


class MaltingSchedule(NamedTuple("MaltingSchedule", [
    ("m_a", int), ("m_b", int), ("loss", LossChannelParams), ("sub", SubtractionParams),
])):
    """Success cycles for the two arms plus the channel settings."""

    __slots__ = ()

    def __new__(cls, m_a, m_b, loss, sub):
        m_a, m_b = _integer("m_a", m_a, 1), _integer("m_b", m_b, 1)
        return super().__new__(cls, m_a, m_b, loss, sub)


class MaltingRecord(NamedTuple):
    state: TwoModeState
    joint_prob: float
    negativity_trace: list  # (clock-cycle, negativity) pairs, cycle 0 = input state
    cycle_probs: list  # detection weight per cycle


class AvgEntanglement(NamedTuple):
    value: float
    terms: list  # (j, success probability, final negativity) per retained j
    mash_rounds: int = 0  # mashing rounds run over the whole scan
    max_discarded: float = 0.0  # worst truncation discard of any of them
    max_tail: float = 0.0  # worst tail of the scan's mashing runs
    mashed_branches: int = 0  # branches mashed, counted or not (see average_entanglement)

    @property
    def m_c(self):
        """The critical attempt count: the arm-B cycles the scan retains."""
        return len(self.terms)


def baseline_negativity(lam):
    """Log-negativity of the undistilled two-mode squeezed resource,
    log2((1 + lam) / (1 - lam)): the value a distilled state must beat."""
    return math.log2((1.0 + lam) / (1.0 - lam))


def _count_step(state, sub, outcomes, cycle):
    """The counting half of one clock cycle, on a state that has had the
    cycle's loss event: count outcome q on each arm whose entry in
    outcomes = (q_A, q_B) is not None, both in one pass.

    Returns (normalized state, probability of this cycle's outcomes).
    """
    q_a, q_b = outcomes
    x = _count(state.sector, q_a, q_b, sub.t_s)
    p = float(x[0].sum())
    if p <= TRACE_TOL:
        # arm A vanished if its count alone leaves no weight, else arm B
        mode, q = "B", q_b
        if q_a is not None and _count(state.sector, q_a, None, sub.t_s)[0].sum() <= TRACE_TOL:
            mode, q = "A", q_a
        raise ZeroTraceError(
            f"outcome q={q} on arm {mode} at cycle {cycle} has vanishing probability"
        )
    x /= p
    return _wrap_fresh(x), p


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
    for cycle in range(1, max(schedule.m_a, schedule.m_b) + 1):
        outcomes = (_arm_outcome(cycle, schedule.m_a), _arm_outcome(cycle, schedule.m_b))
        # rebind `state` so the previous cycle's state is freed before the
        # counts: at large d every extra live state raises peak memory
        state = loss_event(state, schedule.loss)
        state, p_cycle = _count_step(state, schedule.sub, outcomes, cycle)
        cycle_probs.append(p_cycle)
        trace.append((cycle, log_negativity(state).value))
    return MaltingRecord(state, math.prod(cycle_probs), trace, cycle_probs)


def decay(lam, loss, sub, cfg, steps):
    """Iterator of one NegativityResult triple per clock cycle m = 0 ...
    steps, for a stored squeezed state under loss alone, a failed
    subtraction attempt (vacuum on both arms) per cycle alone, and both.
    The arguments are checked at the call; the cycles run as it is read."""
    steps = _integer("steps", steps, 1)
    return _decay_cycles(tmss(lam, cfg), loss, sub, steps)


def _decay_cycles(s_loss, loss, sub, steps):
    s_vac = s_both = s_loss  # its only names, so it is freed after cycle 1
    for m in range(steps + 1):
        # one solve for all three, not an eigvalsh per block size each; the
        # stack is freed before the next cycle builds its states
        yield tuple(_log_negativities(np.stack([s_loss.sector, s_vac.sector, s_both.sector])))
        if m == steps:
            return
        s_loss = loss_event(s_loss, loss)
        s_vac, _ = _count_step(s_vac, sub, (0, 0), m + 1)
        s_both, _ = _count_step(loss_event(s_both, loss), sub, (0, 0), m + 1)


def _arm_b_branches(lam, loss, sub, cfg, j_last):
    """The malting trajectories of the arm-B scan: arm A counts at cycle 1,
    arm B at cycle j = 1..j_last. Yields (j, joint probability, normalized
    malted state). Each probability is the product of the cycle
    probabilities in cycle order, as in malt. The branches share arm B's
    vacuum streak and its loss events, and the walk is lazy, so a caller
    may stop early. A count that vanishes ends the walk with one last item,
    (j, 0.0, the ZeroTraceError), for the first branch it leaves unreached.
    """
    # the state after cycle j's loss event, arm B's vacuum streak counted
    # through cycle j - 1, and that streak's probability
    decayed, p_run = loss_event(tmss(lam, cfg), loss), 1.0
    j = 1
    try:
        for j in range(1, j_last + 1):
            # both arms' outcomes as in malt, with m_a = 1 and m_b = j
            if j > 1:
                streak = (_arm_outcome(j - 1, 1), _arm_outcome(j - 1, j))
                running, p = _count_step(decayed, sub, streak, j - 1)
                p_run *= p
                decayed = loss_event(running, loss)
            counts = (_arm_outcome(j, 1), _arm_outcome(j, j))
            malted, p = _count_step(decayed, sub, counts, j)
            yield j, p_run * p, malted
    except ZeroTraceError as exc:
        yield j, 0.0, exc


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
    i_max, j_max = _integer("i_max", i_max, 1), _integer("j_max", j_max, 1)
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


def full_protocol(lam, schedule, cfg, max_iter=MAX_ITER):
    """Malting followed by iterated mashing of the malted state, as
    (MaltingRecord, DistillationOutcome). The outcome's negativity_by_stage
    is the malting trace, one value solved per cycle, followed by one value
    solved per mashing round: the malted state is solved once, by malt."""
    # a round cap or a cutoff mashing cannot run is refused before malting
    max_iter, _ = _admit(max_iter, cfg.dim)
    record = malt(lam, schedule, cfg)
    stages = [n for _, n in record.negativity_trace]
    return record, _mash_one(record.state.sector, max_iter, stages)


def _chunks(branches, cap):
    """Lists of successive items of the iterator `branches`, of widths 1,
    2, 4, ... up to cap."""
    width = 1
    while chunk := list(itertools.islice(branches, width)):
        yield chunk
        width = min(2 * width, cap)


# The scan stops at arm-B cycle ceil(tau) * _SCAN_CAP_FACTOR at the latest.
_SCAN_CAP_FACTOR = 3


def _scan_cap(loss):
    """The last arm-B cycle the scan may reach, ceil(tau) * _SCAN_CAP_FACTOR.
    Read back from t, tau is off by up to about tau^2 eps (2.0000000000000004
    for tau = 2), so one within 4 tau^2 eps of an integer is that integer.
    Refuses t = 1, whose tau is infinite; a finite tau can round t to 1."""
    if not loss.t < 1.0:
        raise ValueError(f"the arm-B scan needs finite tau (t < 1), got t={loss.t}")
    tau = loss.tau
    if abs(tau - round(tau)) <= 4.0 * tau * tau * math.ulp(1.0):
        tau = round(tau)
    return math.ceil(tau) * _SCAN_CAP_FACTOR


def average_entanglement(lam, loss, sub, cfg, max_iter=MAX_ITER):
    """Success-weighted mean of the distilled negativity over the retained
    arm-B cycles j = 1..m_c (arm A fixed at cycle 1), zero when none is
    retained. The scan runs j = 1, 2, ... and stops at the first j whose
    distilled negativity does not beat the undistilled baseline, at
    ceil(tau) * _SCAN_CAP_FACTOR at the latest; the result's m_c is
    len(terms).

    Each weight is the malting probability times the product of the mashing
    vacuum probabilities over the converged rounds. max_iter = 0 runs the
    same scan with zero mashing rounds (the malt-only baseline), so it
    scores each malted state with its malting probability alone. The raw
    weights are kept in terms, so the unnormalized sum is recoverable.

    mash_rounds totals the mashing rounds run, and max_discarded and
    max_tail give their worst truncation discard and tail, over the retained
    j's and the first failing one. The walk's malted states are mashed in
    chunks (see _chunks), and the branches past the first failing j are
    dropped, their rounds, discards and failures uncounted. In branch order
    the scan raises the first failure it reaches, a malting one (the walk's
    last item, see _arm_b_branches) or a mashing one, so a failure past the
    first failing j is never raised. mashed_branches counts every branch
    mashed (with zero rounds at max_iter = 0), the dropped ones included,
    so the chunks' waste shows.
    """
    # refused at every lambda, as the CLI refuses them: a round cap or a
    # cutoff mashing cannot run, then a tau the scan cannot cap
    max_iter, plan = _admit(max_iter, cfg.dim)
    cap = _scan_cap(loss)
    if lam == 0.0:
        return AvgEntanglement(0.0, [])
    branches = _arm_b_branches(lam, loss, sub, cfg, cap)
    baseline = baseline_negativity(lam)
    terms = []
    total_rounds, worst_cut, worst_tail, mashed = 0, 0.0, 0.0, 0
    # chunks of widths 1, 2, 4, ... up to the plan's width: as many branches
    # as the expansions their runs keep fit into 1 MiB (mashing._plan),
    # 16 at d = 8, 2 at d = 13 and 1 from d = 14 on
    for chunk in _chunks(branches, plan.width):
        # a malting failure, the walk's last item, stands in for its run
        x = [state.sector for *_, state in chunk if not isinstance(state, ZeroTraceError)]
        runs = iter(_mash_stack(np.stack(x), max_iter, every_round=False) if x else ())
        mashed += len(x)
        for j, p_j, state in chunk:
            run = state if isinstance(state, ZeroTraceError) else next(runs)
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
