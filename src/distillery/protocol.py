"""The distillation protocol: malting, mashing, and its figures of merit.

Malting: each memory clock cycle applies one loss event to both modes, then a
subtraction attempt on every arm that has not yet counted a phonon (forced
vacuum outcome before an arm's success cycle, a single count at it). An arm
that has succeeded keeps decohering but is no longer measured.

Mashing: successive 50/50 interference of the current state with a fresh
malted copy, conditioned on vacuum, iterated to a fixed point.
"""

import math
from dataclasses import dataclass, field

from .channels import (
    LossChannelParams,
    SubtractionParams,
    _BS_SIGN,
    _prose_source,
    detect_one_mode,
    loss_event,
    mash_step,
)
from .core import TwoModeState, ZeroTraceError, normalize, tmss
from .negativity import log_negativity, trace_distance


class NoConvergenceError(RuntimeError):
    """Raised when a fixed-point iteration exhausts max_iter where the
    caller needs a converged value."""


@dataclass(frozen=True)
class MaltingSchedule:
    """Success cycles for the two arms plus the channel settings."""

    m_a: int
    m_b: int
    loss: LossChannelParams
    sub: SubtractionParams

    def __post_init__(self):
        for name, m in (("m_a", self.m_a), ("m_b", self.m_b)):
            if int(m) != m or m < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {m}")


@dataclass(frozen=True)
class MaltingRecord:
    state: TwoModeState
    joint_prob: float
    negativity_trace: list  # (clock-cycle, negativity) pairs, cycle 0 = input state
    cycle_probs: list = field(default_factory=list)  # detection weight per cycle


@dataclass(frozen=True)
class DistillationOutcome:
    rho_final: TwoModeState
    iterations: int
    mash_probs: list
    negativity_by_stage: list
    converged: bool
    max_discarded: float = 0.0


@dataclass(frozen=True)
class CriticalCount:
    m_c: int
    baseline_negativity: float
    fixed_arm_index: int = 1
    mash_rounds: int = 0  # mashing rounds run over the whole scan
    max_discarded: float = 0.0  # worst truncation discard of any of them


@dataclass(frozen=True)
class AvgEntanglement:
    value: float
    terms: list  # (j, success probability, final negativity) per retained j
    mash_rounds: int = 0  # mashing rounds run over the whole scan
    max_discarded: float = 0.0  # worst truncation discard of any of them


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


def _by_arm(trying, own, other):
    # (arm A, arm B) pair from the value for arm `trying` and the other arm's
    return (own, other) if trying == "A" else (other, own)


def _first_counts(lossy, joint, loss, sub, cycle, i_last, j_last):
    """Malting trajectories whose first count comes at `cycle`.

    `lossy` is the state after cycles 1..cycle-1 of vacuum on both arms and
    the loss event of `cycle`; `joint` is the probability of that prefix.
    Yields (i, j, joint probability, normalized malted state) for arm A
    counting at cycle i and arm B at cycle j: first (cycle, cycle), then
    j = cycle+1..j_last with i = cycle, then the mirror i = cycle+1..i_last
    with j = cycle. Each probability is the product of the cycle
    probabilities along the path in cycle order, as in malt. Branches share
    their prefix and each cycle's loss event, and the walk is lazy, so a
    caller may stop early.
    """
    malted, p = _count_step(lossy, sub, (1, 1), cycle)
    yield cycle, cycle, joint * p, malted
    for trying, last in (("B", j_last), ("A", i_last)):
        if last == cycle:
            continue
        # the other arm counts at `cycle` and only decays after it
        running, p = _count_step(lossy, sub, _by_arm(trying, 0, 1), cycle)
        p_run = joint * p
        for c in range(cycle + 1, last + 1):
            decayed = loss_event(running, loss)
            malted, p = _count_step(decayed, sub, _by_arm(trying, 1, None), c)
            i, j = _by_arm(trying, c, cycle)
            yield i, j, p_run * p, malted
            if c < last:
                running, p = _count_step(decayed, sub, _by_arm(trying, 0, None), c)
                p_run *= p


def subtraction_probability_matrix(lam, loss, sub, cfg, i_max, j_max):
    """P[i-1, j-1] = probability that arm A succeeds at cycle i and arm B at
    cycle j, from one walk over the tree of malting trajectories that shares
    the both-vacuum prefix and each single-count streak."""
    import numpy as np

    if i_max < 1 or j_max < 1:
        raise ValueError("i_max and j_max must be >= 1")
    p = np.zeros((i_max, j_max))
    state = tmss(lam, cfg)
    joint = 1.0
    last_shared = min(i_max, j_max)
    for cycle in range(1, last_shared + 1):
        lossy = loss_event(state, loss)
        for i, j, p_ij, _ in _first_counts(lossy, joint, loss, sub, cycle, i_max, j_max):
            p[i - 1, j - 1] = p_ij
        if cycle < last_shared:
            state, p_vac = _count_step(lossy, sub, (0, 0), cycle)
            joint *= p_vac
    return p


def mash_iterate(rho_0, cfg, max_iter=50, exact_iterations=None):
    """Iterate mashing rounds against fresh copies of rho_0 until successive
    iterates are conv_tol-close in trace distance (or for exactly
    exact_iterations rounds when that override is given)."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    n_rounds = max_iter if exact_iterations is None else exact_iterations
    negs = [log_negativity(rho_0).value]
    probs = []
    worst_cut = 0.0
    cur = rho_0
    converged = False
    source = _prose_source(rho_0.sector, _BS_SIGN)
    for _ in range(n_rounds):
        res = mash_step(cur, rho_0, _source=source)
        probs.append(res.prob)
        negs.append(log_negativity(res.state).value)
        worst_cut = max(worst_cut, res.discarded_weight)
        dist = trace_distance(res.state, cur)
        cur = res.state
        if exact_iterations is None and dist < cfg.conv_tol:
            converged = True
            break
    if exact_iterations is not None:
        converged = True  # caller fixed the count deliberately
    return DistillationOutcome(cur, len(probs), probs, negs, converged, worst_cut)


def full_protocol(lam, schedule, cfg, max_iter=50):
    """Malting followed by iterated mashing; negativity_by_stage concatenates
    the per-cycle malting trace with the per-round mashing values."""
    record = malt(lam, schedule, cfg)
    outcome = mash_iterate(record.state, cfg, max_iter=max_iter)
    stages = [n for _, n in record.negativity_trace] + list(
        outcome.negativity_by_stage[1:]
    )
    return DistillationOutcome(
        outcome.rho_final,
        outcome.iterations,
        outcome.mash_probs,
        stages,
        outcome.converged,
        outcome.max_discarded,
    )


def _scan_gain(lam, loss, sub, cfg, max_iter, gain_mode, safety_factor, mash_iterations):
    """Shared linear scan over arm-B success cycles.

    Returns (m_c, baseline, terms, mash_rounds, max_discarded) where terms
    holds one (j, success probability, final negativity) triple per retained
    j, and the last two total the mashing rounds run (the failing j's
    included) and give their worst truncation discard.
    """
    if gain_mode not in ("full", "malt-only"):
        raise ValueError(f"unknown gain_mode {gain_mode!r}")
    baseline = baseline_negativity(lam)
    if lam == 0.0:
        return 0, baseline, [], 0, 0.0
    if not math.isfinite(loss.tau):
        raise ValueError("critical-count scan needs finite tau (t < 1)")
    j_limit = math.ceil(loss.tau) * safety_factor
    if j_limit < 1:
        return 0, baseline, [], 0, 0.0
    m_c = 0
    terms = []
    rounds, worst_cut = 0, 0.0
    # arm A counts at cycle 1; the branches are arm B's success cycles j
    lossy = loss_event(tmss(lam, cfg), loss)
    for _, j, p_j, malted in _first_counts(lossy, 1.0, loss, sub, 1, 1, j_limit):
        if gain_mode == "malt-only":
            final_neg = log_negativity(malted).value
            p_total = p_j
        else:
            # mash_iterations caps how many vacuum probabilities enter the
            # weight: None takes every converged round, 0 treats the vacuum
            # detections as certain (the state still mashes to convergence).
            forced = mash_iterations if mash_iterations else None
            outcome = mash_iterate(
                malted, cfg, max_iter=max_iter, exact_iterations=forced
            )
            rounds += outcome.iterations
            worst_cut = max(worst_cut, outcome.max_discarded)
            if not outcome.converged:
                raise NoConvergenceError(
                    f"mashing did not converge within {max_iter} rounds at j={j}"
                )
            final_neg = outcome.negativity_by_stage[-1]
            if mash_iterations == 0:
                p_total = p_j
            else:
                p_total = p_j * math.prod(outcome.mash_probs)
        if final_neg <= baseline:
            break
        m_c = j
        terms.append((j, p_total, final_neg))
    return m_c, baseline, terms, rounds, worst_cut


def critical_attempts(
    lam, loss, sub, cfg, max_iter=50, gain_mode="full", safety_factor=3
):
    """Largest arm-B success cycle (arm A fixed at cycle 1) whose distilled
    negativity still beats the undistilled baseline; linear scan from j=1,
    stopping at the first failure, hard-capped at ceil(tau)*safety_factor."""
    m_c, baseline, _, rounds, worst_cut = _scan_gain(
        lam, loss, sub, cfg, max_iter, gain_mode, safety_factor, None
    )
    return CriticalCount(m_c, baseline, 1, rounds, worst_cut)


def average_entanglement(
    lam,
    loss,
    sub,
    cfg,
    max_iter=50,
    mash_iterations=None,
    gain_mode="full",
    safety_factor=3,
):
    """Success-weighted mean of the distilled negativity over the retained
    arm-B cycles j = 1..m_c, zero when no cycle beats the baseline. Each
    weight is the malting probability times the product of the mashing
    vacuum probabilities (over the converged round count; mash_iterations=0
    drops the mashing factor, k forces exactly k rounds). The raw weights
    are kept in terms, so the unnormalized sum is recoverable from them.

    The number of retained cycles is len(terms)."""
    _, _, terms, rounds, worst_cut = _scan_gain(
        lam, loss, sub, cfg, max_iter, gain_mode, safety_factor, mash_iterations
    )
    if not terms:
        return AvgEntanglement(0.0, [], rounds, worst_cut)
    weight = sum(p for _, p, _ in terms)
    value = sum(p * n for _, p, n in terms) / weight
    return AvgEntanglement(value, terms, rounds, worst_cut)
