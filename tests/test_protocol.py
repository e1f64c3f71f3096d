import math
import re

import numpy as np
import pytest

import oracles
from distillery import (
    AvgEntanglement,
    LossChannelParams,
    MaltingSchedule,
    NoConvergenceError,
    NotHermitianError,
    SubtractionParams,
    TruncationConfig,
    ZeroTraceError,
    auto_n_max,
    average_entanglement,
    decay,
    detect_one_mode,
    full_protocol,
    log_negativity,
    malt,
    mash_iterate,
    mash_step,
    repeated_loss,
    state_from_coeffs,
    subtraction_probability_matrix,
    tmss,
    trace_distance,
    vacuum,
)
from distillery import mashing, negativity, protocol
from distillery.core import CONV_TOL, EIG_TOL

# malt(1,1) probability at lambda=0.1, tau=100, t_s=0.99, n_max=8:
# one loss event, then single subtraction success on each arm, from the
# loop-based trajectory contraction in oracles.p11_trajectory_oracle
P11_TRAJ_NMAX8 = 3.993432960736389e-06

LAM = 0.1
CFG = TruncationConfig(7)
LOSS = LossChannelParams.from_tau(100.0)
SUB = SubtractionParams(0.99)
BASE = math.log2((1 + LAM) / (1 - LAM))


_RHO = tmss(LAM, CFG)


def _mash_step_at_zero_weight():
    # mash_step with every kept weight patched to 0, as _poison does below
    real_round = mashing._mash_round

    def zero_weight(cur, source):
        kept, prob, discarded, weight = real_round(cur, source)
        return kept, prob, discarded, np.zeros_like(weight)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mashing, "_mash_round", zero_weight)
        mash_step(_RHO, _RHO)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: repeated_loss(_RHO, LOSS, -1), "m must be an integer >= 0, got -1"),
        (lambda: repeated_loss(_RHO, LOSS, 1.5), "m must be an integer >= 0, got 1.5"),
        (lambda: detect_one_mode(_RHO, SUB, "C", 1), "mode must be 'A' or 'B', got 'C'"),
        (lambda: detect_one_mode(_RHO, SUB, "A", CFG.dim),
         f"outcome q must be an integer in [0, {CFG.n_max}], got {CFG.dim}"),
        (lambda: mash_step(_RHO, tmss(LAM, TruncationConfig(8))),
         "mash inputs must share dimension"),
        (lambda: state_from_coeffs(np.zeros((3, 3, 3, 3)), CFG),
         "expected shape (8, 8, 8, 8), got (3, 3, 3, 3)"),
        (lambda: trace_distance(_RHO, tmss(LAM, TruncationConfig(8))),
         "states must share dimension"),
        (lambda: subtraction_probability_matrix(LAM, LOSS, SUB, CFG, 0, 1),
         "i_max must be an integer >= 1, got 0"),
        (lambda: subtraction_probability_matrix(LAM, LOSS, SUB, CFG, 1.5, 1),
         "i_max must be an integer >= 1, got 1.5"),
        (lambda: subtraction_probability_matrix(LAM, LOSS, SUB, CFG, 1, 0.5),
         "j_max must be an integer >= 1, got 0.5"),
        (lambda: mash_iterate(_RHO, max_iter=-1), "max_iter must be an integer >= 0, got -1"),
        (lambda: mash_iterate(_RHO, max_iter=1.5),
         "max_iter must be an integer >= 0, got 1.5"),
        (lambda: average_entanglement(LAM, LOSS, SUB, CFG, max_iter=0.5),
         "max_iter must be an integer >= 0, got 0.5"),
        (lambda: average_entanglement(LAM, LossChannelParams(1.0), SUB, CFG),
         "the arm-B scan needs finite tau (t < 1), got t=1.0"),
        (lambda: average_entanglement(0.0, LossChannelParams(1.0), SUB, CFG),
         "the arm-B scan needs finite tau (t < 1), got t=1.0"),
        (lambda: TruncationConfig(8.5), "n_max must be an integer >= 1, got 8.5"),
        (lambda: MaltingSchedule(1, 2.5, LOSS, SUB), "m_b must be an integer >= 1, got 2.5"),
        (_mash_step_at_zero_weight, "mash projection weight 0 at or below trace_tol"),
        (lambda: auto_n_max(1.0), "squeezing parameter must lie in [0, 1), got 1.0"),
    ],
    ids=["repeated-loss-m", "repeated-loss-m-fraction", "detect-mode", "detect-q",
         "mash-step-dims", "coeffs-shape", "trace-distance-cutoffs", "pij-i-max",
         "pij-i-max-fraction", "pij-j-max-fraction", "mash-iterate-max-iter",
         "mash-iterate-max-iter-fraction", "average-entanglement-max-iter-fraction",
         "average-entanglement-lossless", "average-entanglement-lossless-vacuum",
         "n-max-fraction", "schedule-m-b-fraction", "mash-step-zero-weight",
         "auto-n-max-lambda"],
)
def test_library_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_mashing_refuses_cutoffs_whose_weights_overflow(monkeypatch):
    # at n_max = 99 the untilted output weights overflow
    # (mashing._MASH_MAX_N_MAX): every mashing entry point refuses the
    # cutoff, with or without rounds, before any weight table, d^4 array or
    # malting exists
    def refuse(*args):
        raise AssertionError("built past the mashing cutoff")

    for module, name in ((mashing, "_mash_weights"), (mashing, "_truncated_convolution"),
                         (protocol, "loss_event")):
        monkeypatch.setattr(module, name, refuse)
    cfg = TruncationConfig(99)
    rho = tmss(LAM, cfg)
    schedule = MaltingSchedule(1, 1, LOSS, SUB)
    for call in (
        lambda: mash_step(rho, rho),
        lambda: mash_iterate(rho),
        lambda: mash_iterate(rho, max_iter=0),
        lambda: full_protocol(LAM, schedule, cfg),
        lambda: full_protocol(LAM, schedule, cfg, max_iter=0),
        lambda: average_entanglement(LAM, LOSS, SUB, cfg),
        lambda: average_entanglement(LAM, LOSS, SUB, cfg, max_iter=0),
    ):
        with pytest.raises(ValueError, match=r"^mashing needs n_max <= 98; at n_max=99 "):
            call()


def test_schedule_validation():
    with pytest.raises(ValueError):
        MaltingSchedule(0, 1, LOSS, SUB)
    with pytest.raises(ValueError):
        MaltingSchedule(1, -2, LOSS, SUB)
    s = MaltingSchedule(2, 3, LOSS, SUB)
    assert (s.m_a, s.m_b) == (2, 3)


def test_malt_first_cycle_success_matches_trajectory_oracle():
    cfg = TruncationConfig(8)
    rec = malt(LAM, MaltingSchedule(1, 1, LOSS, SUB), cfg)
    assert rec.joint_prob == pytest.approx(P11_TRAJ_NMAX8, rel=1e-10)
    live = oracles.p11_trajectory_oracle(LAM, 8, LOSS.t, 0.99)
    assert rec.joint_prob == pytest.approx(live, rel=1e-12)
    # the normalized malted state must match the oracle trajectory too
    lossy = oracles.repeated_loss_oracle(LAM, 8, LOSS.t, 1)
    raw, p = oracles.subtract_oracle(lossy, 0.99, 1, 1)
    assert np.abs(rec.state.coeffs - raw / p).max() < 1e-13


def test_malt_trace_and_cycle_bookkeeping():
    rec = malt(LAM, MaltingSchedule(2, 4, LOSS, SUB), CFG)
    # trace covers cycle 0 (the fresh resource) through the last cycle
    assert len(rec.negativity_trace) == 5
    assert [c for c, _ in rec.negativity_trace] == [0, 1, 2, 3, 4]
    assert rec.negativity_trace[0][1] == pytest.approx(BASE, abs=1e-6)
    assert len(rec.cycle_probs) == 4
    prod = math.prod(rec.cycle_probs)
    assert rec.joint_prob == pytest.approx(prod, rel=1e-12)
    assert 0.0 < rec.joint_prob < 1.0
    assert abs(rec.state.trace - 1.0) < 1e-12


def test_malt_zero_squeezing_has_no_success_branch():
    with pytest.raises(ZeroTraceError):
        malt(0.0, MaltingSchedule(1, 1, LOSS, SUB), TruncationConfig(1))


def test_decay_starts_at_the_truncated_closed_form_and_falls():
    # at the auto cutoff (n_max 7 at lambda 0.1) all three trajectories start
    # at the truncated squeezed state's negativity,
    # log2((sum_{n<8} lam^n)^2 / sum_{n<8} lam^(2n)), and each falls
    assert CFG.n_max == auto_n_max(LAM)
    negs = list(decay(LAM, LOSS, SUB, CFG, 5))
    assert len(negs) == 6 and all(len(triple) == 3 for triple in negs)
    closed = math.log2(sum(LAM**n for n in range(8)) ** 2 / sum(LAM ** (2 * n) for n in range(8)))
    assert closed == pytest.approx(0.2895065883410841, abs=1e-15)
    assert all(abs(n.value - closed) < 1e-12 for n in negs[0])
    for column in zip(*negs):
        values = [n.value for n in column]
        assert all(later < earlier for earlier, later in zip(values, values[1:]))
    # the step count is checked at the call, before any cycle runs
    for steps, shown in ((0, "0"), (1.5, "1.5")):
        with pytest.raises(ValueError, match=rf"^steps must be an integer >= 1, got {shown}$"):
            decay(LAM, LOSS, SUB, CFG, steps)


@pytest.mark.parametrize("lam", [0.1, 0.4])
def test_decay_follows_the_gaussian_closed_forms(lam):
    # loss alone keeps the squeezed state Gaussian, with transmission
    # eta = t^(2m) per mode, and a failed attempt on both arms alone maps
    # lam to lam t_s^2 per cycle; the auto cutoff's own deficit delta_0 at
    # m = 0 is the largest gap (2.89e-8 and 7.93e-8), and from m = 100 on
    # the gaps are at most 2.2e-11
    d = auto_n_max(lam) + 1
    delta_0 = oracles.tmss_negativity_closed_form(lam) - math.log2(
        sum(lam**n for n in range(d)) ** 2 / sum(lam ** (2 * n) for n in range(d))
    )
    for m, (loss_only, vac_only, _) in enumerate(decay(lam, LOSS, SUB, TruncationConfig(d - 1), 300)):
        want_loss = oracles.lossy_tmss_negativity(lam, LOSS.t ** (2 * m))
        want_vac = oracles.tmss_negativity_closed_form(lam * SUB.t_s ** (2 * m))
        assert abs(loss_only.value - want_loss) <= delta_0 + 1e-12, m
        assert abs(vac_only.value - want_vac) <= delta_0 + 1e-12, m


def test_count_step_names_the_arm_that_vanished():
    # both arms count in one pass; where the joint outcome has no weight,
    # the error names arm A if its count alone vanishes, else arm B
    cfg = TruncationConfig(3)
    for (n, m), outcomes, arm in (
        ((0, 1), (1, 1), "A"),  # no phonon in mode A to count
        ((0, 1), (1, None), "A"),
        ((1, 0), (1, 1), "B"),  # arm A counts its phonon, mode B has none
        ((1, 0), (None, 1), "B"),
    ):
        c = np.zeros((4, 4, 4, 4))
        c[n, m, n, m] = 1.0
        with pytest.raises(ZeroTraceError, match=f"q=1 on arm {arm} at cycle 7 "):
            protocol._count_step(state_from_coeffs(c, cfg), SUB, outcomes, 7)


def test_malted_negativity_ordered_by_memory_quality():
    sched = lambda loss: MaltingSchedule(2, 3, loss, SUB)
    weak = malt(LAM, sched(LossChannelParams.from_tau(10.0)), CFG)
    strong = malt(LAM, sched(LOSS), CFG)
    assert strong.negativity_trace[-1][1] > weak.negativity_trace[-1][1]


def test_subtraction_matrix_structure():
    p = subtraction_probability_matrix(LAM, LOSS, SUB, CFG, 4, 4)
    assert p.shape == (4, 4)
    assert np.abs(p - p.T).max() < 1e-10
    assert all(p[i, j] > p[i, j + 1] for i in range(4) for j in range(3))
    assert all(p[i, j] > p[i + 1, j] for i in range(3) for j in range(4))
    assert p.sum() < 1.0
    rec = malt(LAM, MaltingSchedule(1, 1, LOSS, SUB), CFG)
    assert p[0, 0] == pytest.approx(rec.joint_prob, rel=1e-12)


def test_subtraction_matrix_non_square_grids():
    # P is symmetric, so only a non-square grid shows an i/j swap
    p35 = subtraction_probability_matrix(LAM, LOSS, SUB, CFG, 3, 5)
    p53 = subtraction_probability_matrix(LAM, LOSS, SUB, CFG, 5, 3)
    assert p35.shape == (3, 5)
    assert p53.shape == (5, 3)
    for i in range(1, 4):
        for j in range(1, 6):
            rec = malt(LAM, MaltingSchedule(i, j, LOSS, SUB), CFG)
            assert p35[i - 1, j - 1] == pytest.approx(rec.joint_prob, rel=1e-12)
            rec = malt(LAM, MaltingSchedule(j, i, LOSS, SUB), CFG)
            assert p53[j - 1, i - 1] == pytest.approx(rec.joint_prob, rel=1e-12)
    np.testing.assert_allclose(p53, p35.T, rtol=1e-12, atol=0.0)


def test_subtraction_matrix_reaches_late_cycles():
    # cells far down the grid are small but computable, down to 1e-16
    p = subtraction_probability_matrix(LAM, LOSS, SUB, CFG, 400, 400)
    assert p.shape == (400, 400)
    assert (p > 0.0).all()
    assert np.abs(p - p.T).max() < 1e-10
    assert (np.diff(p, axis=0) < 0.0).all()
    assert (np.diff(p, axis=1) < 0.0).all()
    for i, j in ((300, 2), (2, 300), (367, 3)):
        rec = malt(LAM, MaltingSchedule(i, j, LOSS, SUB), CFG)
        assert p[i - 1, j - 1] == pytest.approx(rec.joint_prob, rel=1e-12)


def test_mash_iterate_vacuum_is_immediate_fixed_point():
    out = mash_iterate(vacuum(TruncationConfig(4)))
    assert out.converged
    assert out.iterations == 1
    assert out.mash_probs == [pytest.approx(1.0, abs=1e-14)]
    assert all(abs(n) < 1e-12 for n in out.negativity_by_stage)


def test_mash_iterate_converges_and_gains():
    rec = malt(LAM, MaltingSchedule(1, 1, LOSS, SUB), CFG)
    out = mash_iterate(rec.state)
    assert out.converged
    assert out.iterations <= 50
    assert len(out.negativity_by_stage) == out.iterations + 1
    assert out.negativity_by_stage[-1] > out.negativity_by_stage[0]
    assert all(0.0 < p <= 1.0 for p in out.mash_probs)
    assert out.max_discarded < 1e-9
    # the converged iterate really is a fixed point of one more round
    again = mash_step(out.rho_final, rec.state)
    assert trace_distance(again.state, out.rho_final) < 10 * CONV_TOL


def test_mash_iterate_forced_round_count():
    rec = malt(LAM, MaltingSchedule(1, 1, LOSS, SUB), CFG)
    out = mash_iterate(rec.state, max_iter=3)
    assert out.iterations == 3
    assert not out.converged
    assert len(out.mash_probs) == 3
    # zero rounds, the malt-only baseline, return the input as it is
    out = mash_iterate(rec.state, max_iter=0)
    assert (out.iterations, out.converged, out.tail, out.mash_probs) == (0, False, 0.0, [])
    assert out.rho_final.sector.tobytes() == rec.state.sector.tobytes()
    assert out.negativity_by_stage == [log_negativity(rec.state).value]


def test_full_protocol_concatenates_stages():
    sched = MaltingSchedule(1, 2, LOSS, SUB)
    rec = malt(LAM, sched, CFG)
    got, out = full_protocol(LAM, sched, CFG)
    assert got.negativity_trace == rec.negativity_trace
    malt_part = [n for _, n in rec.negativity_trace]
    assert out.negativity_by_stage[: len(malt_part)] == malt_part
    assert len(out.negativity_by_stage) == len(malt_part) + out.iterations
    assert out.negativity_by_stage[-1] > BASE
    assert out.converged
    # the mashing values are mash_iterate's rounds on the malted state
    assert out.negativity_by_stage[len(malt_part) - 1 :] == (
        mash_iterate(rec.state).negativity_by_stage
    )
    _, baseline = full_protocol(LAM, sched, CFG, max_iter=0)
    assert baseline.negativity_by_stage == malt_part


def test_critical_attempts_below_threshold():
    avg = average_entanglement(LAM, LOSS, SubtractionParams(0.6), CFG)
    assert avg.m_c == 0
    assert protocol.baseline_negativity(LAM) == pytest.approx(BASE, rel=1e-12)


def test_critical_attempts_monotone_in_ts():
    values = [
        average_entanglement(LAM, LOSS, SubtractionParams(ts), CFG).m_c
        for ts in (0.7, 0.75, 0.85, 0.99)
    ]
    assert values[0] == 0
    assert values[1] >= 1
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] <= math.ceil(LOSS.tau) * 3


def test_critical_attempts_zero_squeezing_and_lossless_guard():
    assert average_entanglement(0.0, LOSS, SUB, TruncationConfig(1)).m_c == 0
    with pytest.raises(ValueError):
        average_entanglement(LAM, LossChannelParams(1.0), SUB, CFG)


def test_critical_attempts_gain_matches_independent_protocol_runs():
    # the scan must agree with running the schedule from scratch per j
    avg = average_entanglement(LAM, LOSS, SubtractionParams(0.8), CFG)
    assert avg.m_c >= 1
    for j in range(1, avg.m_c + 2):
        _, out = full_protocol(LAM, MaltingSchedule(1, j, LOSS, SubtractionParams(0.8)), CFG)
        gained = out.negativity_by_stage[-1] > BASE
        assert gained == (j <= avg.m_c)


def test_arm_b_branches_match_independent_malts():
    # malt-only terms carry each arm-B branch's malting probability and the
    # negativity of its malted state; both must match a malt run from scratch
    avg = average_entanglement(LAM, LOSS, SUB, CFG, max_iter=0)
    assert len(avg.terms) >= 4
    for j, p_j, neg in avg.terms:
        rec = malt(LAM, MaltingSchedule(1, j, LOSS, SUB), CFG)
        assert p_j == pytest.approx(rec.joint_prob, rel=1e-10)
        assert neg == pytest.approx(rec.negativity_trace[-1][1], rel=1e-12)


def test_no_convergence_is_an_error_in_the_scan():
    with pytest.raises(NoConvergenceError):
        average_entanglement(LAM, LOSS, SUB, CFG, max_iter=1)


def test_average_entanglement_zero_without_gain():
    avg = average_entanglement(LAM, LOSS, SubtractionParams(0.6), CFG)
    assert isinstance(avg, AvgEntanglement)
    assert avg.value == 0.0
    assert avg.terms == []


def test_average_entanglement_is_weighted_mean():
    avg = average_entanglement(LAM, LOSS, SUB, CFG)
    weight = sum(p for _, p, _ in avg.terms)
    raw = sum(p * n for _, p, n in avg.terms)
    assert avg.value == pytest.approx(raw / weight, rel=1e-12)
    lo = min(n for _, _, n in avg.terms)
    hi = max(n for _, _, n in avg.terms)
    assert lo <= avg.value <= hi
    assert avg.value > BASE


def _arm_b_branches(sub, j_last):
    # (malting probability, malted state) of the scan's branches, from the
    # walk the scan itself takes
    walk = protocol._arm_b_branches(LAM, LOSS, sub, CFG, j_last)
    return [(p, st) for _, p, st in walk]


def test_scan_reports_mash_rounds_and_worst_discard():
    # the chunked scan against the branch-by-branch reference, for every
    # retained j and the first failing one
    avg = average_entanglement(LAM, LOSS, SUB, CFG)
    assert avg.m_c == len(avg.terms)
    rounds = []
    for j in range(1, avg.m_c + 2):
        rec = malt(LAM, MaltingSchedule(1, j, LOSS, SUB), CFG)
        out = mash_iterate(rec.state)
        rounds.append(out.iterations)
        neg = out.negativity_by_stage[-1]
        if j > avg.m_c:
            assert neg <= BASE
            continue
        jj, p, n = avg.terms[j - 1]
        assert jj == j
        assert p == pytest.approx(rec.joint_prob * math.prod(out.mash_probs), rel=1e-12)
        assert n == pytest.approx(neg, rel=1e-12)
    assert avg.mash_rounds == sum(rounds)
    # the chunks, of widths 1, 2, 4, ... up to the plan's width, mash past
    # the first failing j to the end of its chunk
    mashed, width = 0, 1
    while mashed < avg.m_c + 1:
        mashed, width = mashed + width, min(2 * width, mashing._plan(CFG.dim).width)
    assert avg.mashed_branches == mashed
    # on the scan's own malted states the batch-of-1 path gives every
    # reduction bit for bit: rounds, worst discard, worst tail and terms
    branches = _arm_b_branches(SUB, avg.m_c + 1)
    runs = [mash_iterate(st) for _, st in branches]
    assert [r.iterations for r in runs] == rounds
    assert avg.max_discarded == max(r.max_discarded for r in runs)
    assert avg.max_tail == max(r.tail for r in runs)
    assert avg.terms == [
        (j, p_j * math.prod(r.mash_probs), r.negativity_by_stage[-1])
        for j, ((p_j, _), r) in enumerate(zip(branches[:-1], runs), start=1)
    ]
    assert 0.0 <= avg.max_discarded < 1e-9
    assert 0.0 < avg.max_tail < CONV_TOL / 3
    malt_only = average_entanglement(LAM, LOSS, SUB, CFG, max_iter=0)
    diagnostics = (malt_only.mash_rounds, malt_only.max_discarded, malt_only.max_tail)
    assert diagnostics == (0, 0.0, 0.0)


def _poison(monkeypatch, failure, x_0):
    # Make the branch mashed from x_0 fail in every round: its trace
    # distance never falls below CONV_TOL ("step"), or its kept weight is 0
    # ("weight"). The branch is followed by content from round to round;
    # the returned list grows by one entry per round that reached it.
    followed = [x_0]

    def rows(cur):
        return [r for r in range(len(cur)) if np.array_equal(cur[r], followed[-1])]

    if failure == "weight":
        real_round = mashing._mash_round

        def poisoned_round(cur, source):
            kept, prob, discarded, weight = real_round(cur, source)
            for r in rows(cur):
                weight[r] = 0.0
                followed.append(None)
            return kept, prob, discarded, weight

        monkeypatch.setattr(mashing, "_mash_round", poisoned_round)
        return followed
    real_distances = mashing._trace_distances

    def poisoned_distances(new, cur, below):
        step = real_distances(new, cur, below)
        for r in rows(cur):
            step[r] = 1.0
            followed.append(new[r].copy())
        return step

    monkeypatch.setattr(mashing, "_trace_distances", poisoned_distances)
    return followed


@pytest.mark.parametrize(
    "failure, error, message",
    [
        ("step", NoConvergenceError, "within 50 rounds at j=5"),
        ("weight", ZeroTraceError, "mash projection weight 0 at or below trace_tol"),
    ],
)
def test_scan_drops_branches_past_the_first_failing_j(monkeypatch, failure, error, message):
    # at t_s = 0.9 the first failing j is 5, and the chunk j = 4..7 mashes
    # j = 6 and 7 as well; a failure there must not reach the result
    sub = SubtractionParams(0.9)
    ref = average_entanglement(LAM, LOSS, sub, CFG)
    assert ref.m_c == 4
    states = [st for _, st in _arm_b_branches(sub, 6)]
    followed = _poison(monkeypatch, failure, states[5].sector)
    assert average_entanglement(LAM, LOSS, sub, CFG) == ref
    assert len(followed) == (51 if failure == "step" else 2)  # j = 6 was mashed
    # on its own the branch fails, and at the first failing j the scan does
    del followed[1:]
    if failure == "step":
        assert not mash_iterate(states[5]).converged
    else:
        with pytest.raises(error, match=message):
            mash_iterate(states[5])
    followed[:] = [states[4].sector]
    with pytest.raises(error, match=message):
        average_entanglement(LAM, LOSS, sub, CFG)


def test_mashing_checks_hermiticity_against_the_run_eig_tol():
    # a run's Hermiticity is checked where its input becomes a state, against
    # EIG_TOL (1e-10): a malted state with one coherence's mirrors 1e-12
    # apart mashes to convergence, exactly symmetric; 1e-8 apart it never
    # reaches mashing
    rec = malt(LAM, MaltingSchedule(1, 1, LOSS, SUB), CFG)
    for bump in (1e-12, 1e-8):
        c = rec.state.coeffs.copy()
        c[1, 1, 0, 0] += bump
        if bump < EIG_TOL:
            out = mash_iterate(state_from_coeffs(c, CFG))
            assert out.converged
            rho = out.rho_final.coeffs
            assert np.array_equal(rho, rho.transpose(2, 3, 0, 1))
        else:
            with pytest.raises(NotHermitianError, match=r"1e-08 > 1e-10$"):
                mash_iterate(state_from_coeffs(c, CFG))


def test_mashing_solves_few_distances_and_windows_each_chunk_once(monkeypatch):
    # the Frobenius bound settles every round whose distance is far above
    # CONV_TOL, so a d = 8 run reaches the "rho" eigensolve only in its
    # last rounds
    solves = []
    real_eigvalsh = negativity._block_eigvalsh

    def counting(x, kind):
        if kind == "rho":
            solves.append(x.shape[:-3])
        return real_eigvalsh(x, kind)

    monkeypatch.setattr(negativity, "_block_eigvalsh", counting)
    out = mash_iterate(malt(LAM, MaltingSchedule(1, 1, LOSS, SUB), CFG).state)
    assert out.converged and out.iterations >= 8
    assert 1 <= len(solves) <= 3
    # a d = 8 scan chunk expands its sources once for all its rounds: the
    # chunks j = 1, 2-3 and 4-7 (see test_scan_prepares_one_source_per_branch)
    expansions = []
    real_operand = mashing._source_operand

    def expanding(y):
        expansions.append(y.shape[:-3])
        return real_operand(y)

    monkeypatch.setattr(mashing, "_source_operand", expanding)
    avg = average_entanglement(LAM, LOSS, SubtractionParams(0.9), CFG)
    assert avg.m_c == 4 and avg.mash_rounds >= 5 * 8
    assert expansions == [(1,), (2,), (4,)]


@pytest.mark.parametrize("n_max", [7, 11, 16])
def test_mash_iterate_matches_a_loop_of_mash_step_and_trace_distance(n_max):
    # the reference solves every round's trace distance; d = 8 and 12 keep
    # rho_0's expansion for the run, d = 17 copies it shift by shift
    cfg = TruncationConfig(n_max)
    assert bool(mashing._plan(cfg.dim).kept) == (n_max < 16)
    rho_0 = malt(LAM, MaltingSchedule(1, 2, LOSS, SUB), cfg).state
    cur, probs = rho_0, []
    for rounds in range(1, 51):
        res = mash_step(cur, rho_0)
        probs.append(res.prob)
        dist = trace_distance(res.state, cur)
        cur = res.state
        if dist < CONV_TOL:
            break
    out = mash_iterate(rho_0)
    assert (out.iterations, out.converged) == (rounds, True)
    assert out.mash_probs == pytest.approx(probs, rel=1e-12)
    assert np.abs(out.rho_final.sector - cur.sector).max() <= 1e-12
    # tail is a difference of nearly equal states, so it is held to the
    # rounding of its entries, not relative to itself
    assert out.tail == pytest.approx(dist / 3.0, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("lam", [0.1, 0.2, 0.4])
def test_mash_iterate_converges_to_the_exact_fixed_point(lam):
    # against the closed-form fixed point of the oracle, on malted states
    # at d = 8, 11 and 19: the converged state lies within CONV_TOL of it,
    # and tail estimates the distance left to it (measured 1.00006 to
    # 1.00018 times tail)
    cfg = TruncationConfig(auto_n_max(lam))
    assert cfg.dim == {0.1: 8, 0.2: 11, 0.4: 19}[lam]
    rho_0 = malt(lam, MaltingSchedule(1, 3, LOSS, SUB), cfg).state
    out = mash_iterate(rho_0)
    exact = oracles.mash_fixed_point_oracle(rho_0.coeffs)
    d2 = cfg.dim**2
    diff = (out.rho_final.coeffs - exact).reshape(d2, d2)
    dist = 0.5 * oracles.trace_norm_oracle(diff)
    assert out.converged
    assert dist <= CONV_TOL
    assert dist == pytest.approx(out.tail, rel=1e-3)


@pytest.mark.parametrize("lam", [0.1, 0.2, 0.4])
def test_mash_iterate_matches_the_closed_form_of_each_round(lam):
    # iterates r = 1 ... 4 against the oracle's closed form of round r, on
    # its own product, so the kernel's arithmetic (its tilt included) is
    # judged by code it does not share; malted states at d = 8, 11 and 19
    # (measured at most 1.1e-15 of the largest entry)
    cfg = TruncationConfig(auto_n_max(lam))
    assert cfg.dim == {0.1: 8, 0.2: 11, 0.4: 19}[lam]
    rho_0 = malt(lam, MaltingSchedule(1, 3, LOSS, SUB), cfg).state
    for r in range(1, 5):
        out = mash_iterate(rho_0, max_iter=r)
        assert (out.iterations, out.converged) == (r, False)
        want = oracles.mash_round_oracle(rho_0.coeffs, r)
        assert np.abs(out.rho_final.coeffs - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("lam, m_a, m_b, tol", [(0.1, 1, 1, 1e-13), (0.2, 1, 1, 1e-11),
                                                (0.4, 1, 3, 1e-8)])
def test_lossless_protocol_matches_the_pure_state_series(lam, m_a, m_b, tol):
    # with t = 1 every stage is a pure state, whose untruncated series the
    # oracle sums; at 12 levels past the auto cutoff the truncation leaves
    # measured gaps of 1.2e-15, 2.4e-13 and 1.5e-9 over every malting cycle
    # and mashing round
    cfg = TruncationConfig(auto_n_max(lam) + 12)
    schedule = MaltingSchedule(m_a, m_b, LossChannelParams(1.0), SUB)
    _, out = full_protocol(lam, schedule, cfg)
    assert out.converged
    got = out.negativity_by_stage
    want = oracles.lossless_protocol_negativities(lam, SUB.t_s, m_a, m_b, out.iterations)
    assert len(got) == len(want) == max(m_a, m_b) + 1 + out.iterations
    assert max(abs(a - b) for a, b in zip(got, want)) <= tol


def _lossless_gain(lam, mu):
    # the lossless fixed point's gain over the squeezed state, from the
    # malted series with intensity mu, after 40 rounds
    fixed = oracles.lossless_mash_negativities(mu, 40, terms=60)[-1]
    return fixed - oracles.tmss_negativity_closed_form(lam)


def _lossless_m_c(lam, t_s):
    # branch j (arm A at cycle 1, arm B at j) malts with mu_j = lam t_s^(j+1)
    j = 0
    while _lossless_gain(lam, lam * t_s ** (j + 2)) > 0.0:
        j += 1
    return j


def _lossless_first_gain(lam):
    # the T_s = t_s^2 from which the lossless first branch gains
    lo, hi = 0.6, 0.8  # t_s bracketing the first gain
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _lossless_gain(lam, lam * mid * mid) > 0.0 else (mid, hi)
    return hi * hi


def test_first_gain_needs_half_the_intensity_through_the_splitter():
    # the paper's "about 50 %" law: the malted series has c_1 / c_0 = 2 mu
    # against lam for the squeezed state, so as lam -> 0 the first branch
    # (mu = lam t_s^2) gains once T_s = t_s^2 passes 1/2; a larger lam
    # needs more
    small, mid, large = (_lossless_first_gain(lam) for lam in (0.01, 0.1, 0.4))
    assert 0.5 < small < 0.501
    assert small < mid < large
    assert mid == pytest.approx(0.5049, abs=1e-4)
    assert large == pytest.approx(0.5312, abs=1e-4)


@pytest.mark.parametrize("lam", [0.1, 0.2])
def test_lossy_first_gain_needs_a_larger_splitter_than_the_lossless_law(lam):
    # the memory's loss before arm B's count costs the first branch some of
    # its gain, so it gains only from a larger t_s than the lossless law
    # gives, and the longer the memory lives the closer it comes to that law
    # (measured brackets: 0.71487 / 0.71100 at lam = 0.1, 0.72027 / 0.71568
    # at lam = 0.2 for tau = 100 / 1000, against 0.71058 and 0.71519)
    cfg = TruncationConfig(auto_n_max(lam))

    def first_gain(tau):
        # a t_s bracket (lo, hi] of the first gain: the scan retains no
        # branch at lo and one at hi
        loss = LossChannelParams.from_tau(tau)
        lo, hi = 0.6, 0.95
        for _ in range(14):
            mid = 0.5 * (lo + hi)
            gains = average_entanglement(lam, loss, SubtractionParams(mid), cfg).m_c >= 1
            lo, hi = (lo, mid) if gains else (mid, hi)
        return lo, hi

    (lo_100, _), (lo_1000, hi_1000) = first_gain(100.0), first_gain(1000.0)
    assert math.sqrt(_lossless_first_gain(lam)) < lo_1000
    assert hi_1000 < lo_100


@pytest.mark.parametrize("t_s, lossless", [(0.72, 1), (0.8, 2), (0.9, 5)])
def test_memory_loss_retains_no_more_attempts_than_the_lossless_law(t_s, lossless):
    # a decaying memory only shortens the run of gaining branches (the
    # library gives 1/1, 1/2 and 4/5 at tau = 100/1000)
    assert _lossless_m_c(0.1, t_s) == lossless
    for tau in (100.0, 1000.0):
        avg = average_entanglement(0.1, LossChannelParams.from_tau(tau), SubtractionParams(t_s), CFG)
        assert 1 <= avg.m_c <= lossless


@pytest.mark.parametrize("tau, m_c", [(2.0, 0), (10.0, 5), (100.0, 58)])
def test_near_lossless_splitter_scan_ends_below_its_cap(tau, m_c):
    # at t_s = 0.9999 the memory alone ends the gain; the scan must end by
    # itself, so that a silent cut at the cap would show
    loss = LossChannelParams.from_tau(tau)
    got = average_entanglement(LAM, loss, SubtractionParams(0.9999), CFG).m_c
    assert got == m_c < protocol._scan_cap(loss)


def test_scan_cap_is_three_times_the_tau_asked_for():
    # tau read back from t is off by up to about tau^2 eps (from_tau(2).tau
    # is 2.0000000000000004), which must not lift the cap by 3
    taus = range(2, 2001)
    assert [protocol._scan_cap(LossChannelParams.from_tau(tau)) for tau in taus] == [
        3 * tau for tau in taus
    ]
    caps = [protocol._scan_cap(LossChannelParams.from_tau(tau)) for tau in (2.5, 10.1, 99.99)]
    assert caps == [9, 33, 300]
    assert protocol._scan_cap(LossChannelParams(0.99)) == 153  # tau = 50.25...
    message = "the arm-B scan needs finite tau (t < 1), got t=1.0"
    with pytest.raises(ValueError, match=re.escape(message)):
        protocol._scan_cap(LossChannelParams(1.0))


@pytest.mark.parametrize("lam", [0.1, 0.2, 0.4])
def test_vacuum_probability_operator_matches_the_per_diagonal_product(lam):
    # a round's untruncated probability, the product-sum of x_i with the
    # run's operator z, against sum_j <x_0[j], V_j x_i[-j] V_j^T> per
    # diagonal j = 1 - d ... d - 1, where the stored diagonal |j| holds both
    # j and -j, on malted states at d = 8, 11 and 19 and a mashed iterate
    cfg = TruncationConfig(auto_n_max(lam))
    rho_0 = malt(lam, MaltingSchedule(1, 2, LOSS, SUB), cfg).state
    assert cfg.dim == {0.1: 8, 0.2: 11, 0.4: 19}[lam]
    x = np.stack([rho_0.sector, mash_step(rho_0, rho_0).state.sector])
    v = mashing._vacuum_weights(cfg.dim)
    per_diagonal = np.sum(rho_0.sector * (v @ x @ v.transpose(0, 2, 1)), axis=(-2, -1))
    want = per_diagonal[:, 0] + 2.0 * per_diagonal[:, 1:].sum(axis=-1)
    sources = mashing._mash_source(np.stack([rho_0.sector] * 2))
    prob = mashing._mash_round(x, sources)[1]
    assert prob == pytest.approx(want, rel=1e-14, abs=0.0)


def test_scan_chunks_double_up_to_the_cap():
    # chunks of widths 1, 2, 4, ... up to the cap, the last one short; none
    # is empty
    assert [len(c) for c in protocol._chunks(iter(range(20)), 4)] == [1, 2, 4, 4, 4, 4, 1]
    assert list(protocol._chunks(iter(range(1, 6)), 4)) == [[1], [2, 3], [4, 5]]
    assert list(protocol._chunks(iter(()), 4)) == []


@pytest.mark.parametrize("k, fail_at", [(0, (1, (1, 1))), (1, (1, (1, 0))),
                                        (2, (3, (None, 1))), (3, (3, (None, 0)))])
def test_a_vanished_count_ends_the_walk_with_its_error(monkeypatch, k, fail_at):
    # a count that vanishes at (cycle, outcomes) ends the walk after the
    # branches j = 1..k it reached, with one item whose state is its error
    real_step = protocol._count_step

    def step(state, sub, outcomes, cycle):
        if (cycle, outcomes) == fail_at:
            raise ZeroTraceError(f"vanished at {fail_at}")
        return real_step(state, sub, outcomes, cycle)

    monkeypatch.setattr(protocol, "_count_step", step)
    walk = list(protocol._arm_b_branches(LAM, LOSS, SUB, CFG, 6))
    assert [j for j, *_ in walk[:-1]] == list(range(1, k + 1))
    assert not any(isinstance(state, Exception) for *_, state in walk[:-1])
    j, _, error = walk[-1]
    assert j == k + 1
    assert isinstance(error, ZeroTraceError)
    assert str(error) == f"vanished at {fail_at}"


@pytest.mark.parametrize("max_iter", [50, 0], ids=["full", "malt-only"])
@pytest.mark.parametrize("bad_j", [5, 6, 8])
def test_scan_raises_a_malting_failure_only_if_it_reaches_it(monkeypatch, max_iter, bad_j):
    # at t_s = 0.9 the first failing j is 5 in both modes. A walk that fails
    # at j = 5 fails the scan; one that fails at j = 6 (inside the chunk
    # j = 4..7) or at j = 8 (the next chunk) leaves the result as it was
    sub = SubtractionParams(0.9)
    ref = average_entanglement(LAM, LOSS, sub, CFG, max_iter=max_iter)
    assert len(ref.terms) == 4
    real_walk = protocol._arm_b_branches

    def failing_walk(*args):
        for branch in real_walk(*args):
            if branch[0] == bad_j:
                yield bad_j, 0.0, ZeroTraceError(f"vanishing branch j={bad_j}")
                return
            yield branch

    monkeypatch.setattr(protocol, "_arm_b_branches", failing_walk)
    if bad_j == 5:
        with pytest.raises(ZeroTraceError, match="j=5"):
            average_entanglement(LAM, LOSS, sub, CFG, max_iter=max_iter)
    else:
        got = average_entanglement(LAM, LOSS, sub, CFG, max_iter=max_iter)
        # only the count of mashed branches moves: a failure at j = 6 cuts
        # the chunk j = 4..7 short, so j = 6 and 7 are never mashed
        assert got._replace(mashed_branches=ref.mashed_branches) == ref
        assert (ref.mashed_branches, got.mashed_branches) == (7, 5 if bad_j == 6 else 7)


def test_pij_reads_one_mode_vectors(monkeypatch):
    # the grid needs the squeezed state's photon-number weights and the
    # one-mode loss weights only: stand-ins that refuse to run take the place
    # of the two-mode state and of the two-mode loss maps
    from distillery import channels, core

    cfg = TruncationConfig(8)
    populations = tmss(LAM, cfg).sector[0].diagonal()

    def refuse(*args, **kwargs):
        raise AssertionError("a two-mode array was built for the pij grid")

    monkeypatch.setattr(protocol, "tmss", refuse)
    monkeypatch.setattr(channels, "_loss_maps", refuse)
    monkeypatch.setattr(protocol, "_loss_maps", refuse, raising=False)
    p = subtraction_probability_matrix(LAM, LOSS, SUB, cfg, 3, 3)
    # the weights are the squeezed state's populations, bit for bit
    assert np.array_equal(core._tmss_amplitudes(LAM, cfg) ** 2, populations)
    assert p[0, 0] == pytest.approx(P11_TRAJ_NMAX8, rel=1e-10)


def test_mash_iterate_reports_its_tail():
    rec = malt(LAM, MaltingSchedule(1, 1, LOSS, SUB), CFG)
    out = mash_iterate(rec.state)
    assert 0.0 < out.tail < CONV_TOL / 3
    two = mash_iterate(rec.state, max_iter=2)
    three = mash_iterate(rec.state, max_iter=3)
    assert three.tail == trace_distance(three.rho_final, two.rho_final) / 3
    _, run = full_protocol(LAM, MaltingSchedule(1, 1, LOSS, SUB), CFG)
    assert run.tail == out.tail


def test_average_entanglement_weights_shrink_with_postselection():
    # each weight carries the mashing vacuum probabilities on top of the
    # malting probability, so it can only be smaller
    avg = average_entanglement(LAM, LOSS, SUB, CFG)
    for j, p, _ in avg.terms[:3]:
        rec = malt(LAM, MaltingSchedule(1, j, LOSS, SUB), CFG)
        assert p < rec.joint_prob
        assert p > 0.0


def test_malt_only_gain_mode():
    # the malt-only baseline is the scan with zero mashing rounds
    malt_only = average_entanglement(LAM, LOSS, SUB, CFG, max_iter=0)
    full = average_entanglement(LAM, LOSS, SUB, CFG)
    assert malt_only.m_c >= 1
    # mashing adds negativity on top of malting, never removes the gain
    assert malt_only.m_c <= full.m_c
    with pytest.raises(ValueError, match="max_iter must be an integer >= 0"):
        average_entanglement(LAM, LOSS, SUB, CFG, max_iter=-1)


def test_protocol_never_expands_to_dense(monkeypatch):
    # malting, the pij grid and mashing work on the stored sector layout
    # alone; the d^4 expansion is for tests and oracles
    from distillery import core

    def refuse(sector):
        raise AssertionError("dense expansion in the protocol path")

    monkeypatch.setattr(core, "_dense", refuse)
    with pytest.raises(AssertionError):
        tmss(LAM, CFG).coeffs
    rec = malt(LAM, MaltingSchedule(1, 3, LOSS, SUB), CFG)
    p = subtraction_probability_matrix(LAM, LOSS, SUB, CFG, 3, 3)
    assert p[0, 0] == pytest.approx(P11_TRAJ_NMAX8, rel=1e-10)
    out = mash_iterate(rec.state)
    assert out.converged and out.iterations > 1
