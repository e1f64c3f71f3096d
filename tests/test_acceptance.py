"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with -s or check the captured output)."""

import functools
import math
import time

import numpy as np

import oracles
from dense import truncated_tmss
from distillery import (
    LossChannelParams,
    MaltingSchedule,
    SubtractionParams,
    TruncationConfig,
    auto_n_max,
    average_entanglement,
    detect_one_mode,
    detect_phonons,
    fock_bs_element,
    full_protocol,
    log_negativity,
    loss_event,
    loss_kraus,
    malt,
    normalize,
    repeated_loss,
    state_from_coeffs,
    subtraction_probability_matrix,
    tmss,
)
from distillery.cli import main

P11_TRAJ_NMAX8 = 3.993432960736389e-06


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {num:2d}: FAIL  {desc}")
                raise
            print(f"CRITERION {num:2d}: PASS  {desc}  [{time.perf_counter() - t0:.1f}s]")
        return run
    return wrap


@criterion(1, "TMSS negativity matches the closed form at auto cutoff")
def test_criterion_01_tmss_negativity_closed_form():
    t0 = time.perf_counter()
    for lam in (0.1, 0.2, 0.3, 0.4):
        cfg = TruncationConfig(auto_n_max(lam))
        got = log_negativity(tmss(lam, cfg)).value
        want = math.log2((1 + lam) / (1 - lam))
        assert abs(got - want) < 1e-6, (lam, got, want)
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "repeated loss equals the brute-force multi-event oracle")
def test_criterion_02_loss_oracle_equivalence():
    t0 = time.perf_counter()
    n_max = 3
    for lam in (0.1, 0.5):
        st0 = truncated_tmss(lam, n_max)
        for tau in (10.0, 100.0):
            params = LossChannelParams.from_tau(tau)
            for m in range(4):
                got = repeated_loss(st0, params, m).coeffs
                want = oracles.repeated_loss_oracle(lam, n_max, params.t, m)
                diff = np.abs(got - want).max()
                assert diff < 1e-12, (lam, tau, m, diff)
    assert time.perf_counter() - t0 < 10.0


@criterion(3, "channel sanity: trace, PSD, completeness, sector unitarity")
def test_criterion_03_channel_sanity_properties():
    rng = np.random.default_rng(2026)
    dim = 5
    cfg = TruncationConfig(dim - 1)
    loss = LossChannelParams.from_tau(30.0)
    sub = SubtractionParams(0.9)
    for _ in range(120):
        c = oracles.random_state_coeffs(dim, rng)
        st = state_from_coeffs(c, cfg)
        out = loss_event(st, loss)
        assert abs(out.trace - st.trace) < 1e-10
        assert np.linalg.eigvalsh(out.as_matrix()).min() > -1e-10
        total = sum(detect_one_mode(st, sub, "A", q).trace for q in range(dim))
        assert abs(total - st.trace) < 1e-10
    for t in (0.3, 1 / math.sqrt(2), 0.99):
        ks = loss_kraus(t, dim)
        acc = sum(k.T @ k for k in ks)
        assert np.abs(acc - np.eye(dim)).max() < 1e-12
        for n1 in range(dim):
            for n2 in range(dim - n1):
                s = sum(
                    fock_bs_element(n1, n2, m1, n1 + n2 - m1, t) ** 2
                    for m1 in range(n1 + n2 + 1)
                )
                assert abs(s - 1.0) < 1e-12


@criterion(4, "decay curves: anchored start, monotone, correctly ordered")
def test_criterion_04_decay_curve_shapes():
    t0 = time.perf_counter()
    tau = 100.0
    loss = LossChannelParams.from_tau(tau)
    sub = SubtractionParams(loss.t)  # equal transmissivities
    for lam in (0.1, 0.15, 0.2):
        cfg = TruncationConfig(auto_n_max(lam))
        s_loss = s_vac = s_both = tmss(lam, cfg)
        curves = ([], [], [])
        for m in range(21):
            for curve, st in zip(curves, (s_loss, s_vac, s_both)):
                curve.append(log_negativity(st).value)
            s_loss = loss_event(s_loss, loss)
            s_vac, _ = normalize(detect_phonons(s_vac, sub, 0, 0))
            s_both, _ = normalize(detect_phonons(loss_event(s_both, loss), sub, 0, 0))
        want = math.log2((1 + lam) / (1 - lam))
        for curve in curves:
            assert abs(curve[0] - want) < 1e-6
            assert all(b < a for a, b in zip(curve, curve[1:])), lam
        c_loss, c_vac, c_both = curves
        assert all(l < v for l, v in zip(c_loss[1:], c_vac[1:])), lam
        assert all(b < min(l, v) for l, v, b in zip(c_loss[1:], c_vac[1:], c_both[1:]))
    assert time.perf_counter() - t0 < 60.0


@criterion(5, "post-malting negativity strictly ordered by memory quality")
def test_criterion_05_malting_tau_ordering():
    t0 = time.perf_counter()
    lam = 0.1
    cfg = TruncationConfig(auto_n_max(lam))
    sub = SubtractionParams(0.99)
    finals = []
    for tau in (10, 20, 40, 50, 80, 100):
        sched = MaltingSchedule(15, 20, LossChannelParams.from_tau(tau), sub)
        finals.append(malt(lam, sched, cfg).negativity_trace[-1][1])
    assert all(b > a for a, b in zip(finals, finals[1:])), finals
    baseline = math.log2((1 + lam) / (1 - lam))
    assert finals[0] <= baseline  # tau=10: no gain over the input state
    assert finals[-1] > baseline
    assert time.perf_counter() - t0 < 120.0


@criterion(6, "subtraction matrix symmetric, decaying, anchored at the oracle")
def test_criterion_06_subtraction_probability_matrix():
    cfg = TruncationConfig(8)
    loss = LossChannelParams.from_tau(100.0)
    sub = SubtractionParams(0.99)
    p = subtraction_probability_matrix(0.1, loss, sub, cfg, 20, 20)
    assert np.abs(p - p.T).max() < 1e-10
    assert all(p[i, j] > p[i, j + 1] for i in range(20) for j in range(19))
    assert all(p[i, j] > p[i + 1, j] for i in range(19) for j in range(20))
    assert abs(p[0, 0] - P11_TRAJ_NMAX8) < 1e-10
    live = oracles.p11_trajectory_oracle(0.1, 8, loss.t, 0.99)
    assert abs(p[0, 0] - live) < 1e-10


@criterion(7, "full protocol: gains ordered by t_s, mashing matters at high squeezing")
def test_criterion_07_full_protocol_gains():
    t0 = time.perf_counter()
    loss = LossChannelParams.from_tau(100.0)
    gains = {}
    for lam in (0.1, 0.4):
        cfg = TruncationConfig(auto_n_max(lam))
        baseline = math.log2((1 + lam) / (1 - lam))
        finals = []
        for ts in (0.96, 0.98, 0.99):
            sched = MaltingSchedule(1, 10, loss, SubtractionParams(ts))
            rec, out = full_protocol(lam, sched, cfg)
            assert out.converged and out.iterations <= 50
            post_malt = rec.negativity_trace[-1][1]
            assert out.negativity_by_stage[10] == post_malt
            final = out.negativity_by_stage[-1]
            assert final > baseline
            finals.append(final)
            gains[lam, ts] = (post_malt - baseline, final - post_malt)
        assert all(b > a for a, b in zip(finals, finals[1:])), (lam, finals)
    for ts in (0.96, 0.98, 0.99):
        malt_low, mash_low = gains[0.1, ts]
        malt_high, mash_high = gains[0.4, ts]
        assert mash_high > mash_low
        # ratio comparison in cross-multiplied form: at moderate t_s the
        # high-squeezing malting stage can lose ground (negative gain),
        # where mashing carries strictly more of the improvement
        assert malt_low > 0
        assert mash_high * malt_low > mash_low * malt_high, (ts, gains)
    assert time.perf_counter() - t0 < 600.0


@criterion(8, "critical attempt count: threshold near 0.7, tau scaling, bound")
def test_criterion_08_critical_attempts():
    t0 = time.perf_counter()
    loss100 = LossChannelParams.from_tau(100.0)
    for lam in (0.1, 0.2):
        cfg = TruncationConfig(auto_n_max(lam))
        first_gain = None
        prev = 0
        for ts in np.arange(0.600, 0.8001, 0.025):
            mc = average_entanglement(lam, loss100, SubtractionParams(float(ts)), cfg).m_c
            assert mc >= prev  # non-decreasing along the sweep
            prev = mc
            if first_gain is None and mc >= 1:
                first_gain = float(ts)
        assert first_gain is not None and 0.65 <= first_gain <= 0.75, (lam, first_gain)
    cfg = TruncationConfig(auto_n_max(0.1))
    by_tau = {}
    for tau in (100.0, 1000.0):
        loss = LossChannelParams.from_tau(tau)
        for ts in (0.8, 0.99):
            cc = average_entanglement(0.1, loss, SubtractionParams(ts), cfg)
            assert cc.m_c <= math.ceil(tau) * 3
            by_tau[tau, ts] = cc.m_c
    moderate_gap = abs(by_tau[1000.0, 0.8] - by_tau[100.0, 0.8])
    extreme_gap = by_tau[1000.0, 0.99] - by_tau[100.0, 0.99]
    assert moderate_gap <= 2, by_tau
    assert extreme_gap > 5 * max(1, moderate_gap), by_tau
    assert all(mc >= 1 for mc in by_tau.values())
    assert time.perf_counter() - t0 < 1800.0


@criterion(9, "average entanglement non-decreasing in t_s, zero without gain")
def test_criterion_09_average_entanglement():
    t0 = time.perf_counter()
    lam = 0.1
    cfg = TruncationConfig(auto_n_max(lam))
    for tau in (100.0, 1000.0):
        loss = LossChannelParams.from_tau(tau)
        values = []
        for ts in (0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99):
            avg = average_entanglement(lam, loss, SubtractionParams(ts), cfg)
            mc = len(avg.terms)
            if mc == 0:
                assert avg.value == 0.0
            values.append(avg.value)
        assert all(b >= a for a, b in zip(values, values[1:])), (tau, values)
        assert values[0] == 0.0 and values[-1] > 0.0
    assert time.perf_counter() - t0 < 1800.0


@criterion(10, "identical CSV bodies across thread counts")
def test_criterion_10_thread_determinism(tmp_path):
    def body(path):
        with open(path, "rb") as fh:
            return [l for l in fh.read().split(b"\n") if not l.startswith(b"#")]

    runs = {
        "pij": ["pij", "--lambda", "0.1", "--tau", "100", "--ts", "0.99",
                "--imax", "3", "--jmax", "3"],
        "mc": ["mc-sweep", "--lambda", "0.1", "--tau", "100",
               "--ts", "0.7:0.8:0.05"],
        "avg": ["avg-ent", "--lambda", "0.1", "--tau", "100",
                "--ts", "0.7:0.8:0.05"],
    }
    for name, argv in runs.items():
        one = tmp_path / f"{name}_1.csv"
        eight = tmp_path / f"{name}_8.csv"
        assert main(argv + ["--threads", "1", "--out", str(one)]) == 0
        assert main(argv + ["--threads", "8", "--out", str(eight)]) == 0
        assert body(one) == body(eight), name
