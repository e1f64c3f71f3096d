import math

import numpy as np
import pytest

import oracles
from dense import partial_transpose, swap_modes
from distillery import (
    LossChannelParams,
    NotHermitianError,
    SubtractionParams,
    TruncationConfig,
    auto_n_max,
    detect_phonons,
    log_negativity,
    loss_event,
    min_eigenvalue,
    state_from_coeffs,
    tmss,
    trace_distance,
    trace_norm,
    vacuum,
)
from distillery.negativity import _log_negativities, _trace_distances


def _product_state(dim, seed):
    # the pinching (entries with n - k != m - l zeroed) of a random product
    # state: a twirl by local phases, so still separable
    rng = np.random.default_rng(seed)
    ga = rng.normal(size=(dim, dim))
    gb = rng.normal(size=(dim, dim))
    a = ga @ ga.T
    b = gb @ gb.T
    a /= np.trace(a)
    b /= np.trace(b)
    c = np.einsum("nk,ml->nmkl", a, b)
    n, m, k, l_ = np.indices(c.shape)
    c[n - k != m - l_] = 0.0
    return c


def test_partial_transpose_is_involution():
    st = tmss(0.2, TruncationConfig(10))
    pt = partial_transpose(st)
    back = pt.transpose(2, 1, 0, 3)
    assert np.abs(back - st.coeffs).max() == 0.0
    assert abs(np.einsum("nmnm->", pt).real - 1.0) < 1e-13


def test_partial_transpose_stays_hermitian():
    cfg = TruncationConfig(3)
    rng = np.random.default_rng(3)
    st = state_from_coeffs(oracles.random_state_coeffs(4, rng), cfg)
    pt = partial_transpose(st)
    m = pt.reshape(16, 16)
    assert np.abs(m - m.conj().T).max() < 1e-14


def test_product_states_are_ppt():
    cfg = TruncationConfig(3)
    for seed in range(12):
        st = state_from_coeffs(_product_state(4, seed), cfg)
        res = log_negativity(st)
        assert res.value == 0.0
        assert res.min_eig > -1e-10


def test_tmss_pt_negative_weight_identity():
    # absolute sum of negative eigenvalues determines the trace norm excess
    st = tmss(0.1, TruncationConfig(8), allow_truncation=True)
    evals = np.linalg.eigvalsh(partial_transpose(st).reshape(81, 81))
    neg_sum = -evals[evals < 0].sum()
    tn = trace_norm(partial_transpose(st))
    assert neg_sum > 1e-3
    assert neg_sum == pytest.approx((tn - 1.0) / 2.0, rel=1e-10)


def test_trace_norm_of_density_matrices_is_one():
    assert trace_norm(vacuum(TruncationConfig(4)).coeffs) == pytest.approx(1.0, rel=1e-13)
    assert trace_norm(tmss(0.1, TruncationConfig(7)).coeffs) == pytest.approx(1.0, rel=1e-13)


def test_trace_norm_sums_absolute_eigenvalues():
    c = np.zeros((3, 3, 3, 3), dtype=complex)
    c[0, 0, 0, 0] = 0.5
    c[1, 0, 1, 0] = -0.5
    assert trace_norm(c) == pytest.approx(1.0, rel=1e-14)


def test_trace_norm_agrees_with_svd_oracle():
    st = tmss(0.2, TruncationConfig(10))
    pt = partial_transpose(st)
    want = oracles.trace_norm_oracle(pt.reshape(121, 121))
    assert trace_norm(pt) == pytest.approx(want, rel=1e-12)
    assert trace_norm(pt) == pytest.approx((1 + 0.2) / (1 - 0.2), abs=2e-6)


def test_trace_norm_rejects_non_hermitian():
    c = np.zeros((3, 3, 3, 3), dtype=complex)
    c[0, 0, 1, 1] = 1.0
    with pytest.raises(NotHermitianError):
        trace_norm(c)


def test_log_negativity_vacuum_is_zero():
    res = log_negativity(vacuum(TruncationConfig(5)))
    assert res.value == 0.0
    assert not res.trunc_warning


def test_log_negativity_tmss_closed_form():
    for lam in (0.1, 0.2, 0.3, 0.4):
        cfg = TruncationConfig(auto_n_max(lam))
        got = log_negativity(tmss(lam, cfg)).value
        want = math.log2((1 + lam) / (1 - lam))
        tol = max(1e-6, 4 * lam ** (2 * (cfg.n_max + 1)))
        assert abs(got - want) < tol


def test_log_negativity_never_negative():
    for seed in range(10):
        rng = np.random.default_rng(seed + 40)
        st = state_from_coeffs(oracles.random_state_coeffs(4, rng), TruncationConfig(3))
        st = state_from_coeffs(st.coeffs / st.trace, TruncationConfig(3))
        assert log_negativity(st).value >= 0.0


def test_log_negativity_swap_invariant():
    cfg = TruncationConfig(7)
    st = tmss(0.1, cfg)
    # asymmetric state: subtraction on one arm only, then renormalized
    raw = detect_phonons(st, SubtractionParams(0.9), 1, 0)
    asym = state_from_coeffs(raw.coeffs / raw.trace, cfg)
    for s in (st, asym):
        a = log_negativity(s).value
        b = log_negativity(swap_modes(s)).value
        assert abs(a - b) < 1e-12


def test_trunc_warning_flags_lost_weight():
    cfg = TruncationConfig(7)
    raw = detect_phonons(tmss(0.1, cfg), SubtractionParams(0.99), 1, 1)
    res = log_negativity(raw)  # trace far below one
    assert res.trunc_warning
    assert res.value == 0.0
    assert not log_negativity(tmss(0.1, cfg)).trunc_warning


def test_negativity_monotone_under_loss():
    # entanglement monotone: no local channel may increase it
    params = [LossChannelParams.from_tau(tau) for tau in (10, 20, 40, 50, 80, 100, 1000)]
    cfg = TruncationConfig(4)
    rng = np.random.default_rng(77)
    states = [tmss(0.1, TruncationConfig(7))]
    for _ in range(6):
        c = oracles.random_state_coeffs(5, rng)
        states.append(state_from_coeffs(c / np.einsum("nmnm->", c).real, cfg))
    for st in states:
        before = log_negativity(st).value
        for p in params:
            after = log_negativity(loss_event(st, p)).value
            assert after <= before + 1e-9


def test_trace_distance_basics():
    cfg = TruncationConfig(2)
    a = vacuum(cfg)
    c = np.zeros((3, 3, 3, 3), dtype=complex)
    c[1, 1, 1, 1] = 1.0
    b = state_from_coeffs(c, cfg)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-15)
    assert trace_distance(a, b) == pytest.approx(1.0, rel=1e-13)
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), rel=1e-13)


def _dense_pt_eigs(st):
    d = st.dim
    return np.linalg.eigvalsh(partial_transpose(st).reshape(d * d, d * d))


def test_protocol_states_take_the_block_solve(monkeypatch):
    # states never reach a dense d^2 x d^2 solve: each call solves the
    # blocks of a stack of one; and input off the sector cannot become a
    # state
    shapes = []
    real_eigvalsh = np.linalg.eigvalsh

    def recording(a):
        shapes.append(np.shape(a))
        return real_eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    cfg = TruncationConfig(7)
    raw = detect_phonons(loss_event(tmss(0.3, cfg, allow_truncation=True),
                                    LossChannelParams.from_tau(100)),
                         SubtractionParams(0.9), 1, 1)
    st = state_from_coeffs(raw.coeffs / raw.trace, cfg)
    log_negativity(st)
    trace_distance(st, tmss(0.3, cfg, allow_truncation=True))
    min_eigenvalue(st)
    assert shapes == [(1, 15, 8, 8)] * 3
    rng = np.random.default_rng(5)
    g = rng.normal(size=(16, 16))
    dense = (g @ g.T).reshape(4, 4, 4, 4)
    with pytest.raises(ValueError, match="off that sector"):
        state_from_coeffs(dense, TruncationConfig(3))


def test_trace_norm_and_state_from_coeffs_report_the_same_defect():
    # the asymmetric entry lies inside the sector (n - k = m - l): the dense
    # check of trace_norm and the check where a tensor becomes a state
    # report the same defect
    cfg = TruncationConfig(4)
    c = tmss(0.2, cfg, allow_truncation=True).coeffs.copy()
    c[2, 1, 1, 0] += 0.3
    with pytest.raises(NotHermitianError, match=r"^hermiticity defect 0\.3 > 1e-10$"):
        trace_norm(c)
    with pytest.raises(NotHermitianError, match=r"^hermiticity defect 0\.3 > 1e-10$"):
        state_from_coeffs(c, cfg)


def test_trace_distance_checks_hermiticity_against_the_state_eig_tol():
    # trace_distance takes states, whose Hermiticity was checked against
    # their eig_tol where they were built: a 1e-8 asymmetry at eig_tol 1e-6
    # makes a state at a positive distance, a 1e-5 one makes no state
    cfg = TruncationConfig(4, eig_tol=1e-6)
    good = tmss(0.2, cfg, allow_truncation=True)
    for bump in (1e-8, 1e-5):
        c = good.coeffs.copy()
        c[2, 1, 1, 0] += bump
        if bump < cfg.eig_tol:
            assert trace_distance(state_from_coeffs(c, cfg), good) > 0.0
        else:
            with pytest.raises(NotHermitianError, match=r"1e-05 > 1e-06$"):
                trace_distance(state_from_coeffs(c, cfg), good)


def test_stacked_solves_equal_lone_solves_bitwise():
    # the scan solves a stack of states in one call; each gets exactly the
    # negativity and trace distance it gets alone
    cfg = TruncationConfig(7)
    lossy = loss_event(tmss(0.3, cfg, allow_truncation=True), LossChannelParams.from_tau(100))
    raw = detect_phonons(lossy, SubtractionParams(0.9), 1, 1)
    states = [
        state_from_coeffs(raw.coeffs / raw.trace, cfg),
        state_from_coeffs(_product_state(8, 4), cfg),
        tmss(0.3, cfg, allow_truncation=True),
    ]
    x = np.stack([st.sector for st in states])
    assert _log_negativities(x, cfg.eig_tol) == [log_negativity(st) for st in states]
    y = np.stack([states[1].sector, states[2].sector, states[0].sector])
    dist = _trace_distances(x, y)
    assert dist[0] == trace_distance(states[0], states[1])
    assert dist[1] == trace_distance(states[1], states[2])
    assert dist[2] == trace_distance(states[2], states[0])


def test_trunc_warning_state_diagnostics_match_dense_solve():
    # the state of test_trunc_warning_flags_lost_weight: its trace is far
    # below one, and min_eig must be the dense solve's
    cfg = TruncationConfig(7)
    raw = detect_phonons(tmss(0.1, cfg), SubtractionParams(0.99), 1, 1)
    res = log_negativity(raw)
    dense = _dense_pt_eigs(raw)
    assert res.min_eig == pytest.approx(dense[0], abs=1e-18)
    assert res.trunc_warning == (np.abs(dense).sum() < 1.0 - cfg.eig_tol)
    assert res.trunc_warning and res.value == 0.0
    assert min_eigenvalue(raw) == pytest.approx(
        np.linalg.eigvalsh(raw.as_matrix())[0], abs=1e-18
    )
