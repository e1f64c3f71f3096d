import math

import numpy as np
import pytest

import oracles
from dense import swap_modes, trace_of, truncated_tmss
from distillery import (
    LossChannelParams,
    SubtractionParams,
    TruncationConfig,
    ZeroTraceError,
    bs_amplitude,
    detect_one_mode,
    detect_phonons,
    fock_bs_element,
    log_negativity,
    loss_event,
    loss_kraus,
    mash_step,
    normalize,
    repeated_loss,
    state_from_coeffs,
    tmss,
    vacuum,
)
from distillery import channels, mashing, protocol
from distillery.channels import _loss_maps
from distillery.mashing import _mash_source, _sqrt_fact
from distillery.core import TRACE_TOL

# double subtraction q_A=q_B=1 straight on tmss(0.1), t_s=0.99, n_max=8,
# from the brute-force contraction in oracles.subtract_oracle
P_SUB_Q11_NMAX8 = 4.074451932918439e-06


def _random_state(dim, seed):
    rng = np.random.default_rng(seed)
    cfg = TruncationConfig(dim - 1)
    return state_from_coeffs(oracles.random_state_coeffs(dim, rng), cfg)


def _random_stored(dim, seed):
    # a random stored array, padding zero: not a state, for checks of the
    # linear kernels' arithmetic at cutoffs where _random_state is costly
    rng = np.random.default_rng(seed)
    j, p, q = np.ogrid[:dim, :dim, :dim]
    x = np.where((p + j < dim) & (q + j < dim), rng.random((dim, dim, dim)), 0.0)
    return channels._wrap_fresh(x)


def test_loss_params_tau_round_trip():
    p = LossChannelParams(math.sqrt(1 - 1 / 100))
    assert p.tau == pytest.approx(100.0, rel=1e-12)
    q = LossChannelParams.from_tau(100.0)
    assert q.t == pytest.approx(p.t, rel=1e-15)
    assert LossChannelParams(1.0).tau == math.inf
    with pytest.raises(ValueError):
        LossChannelParams(0.0)
    with pytest.raises(ValueError):
        LossChannelParams.from_tau(1.0)
    with pytest.raises(ValueError):
        SubtractionParams(1.0)


def test_bs_amplitude_known_values():
    t = 0.8
    r = 0.6
    assert bs_amplitude(1, 0, t) == pytest.approx(t, rel=1e-15)
    assert bs_amplitude(1, 1, t) == pytest.approx(r, rel=1e-14)
    assert bs_amplitude(2, 1, t) == pytest.approx(math.sqrt(2) * t * r, rel=1e-14)
    assert sum(bs_amplitude(5, q, 0.7) ** 2 for q in range(6)) == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(ValueError):
        bs_amplitude(1, 2, t)


def test_bs_amplitude_stays_finite_past_float_binomials():
    # C(1100, 550) and its neighbours exceed 2^1024, which float64 cannot hold
    assert 0.0 <= bs_amplitude(1100, 550, 0.7071) <= 1.0
    total = math.fsum(bs_amplitude(1100, q, 0.7) ** 2 for q in range(1101))
    assert abs(total - 1.0) < 1e-12
    # at t = 1 no quantum is removed: exactly 0 for q > 0, binomial beyond
    # float64 or not
    assert bs_amplitude(1100, 500, 1.0) == 0.0
    assert not channels._kraus_weights(500, 1.0, 1101).any()


@pytest.mark.parametrize("dim, qs", [(34, range(34)), (1101, (0, 1, 550, 1000))])
def test_kraus_weight_rows_equal_bs_amplitude_bitwise(dim, qs):
    # the rows keep C(n + q, q) as a running integer instead of a math.comb
    # per entry; q = 550 at d = 1101 reaches binomials beyond float64
    for t in (0.99499, 0.7071):
        for q in qs:
            want = np.array([bs_amplitude(n + q, q, t) for n in range(dim - q)])
            assert channels._kraus_weights(q, t, dim).tobytes() == want.tobytes(), (t, q)


def test_loss_kraus_equals_bs_amplitude_bitwise():
    # the Kraus operators are built from the rows of _kraus_weights, each
    # entry as bs_amplitude would give it alone
    dim = 12
    for t in (0.3, 0.7071, 0.99):
        want = np.zeros((dim, dim, dim))
        for q in range(dim):
            for n in range(q, dim):
                want[q, n - q, n] = bs_amplitude(n, q, t)
        assert loss_kraus(t, dim).tobytes() == want.tobytes(), t


def test_loss_identity_at_unit_transmissivity():
    st = tmss(0.1, TruncationConfig(7))
    out = loss_event(st, LossChannelParams(1.0))
    assert np.abs(out.coeffs - st.coeffs).max() < 1e-15


def test_loss_vacuum_fixed_point():
    cfg = TruncationConfig(5)
    for t in (0.3, 0.9):
        out = loss_event(vacuum(cfg), LossChannelParams(t))
        assert np.abs(out.coeffs - vacuum(cfg).coeffs).max() < 1e-15


def test_single_loss_matches_term_oracle():
    st = truncated_tmss(0.1, 3)
    params = LossChannelParams.from_tau(100.0)
    got = loss_event(st, params)
    want = oracles.repeated_loss_oracle(0.1, 3, params.t, 1)
    assert np.abs(got.coeffs - want).max() < 1e-14


def test_repeated_loss_zero_is_identity():
    st = tmss(0.1, TruncationConfig(7))
    out = repeated_loss(st, LossChannelParams.from_tau(50.0), 0)
    assert np.abs(out.coeffs - st.coeffs).max() == 0.0


def test_repeated_loss_matches_oracle():
    st = truncated_tmss(0.1, 3)
    params = LossChannelParams.from_tau(10.0)
    got = repeated_loss(st, params, 2)
    want = oracles.repeated_loss_oracle(0.1, 3, params.t, 2)
    assert np.abs(got.coeffs - want).max() < 1e-14


def test_loss_negativity_strictly_decreasing():
    cfg = TruncationConfig(7)
    params = LossChannelParams.from_tau(100.0)
    st = tmss(0.1, cfg)
    prev = log_negativity(st).value
    for _ in range(5):
        st = loss_event(st, params)
        cur = log_negativity(st).value
        assert cur < prev
        prev = cur


def test_loss_channel_properties_on_random_states():
    params = LossChannelParams.from_tau(20.0)
    for seed in range(25):
        st = _random_state(7, seed)
        out = loss_event(st, params)
        assert abs(out.trace - st.trace) < 1e-14
        evals = np.linalg.eigvalsh(out.as_matrix())
        assert evals.min() > -1e-10
        # loss acts on each mode independently, so it commutes with the swap
        sw = loss_event(swap_modes(st), params)
        assert np.abs(sw.coeffs - swap_modes(out).coeffs).max() < 1e-14


def test_loss_kraus_completeness():
    for t in (0.4, 0.8, 0.99):
        for dim in (4, 9):
            ks = loss_kraus(t, dim)
            acc = np.zeros((dim, dim))
            for q in range(dim):
                acc += ks[q].T @ ks[q]
            assert np.abs(acc - np.eye(dim)).max() < 1e-13


def test_loss_maps_equal_kron_sum_bitwise():
    # L[j][p_out, p_in] is the one-mode superoperator sum_q K_q (x) K_q at
    # (ket, bra) pairs (p_out + j, p_out) <- (p_in + j, p_in): each entry
    # the same single-q product, and zero wherever a pair leaves the cutoff;
    # each bucket's maps are its slice (j0:j1, :s, :s) of that reference
    for dim in (9, 19, 34):
        for t in (LossChannelParams.from_tau(100).t, 0.6):
            ks = loss_kraus(t, dim)
            sup = np.zeros((dim,) * 4)
            for q in range(dim):
                sup += np.kron(ks[q], ks[q]).reshape((dim,) * 4)
            j, p_out, p_in = np.indices((dim, dim, dim))
            ok = (p_out + j < dim) & (p_in + j < dim)
            top = dim - 1
            want = np.where(ok, sup[np.minimum(p_out + j, top), p_out,
                                    np.minimum(p_in + j, top), p_in], 0.0)
            maps = _loss_maps(t, dim)
            assert [b for b, _ in maps] == list(channels._loss_buckets(dim))
            for b, m in maps:
                assert m.tobytes() == want[b].tobytes(), (dim, b)


def test_loss_buckets_cover_every_diagonal_once():
    for dim in range(1, 200):
        buckets = channels._loss_buckets(dim)
        js = [j for b, _, _ in buckets for j in range(b.start, b.stop)]
        assert js == list(range(dim)), dim
        if dim <= 16:
            assert len(buckets) == 1, dim
        for j, s, s_b in buckets:
            # a bucket's side is its first diagonal's length, and past side
            # 16 it takes exactly the diagonals longer than s / 2
            assert s == s_b and s.stop == dim - j.start, dim
            if s.stop > 16:
                assert 2 * (dim - (j.stop - 1)) > s.stop >= 2 * (dim - j.stop), dim


@pytest.mark.parametrize("dim", [17, 34, 49])
def test_bucketed_loss_equals_the_padded_product(dim):
    # each bucket's maps zero-padded to d x d and stacked give the batched
    # product over all diagonals at the full side; on a random stored array
    # (loss is linear, so it need not be a state) the buckets agree with it
    assert len(channels._loss_buckets(dim)) >= 2
    st = _random_stored(dim, dim)
    x = st.sector
    for params in (LossChannelParams.from_tau(100), LossChannelParams(0.6)):
        maps = np.zeros((dim, dim, dim))
        for b, m in _loss_maps(params.t, dim):
            maps[b] = m
        want = maps @ x @ maps.transpose(0, 2, 1)
        # freed memory full of NaN, so that padding the output leaves
        # unwritten would show
        np.full((dim, dim, dim), np.nan)
        got = loss_event(st, params).sector
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), params


def test_transmissivity_caches_stay_bounded():
    # a library loop over 30 memory lifetimes and splitters keeps the loss
    # maps of two t and the count rows of two t_s points, not all of them
    _loss_maps.cache_clear()
    channels._count_rows.cache_clear()
    state = truncated_tmss(0.3, 5)
    for tau in np.linspace(10.0, 1000.0, 30):
        loss = LossChannelParams.from_tau(tau)
        state = loss_event(state, loss)
        sub = SubtractionParams(1.0 - 1.0 / tau)
        for q in (0, 1):
            detect_one_mode(state, sub, "A", q)
    maps, rows = _loss_maps.cache_info(), channels._count_rows.cache_info()
    assert (maps.misses, maps.currsize) == (30, 2)
    assert (rows.misses, rows.currsize) == (60, 4)


def test_detect_vacuum_outcomes():
    cfg = TruncationConfig(5)
    sub = SubtractionParams(0.9)
    out = detect_phonons(vacuum(cfg), sub, 0, 0)
    assert out.trace == pytest.approx(1.0, abs=1e-15)
    assert np.abs(out.coeffs - vacuum(cfg).coeffs).max() < 1e-15
    gone = detect_phonons(vacuum(cfg), sub, 1, 0)
    assert gone.trace == pytest.approx(0.0, abs=1e-16)


def test_detect_rejects_outcome_beyond_cutoff():
    cfg = TruncationConfig(3)
    with pytest.raises(ValueError):
        detect_phonons(vacuum(cfg), SubtractionParams(0.9), 4, 0)


def test_double_subtraction_matches_frozen_oracle():
    cfg = TruncationConfig(8)
    st = tmss(0.1, cfg)
    sub = SubtractionParams(0.99)
    got = detect_phonons(st, sub, 1, 1)
    assert got.trace == pytest.approx(P_SUB_Q11_NMAX8, rel=1e-10)
    want, p = oracles.subtract_oracle(st.coeffs, 0.99, 1, 1)
    assert got.trace == pytest.approx(p, rel=1e-12)
    assert np.abs(got.coeffs - want).max() < 1e-18


@pytest.mark.parametrize("q_a, q_b", [(0, 0), (1, 0), (0, 2), (1, 1)])
def test_detection_on_asymmetric_states_matches_oracle(q_a, q_b):
    # random states are not A<->B symmetric, so a mode mix-up cannot pass
    sub = SubtractionParams(0.8)
    for seed in range(3):
        st = _random_state(5, seed + 200)
        got = detect_phonons(st, sub, q_a, q_b)
        want, p = oracles.subtract_oracle(st.coeffs, 0.8, q_a, q_b)
        assert np.abs(got.coeffs - want).max() < 1e-13
        assert got.trace == pytest.approx(p, abs=1e-13)
        seq = detect_one_mode(detect_one_mode(st, sub, "A", q_a), sub, "B", q_b)
        assert np.abs(seq.coeffs - got.coeffs).max() < 1e-13


@pytest.mark.parametrize("dim", [8, 34])
def test_joint_count_equals_one_arm_after_the_other_bitwise(dim):
    # the one-pass count of both arms is arm A's count and then arm B's
    st = _random_stored(dim, 300)
    sub = SubtractionParams(0.8)
    for q_a in (0, 1, 2):
        for q_b in (0, 1, 2):
            joint = detect_phonons(st, sub, q_a, q_b)
            seq = detect_one_mode(detect_one_mode(st, sub, "A", q_a), sub, "B", q_b)
            assert joint.sector.tobytes() == seq.sector.tobytes(), (q_a, q_b)
            assert joint.trace == seq.trace


def test_detect_one_mode_single_photon_traces():
    cfg = TruncationConfig(2)
    c = np.zeros((3, 3, 3, 3), dtype=complex)
    c[1, 0, 1, 0] = 1.0  # |1,0><1,0|
    st = state_from_coeffs(c, cfg)
    ts = 0.8
    sub = SubtractionParams(ts)
    assert detect_one_mode(st, sub, "A", 1).trace == pytest.approx(1 - ts**2, rel=1e-13)
    assert detect_one_mode(st, sub, "A", 0).trace == pytest.approx(ts**2, rel=1e-13)
    # mode B holds vacuum: subtraction there can only fail
    assert detect_one_mode(st, sub, "B", 1).trace == pytest.approx(0.0, abs=1e-16)


def test_detection_outcomes_are_complete():
    sub = SubtractionParams(0.7)
    for seed in range(10):
        st = _random_state(5, seed + 100)
        total = sum(
            detect_one_mode(st, sub, "A", q).trace for q in range(st.dim)
        )
        assert abs(total - st.trace) < 1e-13


def test_fock_bs_single_photon_block():
    t = 0.6
    r = 0.8
    assert fock_bs_element(0, 1, 0, 1, t) == pytest.approx(t, rel=1e-14)
    assert fock_bs_element(0, 1, 1, 0, t) == pytest.approx(r, rel=1e-14)
    assert fock_bs_element(1, 0, 0, 1, t) == pytest.approx(-r, rel=1e-14)
    assert fock_bs_element(1, 0, 1, 0, t) == pytest.approx(t, rel=1e-14)
    assert fock_bs_element(1, 0, 0, 2, t) == 0.0


def test_fock_bs_sector_unitarity():
    for t in (0.5, 1 / math.sqrt(2), 0.95):
        for n1 in range(5):
            for n2 in range(5 - n1):
                total = sum(
                    fock_bs_element(n1, n2, m1, n1 + n2 - m1, t) ** 2
                    for m1 in range(n1 + n2 + 1)
                )
                assert abs(total - 1.0) < 1e-13


def test_sqrt_fact_matches_exact_factorials():
    sf = _sqrt_fact(40)
    for k in range(41):
        assert sf[k] == pytest.approx(math.sqrt(math.factorial(k)), rel=1e-14)


def test_fock_bs_element_beyond_float_factorials():
    # 172! overflows float64, so sqrt(172!) must be built without it
    t = 0.7
    assert fock_bs_element(172, 0, 172, 0, t) == pytest.approx(t**172, rel=1e-12)


def test_fock_bs_element_without_cancellation():
    # the alternating binomial sum lost 8 digits here: -C(30,15)/2^30 exactly
    s = 1 / math.sqrt(2)
    want = -math.comb(30, 15) / 2**30
    assert fock_bs_element(30, 30, 30, 30, s) == pytest.approx(want, rel=1e-13)
    for t in (0.3, s, 0.7071, 0.95):
        for n1 in (0, 37, 50, 100):
            n2 = 100 - n1
            total = sum(fock_bs_element(n1, n2, m1, 100 - m1, t) ** 2 for m1 in range(101))
            assert abs(total - 1.0) < 1e-12


def test_fock_bs_hong_ou_mandel():
    s = 1 / math.sqrt(2)
    assert fock_bs_element(1, 1, 1, 1, s) == pytest.approx(0.0, abs=1e-14)
    assert fock_bs_element(1, 1, 0, 2, s) ** 2 == pytest.approx(0.5, rel=1e-13)
    assert fock_bs_element(1, 1, 2, 0, s) ** 2 == pytest.approx(0.5, rel=1e-13)


def test_fock_bs_matches_exponentiated_generator():
    dim = 5
    for t in (0.3, 1 / math.sqrt(2), 0.9):
        u = oracles.bs_unitary_2mode(dim, t)
        for n1 in range(dim):
            for n2 in range(dim - n1):
                for m1 in range(dim):
                    m2 = n1 + n2 - m1
                    if not 0 <= m2 < dim:
                        continue
                    want = u[m1 * dim + m2, n1 * dim + n2].real
                    got = fock_bs_element(n1, n2, m1, m2, t)
                    assert abs(got - want) < 1e-13


def test_mash_step_vacuum_fixed_point():
    cfg = TruncationConfig(4)
    res = mash_step(vacuum(cfg), vacuum(cfg))
    assert np.abs(res.state.coeffs - vacuum(cfg).coeffs).max() < 1e-15
    assert res.prob == pytest.approx(1.0, abs=1e-14)
    assert res.discarded_weight == pytest.approx(0.0, abs=1e-15)


def _oracle_mash(a, b, reflection_sign=-1):
    # split the enlarged-dimension oracle output into the kept block and
    # the weight shed past the cutoff, mirroring what mash_step reports
    full, p_full = oracles.mash_oracle(a.coeffs, b.coeffs, reflection_sign)
    d = a.dim
    kept = full[:d, :d, :d, :d]
    kept_tr = np.einsum("nmnm->", kept).real
    return kept / kept_tr, p_full, p_full - kept_tr


def test_mash_step_matches_four_mode_oracle():
    # random inputs fill the whole sector, so they reach every index path
    # of the contraction
    cfg = TruncationConfig(2)
    rng = np.random.default_rng(11)
    for _ in range(3):
        a = state_from_coeffs(oracles.random_state_coeffs(3, rng), cfg)
        b = state_from_coeffs(oracles.random_state_coeffs(3, rng), cfg)
        res = mash_step(a, b)
        want, p_want, cut_want = _oracle_mash(a, b)
        assert res.prob == pytest.approx(p_want, rel=1e-12)
        assert np.abs(res.state.coeffs - want).max() < 1e-13
        assert res.discarded_weight == pytest.approx(cut_want, abs=1e-14)


def _malted_cutoff_two(lam):
    # One malting cycle (loss, then a count on each arm) on a TMSS cut at
    # n_max = 3. The count leaves levels <= 2 only, so the state is exact at
    # n_max = 2, and every coefficient lies in the sector n - k = m - l.
    st = truncated_tmss(lam, 3)
    st = loss_event(st, LossChannelParams.from_tau(100.0))
    st = detect_phonons(st, SubtractionParams(0.9), 1, 1)
    return normalize(state_from_coeffs(st.coeffs[:3, :3, :3, :3], TruncationConfig(2)))[0]


def test_mash_step_matches_oracle_on_sector_states():
    # a malted state fills part of the sector, a random state all of it;
    # both cases shed weight past the cutoff, so the closed-form prob is
    # checked where the discarded tail is not empty
    malted = _malted_cutoff_two(0.6)
    n, m, k, l_ = np.indices(malted.coeffs.shape)
    assert not np.any(malted.coeffs[n - k != m - l_])
    rng = np.random.default_rng(13)
    full = state_from_coeffs(oracles.random_state_coeffs(3, rng), TruncationConfig(2))
    for a, b in ((malted, malted), (full, malted)):
        res = mash_step(a, b)
        want, p_want, cut_want = _oracle_mash(a, b)
        assert cut_want > 1e-6
        assert res.prob == pytest.approx(p_want, rel=1e-12)
        assert np.abs(res.state.coeffs - want).max() < 1e-13
        assert res.discarded_weight == pytest.approx(cut_want, abs=1e-14)


def test_mash_step_insensitive_to_bs_sign_convention():
    # the protocol's states have even total parity, so flipping the
    # reflection sign of the mashing splitters cannot change the output:
    # the sign enters as (-1)^(n+m+k+l), which is 1 on the sector
    # n - k = m - l, so the kernel carries none and must match the
    # oracle under either sign
    st = truncated_tmss(0.1, 2)
    malted = _malted_cutoff_two(0.6)
    for a, b in ((st, st), (malted, malted)):
        res = mash_step(a, b)
        outs = [_oracle_mash(a, b, sign) for sign in (-1, +1)]
        for want, p_want, _ in outs:
            assert np.abs(res.state.coeffs - want).max() < 1e-14
            assert res.prob == pytest.approx(p_want, rel=1e-13)
        assert np.abs(outs[0][0] - outs[1][0]).max() < 1e-14


def test_mash_step_requires_normalized_inputs():
    cfg = TruncationConfig(3)
    st = truncated_tmss(0.1, 3)
    half = state_from_coeffs(0.5 * st.coeffs, cfg)
    with pytest.raises(ValueError):
        mash_step(half, st)
    with pytest.raises(ValueError):
        mash_step(st, half)


def test_mash_step_probability_in_unit_interval():
    for seed in range(8):
        st = _random_state(4, seed + 50)
        st = state_from_coeffs(st.coeffs / st.trace, TruncationConfig(3))
        res = mash_step(st, st)
        assert -1e-14 <= res.prob <= 1.0 + 1e-12
        assert res.discarded_weight >= 0.0


def test_mash_step_reports_truncation_discard():
    # heavy ladder tail at a tight cutoff must shed weight past n_max
    st = truncated_tmss(0.4, 2)
    res = mash_step(st, st)
    assert res.discarded_weight > 1e-6
    assert res.prob >= trace_of(res.state) * 0  # prob counts the full block


def _one_cycle_state(cfg):
    # one loss-and-double-count malting cycle of a truncated TMSS, normalized
    lossy = loss_event(truncated_tmss(0.3, cfg.n_max), LossChannelParams.from_tau(50))
    return normalize(detect_phonons(lossy, SubtractionParams(0.9), 1, 1))[0]


def test_mash_iterate_prepares_rho_0_once(monkeypatch):
    calls = []

    def counting(c_0):
        calls.append(len(c_0))
        return _mash_source(c_0)

    monkeypatch.setattr(mashing, "_mash_source", counting)
    cfg = TruncationConfig(3)
    malted = _one_cycle_state(cfg)
    out = mashing.mash_iterate(malted, max_iter=4)
    assert out.iterations == 4
    assert calls == [1]


def test_scan_prepares_one_source_per_branch(monkeypatch):
    # the scan prepares each chunk's sources in one call, one per branch it
    # mashes: m_c + 1 counted branches, plus those the last chunk mashed
    # past the first failing j
    sizes = []

    def counting(x_0):
        sizes.append(len(x_0))
        return _mash_source(x_0)

    monkeypatch.setattr(mashing, "_mash_source", counting)
    cfg = TruncationConfig(7)
    loss, sub = LossChannelParams.from_tau(100.0), SubtractionParams(0.9)
    assert protocol.average_entanglement(0.1, loss, sub, cfg).m_c == 4
    assert sizes == [1, 2, 4]  # j = 1, 2-3, 4-7: j = 6 and 7 past j = 5
    # a scan that runs no mashing round builds no source
    protocol.average_entanglement(0.1, loss, sub, cfg, max_iter=0)
    assert sizes == [1, 2, 4]


def test_stacked_mash_round_equals_batch_of_one_bitwise():
    # every branch of a stack gets exactly what mash_step gives it alone:
    # kept block, prob and discarded weight (the scan's max_discarded)
    cfg = TruncationConfig(3)
    states = [_one_cycle_state(cfg), _random_state(4, 11), _random_state(4, 12)]
    x = np.stack([st.sector for st in states])
    kept, prob, discarded, weight = mashing._mash_round(x, _mash_source(x))
    for i, st in enumerate(states):
        alone = mash_step(st, st)
        assert kept[i].tobytes() == alone.state.sector.tobytes()
        assert (prob[i], discarded[i]) == (alone.prob, alone.discarded_weight)
        assert weight[i] > TRACE_TOL


def _shift_and_add(x, y):
    # out[N, M, K] = sum x[n, m, k] y[N - n, M - m, K - k] over N, M, K < d:
    # one shifted copy of y per nonzero entry of x
    d = x.shape[-1]
    out = np.zeros_like(y)
    for n, m, k in zip(*np.nonzero(x)):
        out[n:, m:, k:] += x[n, m, k] * y[: d - n, : d - m, : d - k]
    return out


def _assert_convolution_matches(x, y, want=None):
    # through the operand form a mashing run keeps (the expansion up to
    # d = 16) and, with the plan forced to keep nothing, through the
    # shift-by-shift copy
    got = [mashing._truncated_convolution(x, mashing._source_operand(y))]
    plan = mashing._plan
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mashing, "_plan", lambda dim: plan(dim)._replace(kept=0))
        got.append(mashing._truncated_convolution(x, mashing._source_operand(y)))
    if want is None:
        want = [_shift_and_add(xi, yi) for xi, yi in zip(x, y)]
    for out in got:
        assert out.shape == y.shape
        for g, w in zip(out, want):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
    return want


@pytest.mark.parametrize("dim", [1, 2, 8, 11, 16, 19, 24, 34])
def test_truncated_convolution_matches_shift_and_add(dim):
    # at the plan each cutoff gets, on a stack and on a stack of one; x is
    # sparse at large d so that the reference stays fast, with an entry in
    # every (m, k) block
    rng = np.random.default_rng(dim)
    y = rng.random((2, dim, dim, dim))
    x = rng.random((2, dim, dim, dim))
    if dim > 8:
        x *= rng.random(x.shape) < 0.02
        x[:, :, ::4, ::4] = rng.random((2, dim, -(-dim // 4), -(-dim // 4)))
    _assert_convolution_matches(x, y)
    _assert_convolution_matches(x[1:], y[1:])


def _m_starts(dim, s_m):
    # f0 per M block: d - s_M, d - 2 s_M, ... down to the last block's 0
    return (*range(dim - s_m, 0, -s_m), 0)


def test_truncated_convolution_at_every_block_count(monkeypatch):
    # every pair of M and K block sides up to the cutoff, forced at a small
    # cutoff that none past 1 divides evenly (zero-padded blocks), each
    # with the expansion kept (kept=1: any nonzero count) and not
    rng = np.random.default_rng(5)
    x, y = rng.random((2, 2, 13, 13, 13))
    want = None
    for s_m in range(1, 14):
        for s_k in range(1, 14):
            plan = mashing._Plan(s_m, s_k, _m_starts(13, s_m), 1, 1)
            monkeypatch.setattr(mashing, "_plan", lambda dim, p=plan: p)
            want = _assert_convolution_matches(x, y, want)


def test_block_counts_keep_k_blocks_15_wide():
    def counts(d):
        plan = mashing._plan(d)
        return -(-d // plan.m_side), -(-d // plan.k_side)

    assert [counts(d) for d in (8, 13, 14, 16, 19, 24, 34, 99)] == [
        (1, 1), (1, 1), (2, 1), (2, 1), (5, 1), (12, 1), (17, 2), (50, 6)]
    for d in range(1, 100):
        plan = mashing._plan(d)
        assert plan.m_starts == _m_starts(d, plan.m_side)
        assert plan.m_side >= min(d, 2) and (plan.k_side == d or plan.k_side >= 15)
