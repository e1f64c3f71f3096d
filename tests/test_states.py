import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from dense import check_state, hermiticity_defect, swap_modes, trace_of, truncated_tmss
from distillery import (
    LossChannelParams,
    MaltingSchedule,
    SubtractionParams,
    TruncationConfig,
    TwoModeState,
    ZeroTraceError,
    NotHermitianError,
    auto_n_max,
    average_entanglement,
    detect_one_mode,
    detect_phonons,
    loss_event,
    malt,
    mash_iterate,
    mash_step,
    min_eigenvalue,
    normalize,
    repeated_loss,
    state_from_coeffs,
    subtraction_probability_matrix,
    tmss,
    vacuum,
)
from distillery.core import EIG_TOL, TRACE_TOL, _tmss_amplitudes

# single-photon detection on both modes of tmss(0.1) at n_max=3, t_s=0.99,
# computed by the brute-force contraction in oracles.subtract_oracle.
P_SUB_Q11_NMAX3 = 4.074395526294911e-06


def test_truncation_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        TruncationConfig(0)
    cfg = TruncationConfig(8)
    assert cfg.dim == 9


def test_integral_floats_are_stored_as_ints():
    # an integral float is accepted where an integer is asked for, and
    # stored as the int that every op reads
    cfg = TruncationConfig(8.0)
    assert cfg == TruncationConfig(8) and type(cfg.n_max) is int
    assert tmss(0.1, cfg).dim == 9
    loss, sub = LossChannelParams.from_tau(100), SubtractionParams(0.9)
    schedule = MaltingSchedule(1.0, 2.0, loss, sub)
    assert schedule == (1, 2, loss, sub) and type(schedule.m_b) is int
    cfg = TruncationConfig(7)
    malted = malt(0.1, schedule, cfg).state
    assert mash_iterate(malted, max_iter=2.0).iterations == 2
    st = tmss(0.1, cfg)
    once = repeated_loss(st, loss, 1.0)
    assert once.sector.tobytes() == loss_event(st, loss).sector.tobytes()
    assert subtraction_probability_matrix(0.1, loss, sub, cfg, 2.0, 2).shape == (2, 2)
    malt_only = average_entanglement(0.1, loss, sub, cfg, max_iter=0)
    assert average_entanglement(0.1, loss, sub, cfg, max_iter=0.0) == malt_only


def test_auto_n_max_is_smallest_admissible():
    for lam, expected in ((0.1, 7), (0.15, 9), (0.2, 10), (0.3, 14), (0.4, 18)):
        n = auto_n_max(lam)
        assert n == expected
        assert lam ** (2 * (n + 1)) < 1e-15
        assert lam ** (2 * n) >= 1e-15


def test_auto_n_max_matches_the_float_loop_at_its_boundaries():
    # the cutoff is the first n_max >= 1 whose float tail lam^(2(n_max+1))
    # falls below TRACE_TOL, as a loop over n_max finds it, at every
    # boundary TRACE_TOL^(1/(2(n+1))) and both float neighbours of it
    def loop(lam):
        n = 1
        while lam ** (2 * (n + 1)) >= TRACE_TOL:
            n += 1
        return n

    lams = {0.0, 1e-3, 0.5, 0.9, 0.99}
    for n in range(1, 150):
        edge = TRACE_TOL ** (1 / (2 * (n + 1)))
        lams.update((edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0)))
    for lam in sorted(lams):
        assert auto_n_max(lam) == loop(lam), lam


def test_tmss_admits_exactly_the_cutoffs_whose_float_tail_is_below_trace_tol():
    # tmss (and pij, through the same amplitudes) admits n_max from
    # auto_n_max(lam) on: exactly the n_max >= 1 whose float tail
    # lam^(2(n_max+1)) falls below TRACE_TOL, since that tail falls with n_max
    lams = [0.0, 1e-3, 0.1, 0.5, 0.9, 0.99]
    lams += [math.nextafter(TRACE_TOL ** (1 / (2 * (n + 1))), 1.0) for n in range(1, 60, 7)]
    for lam in lams:
        auto = auto_n_max(lam)
        for n_max in range(max(1, auto - 3), auto + 4):
            admitted = lam ** (2 * (n_max + 1)) < TRACE_TOL
            try:
                _tmss_amplitudes(lam, TruncationConfig(n_max))
            except ValueError as exc:
                assert not admitted and str(exc).endswith(f"admissible n_max is {auto}")
            else:
                assert admitted, (lam, n_max)


def test_tmss_zero_squeezing_is_vacuum():
    cfg = TruncationConfig(4)
    st = tmss(0.0, cfg)
    want = np.zeros((5, 5, 5, 5), dtype=complex)
    want[0, 0, 0, 0] = 1.0
    assert np.abs(st.coeffs - want).max() == 0.0
    assert st.trace == 1.0


def test_tmss_matches_ladder_formula():
    cfg = TruncationConfig(8)
    st = tmss(0.1, cfg)
    want = oracles.tmss_coeffs(0.1, 8)
    assert np.abs(st.coeffs - want).max() < 1e-15
    assert abs(st.coeffs[0, 0, 0, 0].real - 0.99) < 5e-3
    # only |n,n><k,k| entries survive
    mask = np.ones((9, 9, 9, 9), dtype=bool)
    for n in range(9):
        for k in range(9):
            mask[n, n, k, k] = False
    assert np.abs(st.coeffs[mask]).max() == 0.0


def test_tmss_is_normalized_and_pure():
    for lam in (0.1, 0.3):
        cfg = TruncationConfig(auto_n_max(lam))
        st = tmss(lam, cfg)
        assert abs(st.trace - 1.0) < 1e-14
        purity = np.einsum("nmkl,klnm->", st.coeffs, st.coeffs).real
        slack = 2 * lam ** (2 * (cfg.n_max + 1))
        assert abs(purity - 1.0) <= slack + 1e-13


def test_tmss_mode_swap_symmetry():
    st = tmss(0.2, TruncationConfig(10))
    assert np.abs(st.coeffs - st.coeffs.transpose(1, 0, 3, 2)).max() == 0.0
    sw = swap_modes(st)
    assert np.abs(sw.coeffs - st.coeffs).max() == 0.0


def test_tmss_admission_rule():
    with pytest.raises(ValueError):
        tmss(0.4, TruncationConfig(17))
    tmss(0.4, TruncationConfig(18))
    with pytest.raises(ValueError):
        tmss(1.0, TruncationConfig(8))
    with pytest.raises(ValueError):
        tmss(-0.1, TruncationConfig(8))


def test_vacuum_state():
    cfg = TruncationConfig(6)
    v = vacuum(cfg)
    assert v.coeffs[0, 0, 0, 0] == 1.0
    assert np.count_nonzero(v.coeffs) == 1
    assert trace_of(v) == 1.0


def test_trace_of_matches_cache_and_scales():
    cfg = TruncationConfig(7)
    st = tmss(0.1, cfg)
    assert abs(trace_of(st) - 1.0) < 1e-14
    half = state_from_coeffs(0.5 * st.coeffs, cfg)
    assert abs(trace_of(half) - 0.5) < 1e-14
    assert abs(half.trace - 0.5) < 1e-14


def test_normalize_scaled_vacuum():
    cfg = TruncationConfig(4)
    quarter = state_from_coeffs(0.25 * vacuum(cfg).coeffs, cfg)
    st, p = normalize(quarter)
    assert p == pytest.approx(0.25, rel=1e-14)
    assert np.abs(st.coeffs - vacuum(cfg).coeffs).max() < 1e-15
    assert abs(st.trace - 1.0) < 1e-14


def test_normalize_is_identity_on_normalized_input():
    st = tmss(0.1, TruncationConfig(7))
    out, p = normalize(st)
    assert p == pytest.approx(1.0, rel=1e-13)
    assert np.abs(out.coeffs - st.coeffs).max() < 1e-14


def test_normalize_rejects_vanishing_trace():
    cfg = TruncationConfig(3)
    dead = state_from_coeffs(np.zeros((4, 4, 4, 4), dtype=complex), cfg)
    with pytest.raises(ZeroTraceError):
        normalize(dead)


def test_normalize_subtracted_state_yields_probability():
    # unnormalized double-subtraction output carries its branch probability
    cfg = TruncationConfig(3)
    raw, p_oracle = oracles.subtract_oracle(oracles.tmss_coeffs(0.1, 3), 0.99, 1, 1)
    assert p_oracle == pytest.approx(P_SUB_Q11_NMAX3, rel=1e-12)
    st, p = normalize(state_from_coeffs(raw, cfg))
    assert p == pytest.approx(P_SUB_Q11_NMAX3, rel=1e-12)
    assert abs(st.trace - 1.0) < 1e-13
    check_state(st)


def test_constructor_outputs_satisfy_state_invariants():
    for st in (tmss(0.1, TruncationConfig(7)), tmss(0.4, TruncationConfig(18)),
               vacuum(TruncationConfig(5))):
        assert hermiticity_defect(st) < 1e-14
        assert min_eigenvalue(st) > -1e-10
        diag = np.einsum("nmnm->", st.coeffs).real
        assert abs(diag - st.trace) < 1e-13
        check_state(st)


def test_state_from_coeffs_checks_hermiticity_against_the_eig_tol():
    # a stored state holds each coefficient once, so where a tensor becomes
    # a state its p[n, m, k, l] and p[k, l, n, m] must agree to EIG_TOL
    # (1e-10), whichever of the two carries the asymmetry; the entry with
    # n >= k is the one stored
    cfg = TruncationConfig(4)
    good = truncated_tmss(0.2, 4)
    for entry in ((2, 1, 1, 0), (1, 0, 2, 1)):
        for bump in (1e-12, 1e-8):
            c = good.coeffs.copy()
            c[entry] += bump
            if bump < EIG_TOL:
                st = state_from_coeffs(c, cfg)
                assert st.coeffs[2, 1, 1, 0] == st.coeffs[1, 0, 2, 1] == c[2, 1, 1, 0]
            else:
                with pytest.raises(NotHermitianError, match=r"defect 1e-08 > 1e-10$"):
                    state_from_coeffs(c, cfg)


def test_state_from_coeffs_rejects_broken_hermiticity():
    cfg = TruncationConfig(3)
    c = vacuum(cfg).coeffs.copy()
    c[0, 0, 1, 1] = 0.3  # no conjugate partner
    with pytest.raises(NotHermitianError, match=r"^hermiticity defect 0\.3 > 1e-10$"):
        state_from_coeffs(c, cfg)


def test_malted_and_mashed_coeffs_are_exactly_symmetric():
    # each coefficient is stored once, so the d^4 expansion holds the same
    # float at p[n, m, k, l] and p[k, l, n, m], coherences included
    cfg = TruncationConfig(7)
    schedule = MaltingSchedule(1, 2, LossChannelParams.from_tau(100), SubtractionParams(0.9))
    malted = malt(0.1, schedule, cfg).state
    for st in (malted, mash_iterate(malted).rho_final):
        assert np.count_nonzero(st.sector[1:]) > 0
        assert np.array_equal(st.coeffs, st.coeffs.transpose(2, 3, 0, 1))


def test_states_are_immutable_values():
    cfg = TruncationConfig(4)
    src = np.zeros((5, 5, 5, 5), dtype=complex)
    src[0, 0, 0, 0] = 1.0
    st = state_from_coeffs(src, cfg)
    src[1, 1, 1, 1] = 0.5  # later mutation of the source must not leak in
    assert st.coeffs[1, 1, 1, 1] == 0.0
    with pytest.raises(ValueError):
        st.coeffs[0, 0, 0, 0] = 2.0


def test_records_are_immutable_and_pickle():
    # states compare by identity and the records as values; neither takes
    # assignment, and both survive a pickle round trip (the process pool)
    cfg = TruncationConfig(4)
    st = vacuum(cfg)
    for obj, name in ((st, "trace"), (cfg, "n_max"), (SubtractionParams(0.9), "t_s")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
    assert st != vacuum(cfg) and cfg == TruncationConfig(4)
    back = pickle.loads(pickle.dumps(st))
    assert back.trace == st.trace and back.sector.tobytes() == st.sector.tobytes()
    assert type(pickle.loads(pickle.dumps(cfg))) is TruncationConfig


def test_state_from_coeffs_copies_a_float64_caller_array():
    # the no-copy wrap is for arrays an op built itself; a caller's array,
    # even one already C-ordered float64, is copied and left writable
    cfg = TruncationConfig(2)
    src = np.array(vacuum(cfg).coeffs)
    st = state_from_coeffs(src, cfg)
    assert st.coeffs is not src and not np.shares_memory(st.coeffs, src)
    assert src.flags.writeable
    src[1, 1, 1, 1] = 0.5
    assert st.coeffs[1, 1, 1, 1] == 0.0


def test_state_from_coeffs_rejects_imaginary_part():
    cfg = TruncationConfig(2)
    c = vacuum(cfg).coeffs.astype(complex)
    c[1, 0, 0, 1] = 1e-3j
    c[0, 1, 1, 0] = -1e-3j  # Hermitian, but not real
    with pytest.raises(ValueError, match="imaginary"):
        state_from_coeffs(c, cfg)


def test_state_from_coeffs_rejects_entries_off_the_sector():
    cfg = TruncationConfig(2)
    c = vacuum(cfg).coeffs.copy()
    c[1, 0, 0, 1] = 1e-300  # n - k = 1, m - l = -1
    with pytest.raises(ValueError) as err:
        state_from_coeffs(c, cfg)
    assert str(err.value) == (
        "coefficients must obey n - k = m - l, got a nonzero entry off that sector"
    )


@settings(derandomize=True, deadline=None, max_examples=30)
@given(dim=hst.integers(2, 6), seed=hst.integers(0, 2**32 - 1))
def test_dense_round_trip_is_exact(dim, seed):
    # dense -> stored -> dense puts every coefficient back bit for bit
    c = oracles.random_state_coeffs(dim, np.random.default_rng(seed))
    st = state_from_coeffs(c, TruncationConfig(dim - 1))
    assert st.coeffs.tobytes() == np.ascontiguousarray(c).tobytes()
    assert np.array_equal(state_from_coeffs(st.coeffs, TruncationConfig(dim - 1)).sector,
                          st.sector)


def test_state_from_coeffs_stores_real_part_of_complex_input():
    cfg = TruncationConfig(3)
    c = oracles.tmss_coeffs(0.1, 3)  # complex dtype, zero imaginary part
    st = state_from_coeffs(c, cfg)
    assert st.coeffs.dtype == np.float64
    assert np.array_equal(st.coeffs, c.real)


def test_every_op_returns_float64_coefficients():
    # each op stores a read-only float64 array in the (d, d, d) layout
    d = 5
    cfg = TruncationConfig(d - 1)
    sub = SubtractionParams(0.9)
    st = truncated_tmss(0.2, d - 1)
    outs = [
        tmss(0.03, cfg),  # about the largest squeezing this cutoff admits
        st,
        vacuum(cfg),
        loss_event(st, LossChannelParams(0.95)),
        detect_one_mode(st, sub, "B", 1),
        detect_phonons(st, sub, 1, 1),
        normalize(detect_phonons(st, sub, 1, 0))[0],
        mash_step(st, st).state,
    ]
    for out in outs:
        x = out.sector
        assert x.shape == (d, d, d) and x.dtype == np.float64
        assert x.flags.c_contiguous and not x.flags.writeable
        assert out.coeffs.dtype == np.float64
        assert out.coeffs.flags.c_contiguous and not out.coeffs.flags.writeable


def test_swap_modes_transposes_both_index_pairs():
    cfg = TruncationConfig(2)
    rng = np.random.default_rng(7)
    c = oracles.random_state_coeffs(3, rng)
    st = state_from_coeffs(c, cfg)
    sw = swap_modes(st)
    assert np.abs(sw.coeffs - c.transpose(1, 0, 3, 2)).max() == 0.0
    assert abs(sw.trace - st.trace) < 1e-14


def test_two_mode_state_exposes_dims():
    st = tmss(0.1, TruncationConfig(7))
    assert isinstance(st, TwoModeState)
    assert st.dim == 8
    assert st.n_max == 7
    m = st.as_matrix()
    assert m.shape == (64, 64)
    assert abs(np.trace(m).real - 1.0) < 1e-13
