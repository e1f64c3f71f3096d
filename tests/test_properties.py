"""Property tests over drawn parameters: the photon-number selection rule of
malted and mashed states, and the symmetry every channel preserves."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from distillery import (
    LossChannelParams,
    MaltingSchedule,
    SubtractionParams,
    TruncationConfig,
    auto_n_max,
    detect_one_mode,
    loss_event,
    malt,
    mash_step,
    state_from_coeffs,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)


def _off_sector(coeffs):
    # entries that break the rule n - k = m - l
    n, m, k, l_ = np.indices(coeffs.shape)
    return coeffs[n - k != m - l_]


def _asymmetry(coeffs):
    # largest |p[n,m,k,l] - p[k,l,n,m]|
    return np.abs(coeffs - coeffs.transpose(2, 3, 0, 1)).max()


@PROPERTY
@given(
    lam=st.floats(0.05, 0.3),
    tau=st.floats(10.0, 1000.0),
    t_s=st.floats(0.9, 0.995),
    m_a=st.integers(1, 4),
    m_b=st.integers(1, 4),
)
def test_malted_and_mashed_states_obey_sector_rule(lam, tau, t_s, m_a, m_b):
    cfg = TruncationConfig(auto_n_max(lam))
    schedule = MaltingSchedule(m_a, m_b, LossChannelParams.from_tau(tau), SubtractionParams(t_s))
    malted = malt(lam, schedule, cfg).state
    assert np.count_nonzero(_off_sector(malted.coeffs)) == 0
    mashed = mash_step(malted, malted).state
    assert np.count_nonzero(_off_sector(mashed.coeffs)) == 0


@PROPERTY
@given(
    dim=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(0.1, 1.0),
    t_s=st.floats(0.1, 0.99),
    mode=st.sampled_from("AB"),
    q=st.integers(0, 3),
)
def test_channels_keep_real_states_symmetric(dim, seed, t, t_s, mode, q):
    rng = np.random.default_rng(seed)
    cfg = TruncationConfig(dim - 1)
    a = state_from_coeffs(oracles.random_state_coeffs(dim, rng), cfg)
    b = state_from_coeffs(oracles.random_state_coeffs(dim, rng), cfg)
    outs = [
        loss_event(a, LossChannelParams(t)),
        detect_one_mode(a, SubtractionParams(t_s), mode, min(q, dim - 1)),
        mash_step(a, b).state,
    ]
    for out in outs:
        assert _asymmetry(out.coeffs) <= 1e-14
