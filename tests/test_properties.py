"""Property tests over drawn parameters: the zero padding of malted and
mashed states in the stored layout, the symmetry every channel preserves, mashing
against the four-mode oracle, and the sector-block eigensolves against dense
solves and the singular-value oracle; and that a failing property test is
reported under the repository's pytest settings."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dense import truncated_tmss
from distillery import (
    LossChannelParams,
    MaltingSchedule,
    SubtractionParams,
    TruncationConfig,
    auto_n_max,
    detect_one_mode,
    detect_phonons,
    log_negativity,
    loss_event,
    malt,
    mash_step,
    min_eigenvalue,
    normalize,
    state_from_coeffs,
    trace_distance,
    trace_norm,
)
from distillery.core import EIG_TOL, _block_eigvalsh
from distillery.negativity import _trace_distances

PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)


def _padding(sector):
    # the slots of the stored layout that hold no coefficient: entry p or q
    # of diagonal j at or past its length d - j
    d = sector.shape[1]
    j, p, q = np.indices(sector.shape)
    return sector[(p >= d - j) | (q >= d - j)]


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
    # the stored layout holds the sector n - k = m - l only; its padding
    # must stay zero through every kernel
    malted = malt(lam, schedule, cfg).state
    assert np.count_nonzero(_padding(malted.sector)) == 0
    mashed = mash_step(malted, malted).state
    assert np.count_nonzero(_padding(mashed.sector)) == 0


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


@PROPERTY
@given(
    dim=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_mash_step_matches_oracle_on_drawn_states(dim, seed):
    rng = np.random.default_rng(seed)
    cfg = TruncationConfig(dim - 1)
    c_i = oracles.random_state_coeffs(dim, rng)
    c_0 = oracles.random_state_coeffs(dim, rng)
    a, b = state_from_coeffs(c_i, cfg), state_from_coeffs(c_0, cfg)
    res = mash_step(a, b)
    full, p_want = oracles.mash_oracle(c_i, c_0)
    kept = full[:dim, :dim, :dim, :dim]
    kept_tr = np.einsum("nmnm->", kept).real
    assert res.prob == pytest.approx(p_want, rel=1e-12)
    assert np.abs(res.state.coeffs - kept / kept_tr).max() < 1e-13
    assert res.discarded_weight == pytest.approx(p_want - kept_tr, abs=1e-14)


def _drawn_state(kind, dim, lam, tau, t_s, q_a, q_b, rng):
    """A normalized state at cutoff dim - 1: one malting cycle (loss, then
    counts q_a, q_b) of a TMSS, the same mashed with itself, or a random
    state (the pinching of a PSD matrix, which fills the whole sector)."""
    cfg = TruncationConfig(dim - 1)
    if kind in ("malted", "mashed"):
        lossy = loss_event(truncated_tmss(lam, dim - 1), LossChannelParams.from_tau(tau))
        st, _ = normalize(detect_phonons(lossy, SubtractionParams(t_s), q_a, q_b))
        return mash_step(st, st).state if kind == "mashed" else st
    return state_from_coeffs(oracles.random_state_coeffs(dim, rng), cfg)


@PROPERTY
@given(
    kind=st.sampled_from(["malted", "mashed", "random"]),
    dim=st.integers(2, 9),
    lam=st.floats(0.05, 0.6),
    tau=st.floats(10.0, 1000.0),
    t_s=st.floats(0.5, 0.99),
    q_a=st.integers(0, 1),
    q_b=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_eigensolves_match_dense_and_oracle(kind, dim, lam, tau, t_s, q_a, q_b, seed):
    rng = np.random.default_rng(seed)
    a = _drawn_state(kind, dim, lam, tau, t_s, q_a, q_b, rng)
    b = _drawn_state(kind, dim, lam, tau, t_s, 1 - q_a, q_b, rng)
    n = dim * dim
    rho = a.coeffs.reshape(n, n)
    pt = a.coeffs.transpose(2, 1, 0, 3).reshape(n, n)
    # the block solve takes stacks: here a, and a and b together
    x = np.stack([a.sector, b.sector])
    assert np.abs(_block_eigvalsh(x, "rho")[0] - np.linalg.eigvalsh(rho)).max() < 1e-14
    dense_pt = np.linalg.eigvalsh(pt)
    assert np.abs(_block_eigvalsh(x[:1], "pt")[0] - dense_pt).max() < 1e-14
    assert min_eigenvalue(a) == pytest.approx(np.linalg.eigvalsh(rho)[0], abs=1e-14)

    assert trace_norm(a.coeffs) == pytest.approx(oracles.trace_norm_oracle(rho), rel=1e-12)
    tn_pt = oracles.trace_norm_oracle(pt)
    res = log_negativity(a)
    assert res.min_eig == pytest.approx(dense_pt[0], abs=1e-14)
    want = max(math.log2(tn_pt), 0.0) if dense_pt[0] < -EIG_TOL else 0.0
    assert res.value == pytest.approx(want, abs=1e-12)
    diff = (a.coeffs - b.coeffs).reshape(n, n)
    assert trace_distance(a, b) == pytest.approx(
        0.5 * oracles.trace_norm_oracle(diff), rel=1e-12, abs=1e-15
    )


@PROPERTY
@given(
    kind=st.sampled_from(["states", "symmetric", "rank one"]),
    dim=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_frobenius_bound_never_exceeds_the_trace_distance(kind, dim, seed):
    # (1/2) the Frobenius norm of a difference bounds (1/2) its trace norm
    # from below, and the stored layout gives it in one reduction; a rank-one
    # difference (a vector on the pairs n = m, inside the sector) meets the
    # bound, up to rounding
    rng = np.random.default_rng(seed)
    cfg = TruncationConfig(dim - 1)
    n = dim * dim
    b = np.zeros((dim,) * 4)
    if kind == "states":
        a, b = (oracles.random_state_coeffs(dim, rng) for _ in range(2))
    elif kind == "symmetric":
        g = rng.normal(size=(n, n))
        a = (g + g.T).reshape((dim,) * 4)
        j = np.indices(a.shape)
        a[j[0] - j[2] != j[1] - j[3]] = 0.0
    else:
        psi = np.zeros(n)
        psi[:: dim + 1] = rng.normal(size=dim)
        a = np.outer(psi, psi).reshape((dim,) * 4)
    x, y = (state_from_coeffs(c, cfg).sector[None] for c in (a, b))
    bound = 0.5 * math.sqrt(np.sum((a - b) ** 2))
    (dist,) = _trace_distances(x, y)
    assert bound <= dist * (1.0 + 1e-12)
    assert dist == pytest.approx(0.5 * oracles.trace_norm_oracle((a - b).reshape(n, n)), rel=1e-12)
    if kind == "rank one":
        assert bound == pytest.approx(dist, rel=1e-12)
    # where the bound is at or past `below`, the bound itself is returned
    (skipped,) = _trace_distances(x, y, below=bound * (1.0 - 1e-12))
    assert skipped == pytest.approx(bound, rel=1e-12)
    (solved,) = _trace_distances(x, y, below=bound * (1.0 + 1e-9))
    assert solved == dist


_FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    # under the repository's pytest settings (warnings are errors), a failing
    # @given test is reported as a failure, and the tests after it still run:
    # no warning raised while hypothesis reports the failure stops the run
    path = tmp_path / "test_failing_property.py"
    path.write_text(_FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider",
         str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out
    assert "1 failed, 1 passed" in out
