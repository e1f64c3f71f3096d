"""Independent brute-force reference implementations used to pin test values.

Everything here is deliberately written with explicit loops and dict
accumulators (or dense matrix exponentials) rather than the vectorized
contractions the package uses, so the two code paths share no machinery.
"""

import math

import numpy as np


def bs_amp(n, q, t):
    # Amplitude for keeping n-q of n quanta on a transmissivity-t splitter.
    r = math.sqrt(max(0.0, 1.0 - t * t))
    return math.sqrt(math.comb(n, q)) * t ** (n - q) * r**q


def tmss_coeffs(lam, n_max):
    """Truncated, renormalized two-mode squeezed state as a rank-4 array."""
    dim = n_max + 1
    c = np.zeros((dim, dim, dim, dim), dtype=complex)
    norm = sum(lam ** (2 * n) for n in range(dim))
    for n in range(dim):
        for k in range(dim):
            c[n, n, k, k] = lam ** (n + k) / norm
    return c


def repeated_loss_oracle(lam, n_max, t, m):
    """m memory-loss events on a truncated TMSS via the nested-sum closed form.

    Terms are tracked as a dict {(ketA, ketB, braA, braB): weight} and each
    event expands every term over all loss tuples with running bounds.
    """
    dim = n_max + 1
    norm = sum(lam ** (2 * n) for n in range(dim))
    terms = {}
    for n in range(dim):
        for k in range(dim):
            terms[(n, n, k, k)] = lam ** (n + k) / norm
    for _ in range(m):
        new = {}
        for (a, b, c, d), w in terms.items():
            for k1 in range(min(a, c) + 1):
                amp1 = bs_amp(a, k1, t) * bs_amp(c, k1, t)
                for k2 in range(min(b, d) + 1):
                    amp2 = bs_amp(b, k2, t) * bs_amp(d, k2, t)
                    key = (a - k1, b - k2, c - k1, d - k2)
                    new[key] = new.get(key, 0.0) + w * amp1 * amp2
        terms = new
    out = np.zeros((dim, dim, dim, dim), dtype=complex)
    for key, w in terms.items():
        out[key] = w
    return out


def subtract_oracle(coeffs, t_s, q_a, q_b):
    """Direct summation of the phonon-counting measurement update.

    Returns the unnormalized conditional output and its trace (the outcome
    probability).
    """
    dim = coeffs.shape[0]
    out = np.zeros_like(coeffs)
    for n in range(q_a, dim):
        for m in range(q_b, dim):
            for k in range(q_a, dim):
                for l_ in range(q_b, dim):
                    amp = (
                        bs_amp(n, q_a, t_s)
                        * bs_amp(m, q_b, t_s)
                        * bs_amp(k, q_a, t_s)
                        * bs_amp(l_, q_b, t_s)
                    )
                    out[n - q_a, m - q_b, k - q_a, l_ - q_b] += coeffs[n, m, k, l_] * amp
    tr = sum(out[n, m, n, m] for n in range(dim) for m in range(dim)).real
    return out, tr


def _destroy(dim):
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


def bs_unitary_2mode(dim, t, reflection_sign=-1):
    """Fock-basis beam-splitter unitary on two dim-level modes.

    Built by exponentiating the generator, so it is independent of any
    closed-form matrix element formula. Convention: mode-1 input mixes as
    B a1+ B' = t a1+ + reflection_sign r a2+ (by default the minus sign on
    the reflection to output 2); reflection_sign=+1 is the rotation by -theta.
    """
    a = _destroy(dim)
    idm = np.eye(dim, dtype=complex)
    a1 = np.kron(a, idm)
    a2 = np.kron(idm, a)
    gen = a1.conj().T @ a2 - a2.conj().T @ a1
    theta = -reflection_sign * math.atan2(math.sqrt(max(0.0, 1.0 - t * t)), t)
    herm = 1j * gen
    evals, vecs = np.linalg.eigh(herm)
    return vecs @ np.diag(np.exp(-1j * theta * evals)) @ vecs.conj().T


def mash_oracle(c_i, c_0, reflection_sign=-1):
    """Brute-force four-mode mashing round at 50/50 splitting.

    Embeds both states in per-mode dimension 2*n_max+1, applies the full
    two-splitter unitary (bs_unitary_2mode with the given reflection sign)
    as a dense matrix, projects vacuum on output 1 of each splitter, and
    returns (projected 2-mode tensor at the enlarged dimension, projected
    trace).
    """
    d = c_i.shape[0]
    big = 2 * (d - 1) + 1
    rho = np.zeros((big,) * 8, dtype=complex)
    rho[:d, :d, :d, :d, :d, :d, :d, :d] = np.einsum(
        "abcd,pqrs->apbqcrds", c_0, c_i
    )  # joint state, mode order (A1, A2, B1, B2); c_0 feeds port 1 of each splitter
    rho_m = rho.reshape(big**4, big**4)
    b2 = bs_unitary_2mode(big, 1.0 / math.sqrt(2.0), reflection_sign)
    w = np.kron(b2, b2)  # acts on (A1,A2) then (B1,B2)
    rho_m = w @ rho_m @ w.conj().T
    rho4 = rho_m.reshape((big,) * 8)
    out = rho4[0, :, 0, :, 0, :, 0, :]
    tr = sum(out[n, m, n, m] for n in range(big) for m in range(big)).real
    return out, tr


def mash_fixed_point_oracle(c_0):
    """The state that iterated mashing against fresh copies of c_0 converges
    to, at the cutoff of c_0: a normalized rank-4 array, from a recursion
    degree by degree instead of iterated rounds.

    With l = m - n + k implied, write F[n, m, k] = c / sqrt(n! m! k! l!).
    One round maps F to 2^(-p/2) (F * F_0) up to normalization, where
    p = n + m + k + l = 2 (m + k) and * is the convolution truncated at the
    cutoff. Its degree-0 entry fixes the normalization at 1 / F_0[0], so the
    fixed point obeys
        F[N] (1 - 2^(-p/2)) = 2^(-p/2) / F_0[0] sum_{n != N} F[n] F_0[N - n],
    whose right side reads only entries of lower degree m + k. So 2d - 1
    sweeps of that map from F = delta_0 give F exactly, up to rounding. The
    convolution adds one shifted copy of F per nonzero entry of F_0.
    """
    d = c_0.shape[0]
    n, m, k = np.indices((d, d, d))
    l_ = m - n + k
    ok = (l_ >= 0) & (l_ < d)
    fact = np.array([float(math.factorial(i)) for i in range(d)])
    root = np.ones((d, d, d))
    root[ok] = np.sqrt(fact[n[ok]] * fact[m[ok]] * fact[k[ok]] * fact[l_[ok]])
    f_0 = np.zeros((d, d, d))
    f_0[ok] = c_0[n[ok], m[ok], k[ok], l_[ok]].real / root[ok]
    half = 0.5 ** (m + k)  # 2^(-p/2)
    solve = ok.copy()
    solve[0, 0, 0] = False
    f = np.zeros((d, d, d))
    f[0, 0, 0] = 1.0
    for _ in range(2 * d - 1):
        conv = np.zeros((d, d, d))
        for a, b, c in zip(*np.nonzero(f_0)):
            conv[a:, b:, c:] += f_0[a, b, c] * f[: d - a, : d - b, : d - c]
        rest = conv - f * f_0[0, 0, 0]  # drop the n = N term
        new = np.zeros((d, d, d))
        new[0, 0, 0] = 1.0
        new[solve] = half[solve] * rest[solve] / f_0[0, 0, 0] / (1.0 - half[solve])
        f = new
    out = np.zeros((d, d, d, d))
    out[n[ok], m[ok], k[ok], l_[ok]] = (f * root)[ok]
    return out / np.einsum("nmnm->", out)


def trace_norm_oracle(mat):
    # Sum of singular values; independent of the eigh route.
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def tmss_negativity_closed_form(lam):
    return math.log2((1.0 + lam) / (1.0 - lam))


def p11_trajectory_oracle(lam, n_max, t, t_s):
    """Probability of a first-cycle double click: one loss event, then a
    single-quantum detection on each arm."""
    lossy = repeated_loss_oracle(lam, n_max, t, 1)
    _, p = subtract_oracle(lossy, t_s, 1, 1)
    return p


def random_state_coeffs(dim, rng):
    """Random valid (real symmetric, PSD, trace-1) two-mode coefficient tensor
    in the sector n - k = m - l, where every protocol state lives.

    The pinching of a dense draw: every entry with n - k != m - l is zeroed.
    That is the twirl by the local phases exp(i theta N_A) (x)
    exp(-i theta N_B), so it keeps the trace, positivity and separability.
    Every entry of the sector is filled, and the draw is asymmetric between
    the modes, so it reaches every index path of a kernel; real, like every
    state of the protocol.
    """
    g = rng.normal(size=(dim * dim, dim * dim))
    rho = (g @ g.T).reshape(dim, dim, dim, dim)
    n, m, k, l_ = np.indices(rho.shape)
    rho[n - k != m - l_] = 0.0
    return rho / np.einsum("nmnm->", rho)
