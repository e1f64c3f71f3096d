"""Independent brute-force reference implementations used to pin test values.

Everything here is deliberately written with explicit loops and dict
accumulators (or dense matrix exponentials) rather than the vectorized
contractions the package uses, so the two code paths share no machinery.
"""

import functools
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


class _MashAlgebra:
    """Mashing of c_0 (a rank-4 array) as products of generating functions.

    With l = m - n + k implied, write F[n, m, k] = c / sqrt(n! m! k! l!).
    One round maps F to sigma(F * F_0) up to normalization, where * is the
    convolution truncated at the cutoff (outputs whose l leaves it are
    dropped) and sigma multiplies entry (n, m, k) by 2^(-p/2), with
    p = n + m + k + l = 2 (m + k). The convolution adds one shifted copy of
    its second factor per nonzero entry of its first.
    """

    def __init__(self, c_0):
        d = self.d = c_0.shape[0]
        n, m, k = self.nmk = np.indices((d, d, d))
        l_ = self.l_ = m - n + k
        ok = self.ok = (l_ >= 0) & (l_ < d)
        fact = np.array([float(math.factorial(i)) for i in range(d)])
        self.root = np.ones((d, d, d))
        self.root[ok] = np.sqrt(fact[n[ok]] * fact[m[ok]] * fact[k[ok]] * fact[l_[ok]])
        self.f_0 = np.zeros((d, d, d))
        self.f_0[ok] = c_0[n[ok], m[ok], k[ok], l_[ok]].real / self.root[ok]
        self.half = 0.5 ** (m + k)  # sigma: 2^(-p/2)

    def product(self, a, b):
        d = self.d
        conv = np.zeros((d, d, d))
        for x, y, z in zip(*np.nonzero(a)):
            conv[x:, y:, z:] += a[x, y, z] * b[: d - x, : d - y, : d - z]
        conv[~self.ok] = 0.0
        return conv

    def state(self, f):
        # the normalized rank-4 array of generating function f
        (n, m, k), ok = self.nmk, self.ok
        out = np.zeros((self.d,) * 4)
        out[n[ok], m[ok], k[ok], self.l_[ok]] = (f * self.root)[ok]
        return out / np.einsum("nmnm->", out)


def mash_fixed_point_oracle(c_0):
    """The state that iterated mashing against fresh copies of c_0 converges
    to, at the cutoff of c_0: a normalized rank-4 array, in closed form
    instead of iterated rounds.

    sigma respects products (see _MashAlgebra), so the rounds from F_0
    converge to prod_{K >= 1} sigma^K(F_0). P_1 = sigma(F_0) and
    P_2K = P_K * sigma^K(P_K) reach P_64 in six products; the next factor
    moves entries of degree 2 by 2^(-65), below float64 rounding.
    """
    g = _MashAlgebra(c_0)
    f = g.half * g.f_0
    for power in (1, 2, 4, 8, 16, 32):
        f = g.product(f, g.half**power * f)
    return g.state(f)


def mash_round_oracle(c_0, r):
    """Iterate r >= 1 of mashing against fresh copies of c_0, starting from
    c_0 itself: a normalized rank-4 array, in closed form. sigma respects
    products (see _MashAlgebra), so iterate r is, up to normalization,
    sigma^r(F_0)^2 prod_{K=1}^{r-1} sigma^K(F_0).
    """
    g = _MashAlgebra(c_0)
    top = g.half**r * g.f_0
    f = g.product(top, top)
    for power in range(1, r):
        f = g.product(f, g.half**power * g.f_0)
    return g.state(f)


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


def lossy_tmss_negativity(lam, eta):
    """Log-negativity of the untruncated squeezed state, lam = tanh(s),
    after loss of intensity transmission eta on both modes: the Gaussian
    closed form -log2(eta e^(-2s) + 1 - eta)."""
    return -math.log2(eta * math.exp(-2.0 * math.atanh(lam)) + 1.0 - eta)


def schmidt_log_negativity(c):
    """Log-negativity of the pure state sum_k c_k |a_k>|b_k> with orthonormal
    a_k and b_k, unnormalized: 2 log2 sum |c_k| - log2 sum c_k^2."""
    c = np.abs(np.asarray(c, dtype=float))
    return 2.0 * math.log2(c.sum()) - math.log2(np.dot(c, c))


@functools.lru_cache(maxsize=None)
def _binomials(terms):
    b = np.array([[math.comb(k, i) for i in range(terms)] for k in range(terms)], dtype=float)
    b.flags.writeable = False
    return b


def lossless_mash_negativities(mu, rounds, terms=160):
    """Log-negativity of lossless mashing rounds 0 ... rounds, untruncated
    to `terms` Fock levels, from the malted state with amplitude (1 + k) mu^k
    on |k, k>.

    Write the amplitude of |k, k> as k! [x^k] psi(x). The malted state is
    psi_0(x) = (1 + mu x) e^(mu x), and round r, the vacuum-projected 50/50
    mixing of round r - 1 with a fresh malted state, is
    psi_r(x) = psi_{r-1}(x / 2) psi_0(x / 2). In amplitudes that is
    c_r[k] = 2^(-k) sum_i C(k, i) c_{r-1}[i] c_0[k - i].
    """
    k, i = np.ogrid[:terms, :terms]
    c_0 = (1.0 + np.arange(terms)) * mu ** np.arange(terms)
    step = _binomials(terms) * np.where(i <= k, c_0[np.maximum(k - i, 0)], 0.0)
    step *= 0.5 ** k
    c = c_0
    negs = [schmidt_log_negativity(c)]
    for _ in range(rounds):
        c = step @ c
        negs.append(schmidt_log_negativity(c))
    return negs


def lossless_protocol_negativities(lam, t_s, m_a, m_b, rounds, terms=160):
    """Log-negativity of the untruncated lossless protocol (t = 1) at each
    stage: malting cycles 0 ... max(m_a, m_b), then mashing rounds
    1 ... rounds.

    The squeezed state is sum_n lam^n |n, n>. Every cycle an arm before its
    success cycle m counts vacuum, t_s^n on n phonons, and counts one phonon
    at m, sqrt(n) r t_s^(n - 1); a lossless arm is left alone after it. Each
    stage is a pure state with one Schmidt coefficient per n, and the malted
    state has mu = lam t_s^(m_a + m_b) (see lossless_mash_negativities).
    """
    r = math.sqrt(1.0 - t_s * t_s)
    negs = []
    for cycle in range(max(m_a, m_b) + 1):
        c = []
        for n in range(terms):
            amp = lam**n
            for m in (m_a, m_b):
                if cycle < m:
                    amp *= t_s ** (n * cycle)
                else:
                    amp *= t_s ** (n * (m - 1)) * math.sqrt(n) * r * t_s ** (n - 1)
            c.append(amp)
        negs.append(schmidt_log_negativity(c))
    mu = lam * t_s ** (m_a + m_b)
    return negs + lossless_mash_negativities(mu, rounds, terms)[1:]
