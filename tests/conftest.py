import numpy as np
import pytest

import gammaops as g
from gammaops import matcore


@pytest.fixture(scope="session")
def corpus500():
    """500 random symmetrized pairs with solved fundamental operators.

    Shared across the fundamental-side suites and the acceptance module;
    building it once keeps the whole run inside the desk-scale budget.
    """
    out = []
    for k in range(500):
        pair = g.random_pure_gamma(1 + k % 12, seed=1000 + k)
        out.append((pair, g.solve_fundamental(pair)))
    return out


@pytest.fixture(scope="session")
def pure100():
    """100 small pure pairs kept light enough for auto-truncated models."""
    return [g.random_pure_gamma(1 + k % 6, seed=9000 + k, max_norm=0.8)
            for k in range(100)]


def _dense_toeplitz(coeffs):
    """Oracle: the lower block Toeplitz array with block (i, j) = Theta_{i-j}."""
    n_blocks, r_star, r = coeffs.shape
    out = np.zeros((n_blocks * r_star, n_blocks * r), dtype=complex)
    for i in range(n_blocks):
        for j in range(i + 1):
            out[i * r_star:(i + 1) * r_star, j * r:(j + 1) * r] = coeffs[i - j]
    return out


@pytest.fixture(scope="session")
def dense_toeplitz():
    """The dense block layout of ``toeplitz_mult``, built entry by entry."""
    return _dense_toeplitz


def _ambient_procrustes(pair_a, pair_b, u0):
    """Oracle: the ambient Procrustes iteration for one start (n, n)."""
    sa, pa, sb, pb = pair_a.s, pair_a.p, pair_b.s, pair_b.p
    sa_h, pa_h = matcore.dagger(sa), matcore.dagger(pa)
    sb_h, pb_h = matcore.dagger(sb), matcore.dagger(pb)
    scale = 1.0 + matcore.op_norm(sa) + matcore.op_norm(pa)
    u = u0
    for _ in range(matcore.SEARCH_ITERS):
        m = (sb @ u @ sa_h + sb_h @ u @ sa
             + pb @ u @ pa_h + pb_h @ u @ pa)
        u_next = matcore.polar_unitary(m)
        if matcore.fro_norm(u_next - u) <= matcore.PROCRUSTES_STOP_TOL * scale:
            return u_next
        u = u_next
    return u


def _defect_alternation(fp_a, fp_b, samples, sigma0, eta0):
    """Oracle: the defect alternation for one start, samples as (Theta_A, Theta_B) pairs."""
    fa, fb = fp_a.f, fp_b.f
    fas, fbs = fp_a.f_star, fp_b.f_star
    sigma, eta = sigma0, eta0
    for _ in range(matcore.SEARCH_ITERS):
        m_eta = (fbs @ eta @ matcore.dagger(fas)
                 + matcore.dagger(fbs) @ eta @ fas)
        for ta, tb in samples:
            m_eta = m_eta + tb @ sigma @ matcore.dagger(ta)
        eta = matcore.polar_unitary(m_eta)
        m_sig = (fb @ sigma @ matcore.dagger(fa)
                 + matcore.dagger(fb) @ sigma @ fa)
        for ta, tb in samples:
            m_sig = m_sig + matcore.dagger(tb) @ eta @ ta
        sigma = matcore.polar_unitary(m_sig)
    return sigma, eta


@pytest.fixture(scope="session")
def procrustes_oracle():
    """The witness search's ambient iteration, one start at a time."""
    return _ambient_procrustes


@pytest.fixture(scope="session")
def alternation_oracle():
    """The witness search's defect alternation, one start at a time."""
    return _defect_alternation
