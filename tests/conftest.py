import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize

import gammaops as g
from gammaops import matcore
from gammaops.exceptions import NotIntertwining


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


def _svd_range_onb(d):
    """Oracle: the range basis of D by an SVD, cut at REL_RANK_TOL times its norm."""
    u, s, _ = np.linalg.svd(d)
    rank = 0 if not s.size or s[0] == 0 else int(
        np.count_nonzero(s > matcore.REL_RANK_TOL * s[0]))
    return u[:, :rank]


@pytest.fixture(scope="session")
def svd_range_onb():
    """The SVD rank rule, the reference for the eigenvalue rule of ``defect_pair``."""
    return _svd_range_onb


def _defect(p):
    """Oracle: the ambient D_P = (I - P*P)^(1/2) by ``scipy.linalg.sqrtm``.

    Formed from P alone, not from ``defect_pair``; D_P* is ``_defect(P*)``.
    """
    return scipy.linalg.sqrtm(np.eye(len(p)) - matcore.dagger(p) @ p)


def _lift(q, m):
    """The ambient n x n operator Q m Q* acting as m on the range of Q."""
    return q @ m @ matcore.dagger(q)


def _pf_intertwining_lifted(fp):
    """Oracle: |P L(F) Pi - L(F_*)^adj P Pi|_F, L the lifts and Pi onto Ran D_P."""
    q, p = fp.defect_p.q, fp.pair.p
    proj = q @ matcore.dagger(q)
    fs_amb = _lift(fp.defect_p_star.q, fp.f_star)
    return matcore.fro_norm(p @ _lift(q, fp.f) @ proj
                            - matcore.dagger(fs_amb) @ p @ proj)


def _fstar_identity_lifted(fp):
    """Oracle: |D_P* L^adj + P D_P* L - S D_P*|_F, L the ambient lift of F_*."""
    pair = fp.pair
    d_star = _defect(matcore.dagger(pair.p))
    fs_amb = _lift(fp.defect_p_star.q, fp.f_star)
    return matcore.fro_norm(d_star @ matcore.dagger(fs_amb)
                            + pair.p @ d_star @ fs_amb - pair.s @ d_star)


def _theta_ambient(fp, z):
    """Oracle: Theta(z) as the ambient -P + z D_P* (I - z P*)^(-1) D_P, compressed."""
    p = fp.pair.p
    core = -p + z * _defect(matcore.dagger(p)) @ np.linalg.solve(
        np.eye(len(p)) - z * matcore.dagger(p), _defect(p))
    return matcore.dagger(fp.defect_p_star.q) @ core @ fp.defect_p.q


def _reassembly_residual(s, p, dd, f):
    """Oracle: |(D Q) F (D Q)* - (S - S*P)|_F with the ambient D of P."""
    a = _defect(p) @ dd.q
    return matcore.fro_norm(a @ f @ matcore.dagger(a) - (s - matcore.dagger(s) @ p))


@pytest.fixture(scope="session")
def ambient_oracles():
    """The defect-space formulas in their ambient form, with D and the lifts Q m Q*."""
    return {"defect": _defect, "pf_intertwining": _pf_intertwining_lifted,
            "fstar_identity": _fstar_identity_lifted,
            "theta": _theta_ambient, "reassembly": _reassembly_residual}


def _kernel_identity_loop(fp, zs, ws):
    """Oracle: the kernel identity residual, one point pair (w, z) at a time."""
    p, q_star = fp.pair.p, fp.defect_p_star.q
    d_star = _defect(matcore.dagger(p))
    eye = np.eye(p.shape[0])
    worst = 0.0
    for z in zs:
        rz = np.linalg.inv(eye - np.conj(z) * p)
        for w in ws:
            rw = np.linalg.inv(eye - w * matcore.dagger(p))
            lhs = (np.eye(q_star.shape[1])
                   - g.theta_at(fp, w) @ matcore.dagger(g.theta_at(fp, z)))
            rhs = ((1.0 - w * np.conj(z))
                   * matcore.dagger(q_star) @ d_star @ rw @ rz @ d_star @ q_star)
            worst = max(worst, matcore.fro_norm(lhs - rhs))
    return worst


@pytest.fixture(scope="session")
def kernel_identity_oracle():
    """The kernel identity residual by a double loop over the points."""
    return _kernel_identity_loop


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


def _intertwiner_system(pair_a, pair_b):
    """Oracle: the 4n^2 x n^2 system K x = 0 of K X_A = X_B K for X in
    {S, P, S*, P*}, row-major: (A X).ravel() = kron(A, I) x and
    (X B).ravel() = kron(I, B.T) x."""
    eye = np.eye(pair_a.n)
    return np.concatenate([
        np.kron(x_b, eye) - np.kron(eye, x_a.T) for x_a, x_b in (
            (pair_a.s, pair_b.s), (pair_a.p, pair_b.p),
            (matcore.dagger(pair_a.s), matcore.dagger(pair_b.s)),
            (matcore.dagger(pair_a.p), matcore.dagger(pair_b.p)))])


@pytest.fixture(scope="session")
def intertwiner_system():
    """The full intertwiner system K of two pairs, by Kronecker products."""
    return _intertwiner_system


#: Polar steps that the ambient ascent oracle runs from each start.
_AMBIENT_SWEEPS = 150


def _ambient_procrustes(pair_a, pair_b, u0):
    """Oracle: all _AMBIENT_SWEEPS ambient Procrustes steps for one start (n, n)."""
    sa, pa, sb, pb = pair_a.s, pair_a.p, pair_b.s, pair_b.p
    sa_h, pa_h = matcore.dagger(sa), matcore.dagger(pa)
    sb_h, pb_h = matcore.dagger(sb), matcore.dagger(pb)
    u = u0
    for _ in range(_AMBIENT_SWEEPS):
        u = matcore.polar_unitary(sb @ u @ sa_h + sb_h @ u @ sa
                                  + pb @ u @ pa_h + pb_h @ u @ pa)
    return u


def _ambient_ascent_search(fp_a, fp_b, restarts, seed):
    """Oracle: the ambient polar ascent that the witness search once ran.

    ``restarts`` starts, the identity and then Haar unitaries drawn from
    ``seed``, each run for all _AMBIENT_SWEEPS steps; each end point is checked
    by ``witness_from_ambient`` and ``verify_equivalence``.  Returns the
    number of the first start that gives a witness, or None.  The search's
    warm start from the intertwiner nullspace is left out, so the oracle
    is meant for pairs whose nullspace is empty.
    """
    rng = np.random.default_rng(seed)
    n = fp_a.pair.n
    for k in range(restarts):
        u0 = np.eye(n, dtype=complex) if k == 0 else matcore.haar_unitary(n, rng)
        u = _ambient_procrustes(fp_a.pair, fp_b.pair, u0)
        try:
            witness, _ = g.witness_from_ambient(u, fp_a, fp_b)
        except (NotIntertwining, ValueError):
            continue
        if g.verify_equivalence(fp_a, fp_b, witness).equivalent:
            return k + 1
    return None


@pytest.fixture(scope="session")
def ambient_search_oracle():
    """The ambient family as a polar ascent from identity and Haar starts."""
    return _ambient_ascent_search


def _trace_word_screen(fp_a, fp_b):
    """Oracle: the trace-word screen, one word and one Python abs at a time."""
    def words(m):
        letters = (m, matcore.dagger(m))
        out = {}
        for length in range(1, matcore.SCREEN_MAX_LEN + 1):
            for word in itertools.product((0, 1), repeat=length):
                prod = letters[word[0]]
                for k in word[1:]:
                    prod = prod @ letters[k]
                out["".join("ab"[k] for k in word)] = complex(np.trace(prod))
        return out

    if fp_a.f.shape != fp_b.f.shape or fp_a.f_star.shape != fp_b.f_star.shape:
        return g.ScreenResult(max_gap=float("inf"), mismatch=True, worst_word="rank")
    max_gap, worst = 0.0, ""
    for tag, ma, mb in (("f:", fp_a.f, fp_b.f),
                        ("f_star:", fp_a.f_star, fp_b.f_star)):
        words_b = words(mb)
        for word, ta in words(ma).items():
            tb = words_b[word]
            gap = abs(ta - tb) / max(1.0, abs(ta), abs(tb))
            if gap > max_gap:
                max_gap, worst = gap, tag + word
    return g.ScreenResult(max_gap=max_gap, mismatch=max_gap > matcore.SCREEN_TOL,
                          worst_word=worst)


@pytest.fixture(scope="session")
def screen_oracle():
    """The trace-word screen, word by word."""
    return _trace_word_screen


#: Options of the oracle's Nelder-Mead polish.
_NELDER_MEAD = {"xatol": 1e-10, "fatol": 1e-13, "maxiter": 400}


def _torus_grid():
    """Points (z_j + z_k, z_j z_k) of the grid z_j = e^{2 pi i j / SUP_GRID_N}.

    The product is read off the grid as z_{(j + k) mod SUP_GRID_N}, so the
    points (j, k) and (k, j) agree bitwise; the point (j, k) sits at index
    j * SUP_GRID_N + k.
    """
    n = matcore.SUP_GRID_N
    z = np.exp(2j * np.pi * np.arange(n) / n)
    j, k = np.indices((n, n)).reshape(2, -1)
    return z[j] + z[k], z[(j + k) % n]


@pytest.fixture(scope="session")
def torus_grid():
    """The flat (s, p) points of the full SUP_GRID_N^2 torus grid."""
    return _torus_grid


def _refined_sup(coeffs):
    """Oracle: grid sup polished by a Nelder-Mead run from each of the best starts."""
    vals = np.abs(g.eval_sym_poly(coeffs, *_torus_grid()))
    best = float(vals.max())
    step = 2.0 * np.pi / matcore.SUP_GRID_N

    def neg_abs(theta):
        w1, w2 = np.exp(1j * theta[0]), np.exp(1j * theta[1])
        return -abs(g.eval_sym_poly(coeffs, w1 + w2, w1 * w2))

    for idx in np.argsort(vals)[::-1][:matcore.REFINE_STARTS]:
        j, k = divmod(int(idx), matcore.SUP_GRID_N)
        res = minimize(neg_abs, np.array([step * j, step * k]),
                       method="Nelder-Mead", options=_NELDER_MEAD)
        best = max(best, float(-res.fun))
    return best


@pytest.fixture(scope="session")
def refined_sup_oracle():
    """The refined sup with every start run, mirrors included."""
    return _refined_sup


def _z_coeffs_reference(stack):
    """Oracle: (z1, z2) coefficients, each term added at fancy indices."""
    m, a, b = stack.shape
    d = max(a + b - 1, 0)
    zc = np.zeros((m, d, d), dtype=complex)
    k = np.arange(b)
    for j in range(a):
        for l in range(j + 1):
            zc[:, l + k, j - l + k] += math.comb(j, l) * stack[:, j]
    return zc


def _grid_sups_reference(stack, chunk=64):
    """Oracle: every grid sup as a stacked product W C W^T, ``chunk`` at a time."""
    n = matcore.SUP_GRID_N
    zc = _z_coeffs_reference(stack)
    z = np.exp(2j * np.pi * np.arange(n) / n)
    w = z[np.outer(np.arange(n), np.arange(zc.shape[-1])) % n]
    return np.concatenate([np.abs(w @ zc[i:i + chunk] @ w.T).max(axis=(1, 2))
                           for i in range(0, len(zc), chunk)])


def _probe_reference(pair, trials, seed):
    """Oracle: the von Neumann probe with the grid sup of every polynomial.

    The polynomials come from one draw and are evaluated as one stack; the
    ones above PROBE_REFINE_RATIO times their grid sup are refined as one
    stack.  Returns (worst_ratio, worst_coeffs, certified_not_gamma).
    """
    deg = matcore.PROBE_MAX_DEG
    fixed = [np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
             np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
             np.array([[1.0]], dtype=complex)]
    polys = np.zeros((len(fixed) + trials, deg + 1, deg + 1), dtype=complex)
    for c, f in zip(polys, fixed):
        c[:f.shape[0], :f.shape[1]] = f
    polys[len(fixed):] = g.gamma_pair._random_polys(
        np.random.default_rng(seed), trials, deg)
    values = g.eval_matrix_sym_poly(polys, pair.s, pair.p)
    finite = np.isfinite(values).all(axis=(1, 2))
    if not finite.all():
        worst, ratio = int(np.argmin(finite)), float("inf")
    else:
        vals = np.linalg.norm(values, 2, axis=(1, 2))
        sups = _grid_sups_reference(polys)
        refine = vals > matcore.PROBE_REFINE_RATIO * np.maximum(sups, 1e-300)
        sups[refine] = np.maximum(sups[refine],
                                  g.sup_norm_on_gamma_refined(polys[refine]))
        ratios = vals / np.maximum(sups, 1e-300)
        worst = int(np.argmax(ratios))
        ratio = float(ratios[worst])
    coeffs = fixed[worst] if worst < len(fixed) else polys[worst]
    return ratio, coeffs, ratio > 1.0 + matcore.PROBE_CERT_MARGIN


@pytest.fixture(scope="session")
def probe_oracle():
    """The probe as before its screen: the full grid for every polynomial."""
    return _probe_reference


@pytest.fixture(scope="session")
def grid_sups_oracle():
    """Every grid sup from the fancy-index (z1, z2) conversion, in stacks."""
    return _grid_sups_reference
