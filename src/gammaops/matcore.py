"""Dense complex linear-algebra primitives and the package's numerical policy.

Operators are plain ``numpy.ndarray`` values with ``complex128`` entries.
The constant block below is the package's one numerical-policy table: each
tolerance, floor, cap, limit, sample and iteration count is defined there
once, and every module reads it as ``matcore.NAME``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import minimize_scalar

from .exceptions import (
    DimensionMismatch,
    NotCommuting,
    NotHermitian,
    NotPSD,
    TriangularizationFailure,
)

# Linear algebra (this module).
#: Relative singular-value cut for rank decisions and nullspaces.
REL_RANK_TOL = 1e-10
#: PSD eigenvalues within this times max(1, |lambda|max) of zero are noise.
EIG_CLAMP_TOL = 1e-12
#: Relative Frobenius tolerance for Hermiticity and normality tests.
HERM_REL_TOL = 1e-10
#: Scale factor of the commutation tolerance, see :func:`comm_tol`.
COMM_REL_TOL = 1e-10
#: Common triangularization stops trying mixes at this relative residual.
SCHUR_EXIT_TOL = 1e-11
#: Common triangularization fails above this relative residual.
SCHUR_FAIL_TOL = 1e-8
#: Absolute accuracy target of :func:`numerical_radius`.
RADIUS_TOL = 1e-10
#: Uniform angle samples that locate the maxima in :func:`numerical_radius`.
RADIUS_SAMPLES = 256
#: Angle tolerance of each bounded polish in :func:`numerical_radius`.
RADIUS_XATOL = 1e-9
#: Most Lanczos steps of :func:`op_norm_hermitian`.
POWER_ITERS = 60
#: Start-vector seed of :func:`op_norm_hermitian`.
POWER_SEED = 7
#: Byte budget of one block of a stacked kernel, see :func:`batches`.
BATCH_BYTES = 2 ** 17

# Scalar geometry (gamma_domain) and pair validation (gamma_pair).
#: Root moduli within this of 1 lie on the circle in ``classify_point``.
POINT_TOL = 1e-8
#: A disc automorphism needs |a| < 1 - this and ||beta| - 1| <= this.
DISC_MARGIN = 1e-12
#: Grid points per circle of the torus grid behind the sup-norm estimates.
SUP_GRID_N = 64
#: Best grid points that the refined sup norm polishes locally.
REFINE_STARTS = 3
#: Nelder-Mead options of that local polish.
REFINE_OPTIONS = {"xatol": 1e-10, "fatol": 1e-13, "maxiter": 400}
#: Spectral-radius margin below one for purity.
PURITY_TOL = 1e-10
#: Operator-norm slack on the contraction bound for P.
CONTRACTION_TOL = 1e-10
#: Absolute slack on the bound |S| <= 2.
S_BOUND_TOL = 1e-9
#: Random polynomials drawn by the von Neumann probe.
PROBE_TRIALS = 200
#: Total degree bound in (s, p) of each probe polynomial.
PROBE_MAX_DEG = 4
#: A probe value above this share of the grid sup triggers the refined sup.
PROBE_REFINE_RATIO = 0.98
#: A probe ratio above 1 + this margin certifies a von Neumann violation.
PROBE_CERT_MARGIN = 1e-6
#: Cut for unitary directions in cnu_split: eigenvalue, intersection, leak.
UNITARY_EIG_TOL = 1e-10
#: Relative leak of S off the unitary subspace that still counts as reducing.
REDUCING_LEAK_TOL = 1e-8

# Defects, transport, characteristic function and model.
#: Eigenvalue clamp of the defect Gramians; |P| may reach 1 + CONTRACTION_TOL.
DEFECT_EIG_CLAMP = 1e-9
#: The commuting-lift identity P D_P = D_P* P must hold to this accuracy.
DEFECT_INTERTWINE_TOL = 1e-9
#: Smallest |1 - conj(a) s + conj(a)^2 p|, or sigma_min of its operator form.
RESOLVENT_FLOOR = 1e-12
#: sigma_min floor for I - z P* at evaluation points of Theta.
EVAL_FLOOR = 1e-12
#: Residual level declaring two characteristic functions coincident.
COINCIDE_TOL = 1e-8
#: Operator-norm target for |P^N| when choosing N automatically.
AUTO_TAIL_TARGET = 1e-12
#: Hard cap on the truncation order N.
TRUNCATION_CAP = 4096

# Equivalence verdict and witness search (invariant).
#: Largest unitarity defect of a witness matrix.
WITNESS_UNITARY_TOL = 1e-10
#: Unitarity defect and relative intertwining residual of an ambient unitary.
AMBIENT_INTERTWINE_TOL = 1e-8
#: Relative residual of eta1 F_*A = F_*B eta1 that the verdict accepts.
FSTAR_MATCH_TOL = 1e-8
#: Bound on the reported model-level confirmation residuals of a witness.
MODEL_CONFIRM_TOL = 1e-7
#: Relative trace-word gap that rules out equivalence conclusively.
SCREEN_TOL = 1e-6
#: Longest word in an operator and its adjoint that the screen compares.
SCREEN_MAX_LEN = 6
#: Restarts of each candidate family of the witness search.
SEARCH_RESTARTS = 20
#: Alternating polar iterations per search restart.
SEARCH_ITERS = 150
#: Intertwiner starts with sigma_min at most this times sigma_max are skipped.
START_SINGULAR_TOL = 1e-8
#: Ambient Procrustes stops once a step moves u by at most this times scale.
PROCRUSTES_STOP_TOL = 1e-14

# Command-line verdicts (cli).
#: analyze: fundamental and intertwining residual bound, times 1 + |S|.
RESIDUAL_BREACH_TOL = 1e-8
#: analyze: slack of the numerical radii of F and F_* above 1.
RADIUS_BREACH_TOL = 1e-8
#: analyze: model residual bound, times 1 + |S|, before the tail slack.
MODEL_BREACH_TOL = 1e-7
#: analyze: multiple of the truncation tail, times 1 + |S|, added to that bound.
TAIL_SLACK = 10.0
#: generate: norm bound of T1 and T2; rho(P) <= 0.7225 keeps auto N desk-sized.
GENERATE_MAX_NORM = 0.85

# Fixed generic mixing coefficients for common triangularization.  Any value
# that avoids eigenvalue collisions of S + gamma*P for distinct joint
# eigenvalues works; several are tried and the best residual wins.
_MIX_GAMMAS = (
    0.5347481392164872 + 0.8316558511739029j,
    -0.2818261862918375 + 0.4122871197576622j,
    1.1390045356674953 - 0.6554962711561418j,
    0.0914709848078965 - 1.0911300599820591j,
)


def as_cmatrix(a, square: bool = False, allow_empty: bool = True,
               name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a fresh complex128 2-D array with finite entries."""
    m = np.array(a, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise DimensionMismatch(f"{name}: expected a 2-D array, got ndim={m.ndim}")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name}: expected square, got shape {m.shape}")
    if not allow_empty and min(m.shape) == 0:
        raise DimensionMismatch(f"{name}: empty matrix not allowed here")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name}: entries must be finite")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def op_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def fro_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def batches(count: int, item_bytes: int) -> list[slice]:
    """Consecutive slices of range(count), each of at most BATCH_BYTES of items.

    A stacked kernel builds its temporaries one slice at a time, so its
    working memory stays bounded however many items the stack holds; a
    slice holds at least one item.
    """
    step = max(1, BATCH_BYTES // max(1, item_bytes))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def spectral_radius(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def comm_tol(s: np.ndarray, p: np.ndarray) -> float:
    """Commutation tolerance COMM_REL_TOL * (1 + |S| |P|), operator norms."""
    return COMM_REL_TOL * (1.0 + op_norm(s) * op_norm(p))


def commutation_defect(s: np.ndarray, p: np.ndarray) -> float:
    return fro_norm(s @ p - p @ s)


def require_commuting(s: np.ndarray, p: np.ndarray) -> None:
    tol = comm_tol(s, p)
    defect = commutation_defect(s, p)
    if defect > tol:
        raise NotCommuting(f"commutator norm {defect:.3e} exceeds tolerance {tol:.3e}")


def hermiticity_defect(a: np.ndarray) -> float:
    return fro_norm(a - dagger(a))


def is_normal(a: np.ndarray) -> bool:
    if a.size == 0:
        return True
    defect = fro_norm(a @ dagger(a) - dagger(a) @ a)
    return defect <= HERM_REL_TOL * (1.0 + fro_norm(a) ** 2)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via phase-fixed QR."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[np.abs(d) < 1e-300] = 1.0
    return q * (d / np.abs(d))


def polar_unitary(m: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition (closest unitary to m)."""
    if m.size == 0:
        return m.copy()
    u, _, vh = np.linalg.svd(m)
    return u @ vh


@dataclass(frozen=True)
class RangeBasis:
    """Orthonormal basis of a numerically determined range.

    ``q`` has orthonormal columns spanning the kept range and ``rank`` is
    the number of columns.
    """

    q: np.ndarray
    rank: int


def lift(basis: RangeBasis, m: np.ndarray) -> np.ndarray:
    """Ambient n x n representative Q m Q* of an operator on the range."""
    return basis.q @ m @ dagger(basis.q)


def restrict(basis: RangeBasis, m: np.ndarray) -> np.ndarray:
    """Compression Q* m Q of an ambient operator to the range."""
    return dagger(basis.q) @ m @ basis.q


def herm_sqrt_psd(a, eig_clamp: float = EIG_CLAMP_TOL) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Raises NotHermitian when ``|A - A*|_F > HERM_REL_TOL * |A|_F`` and NotPSD
    when an eigenvalue falls below the clamp window; eigenvalues within
    ``eig_clamp * scale`` of zero on either side are treated as noise and
    zeroed, so the square root of a noise-level matrix is exactly zero.
    """
    a = as_cmatrix(a, square=True, name="A")
    if a.size == 0:
        return a.copy()
    na = fro_norm(a)
    if hermiticity_defect(a) > HERM_REL_TOL * max(na, 1e-300):
        raise NotHermitian(
            f"Hermiticity defect {hermiticity_defect(a):.3e} exceeds "
            f"{HERM_REL_TOL:.1e} * |A|_F")
    h = 0.5 * (a + dagger(a))
    w, v = np.linalg.eigh(h)
    scale = max(1.0, float(np.abs(w).max()))
    if w.min() < -eig_clamp * scale:
        raise NotPSD(f"eigenvalue {w.min():.3e} below -{eig_clamp:.1e} * scale")
    w = np.where(w <= eig_clamp * scale, 0.0, w)
    b = (v * np.sqrt(w)) @ dagger(v)
    return 0.5 * (b + dagger(b))


def range_onb(d) -> RangeBasis:
    """Orthonormal basis of the numerical range of a square matrix.

    Columns of an SVD left factor are kept while the singular value exceeds
    REL_RANK_TOL times the largest one.  The zero matrix has rank 0.
    """
    d = as_cmatrix(d, square=True, name="D")
    if d.shape[0] == 0:
        return RangeBasis(q=np.zeros((0, 0), dtype=complex), rank=0)
    u, s, _ = np.linalg.svd(d)
    smax = float(s[0])
    r = 0 if smax == 0.0 else int(np.count_nonzero(s > REL_RANK_TOL * smax))
    return RangeBasis(q=u[:, :r].copy(), rank=r)


def _top_eig_herm_part(a: np.ndarray, ah: np.ndarray, theta) -> np.ndarray:
    """lambda_max(Re(e^{i theta} A)) for a scalar angle or an array of angles."""
    t = np.asarray(theta)[..., None, None]
    h = 0.5 * (np.exp(1j * t) * a + np.exp(-1j * t) * ah)
    return np.linalg.eigvalsh(h)[..., -1]


def numerical_radius(a) -> float:
    """Numerical radius max_theta lambda_max(Re(e^{i theta} A)).

    A uniform sample of RADIUS_SAMPLES angles locates candidate maxima;
    every competitive bracket is then polished by bounded scalar
    maximization so the returned value is accurate to about RADIUS_TOL
    absolutely.
    """
    a = as_cmatrix(a, square=True, name="A")
    if a.size == 0:
        return 0.0
    if a.shape == (1, 1):
        return float(abs(a[0, 0]))
    ah = dagger(a)
    thetas = np.linspace(0.0, 2.0 * np.pi, RADIUS_SAMPLES, endpoint=False)
    vals = np.empty(RADIUS_SAMPLES)
    for blk in batches(RADIUS_SAMPLES, a.nbytes):
        vals[blk] = _top_eig_herm_part(a, ah, thetas[blk])
    span = 2.0 * np.pi / RADIUS_SAMPLES
    vmax = float(vals.max())
    # Any grid-local maximum within the curvature margin of the best value
    # can hide the true peak; refine them all.
    margin = 4.0 * op_norm(a) * span * span + 10.0 * RADIUS_TOL
    peaks = ((vals >= np.maximum(np.roll(vals, 1), np.roll(vals, -1)))
             & (vals >= vmax - margin))
    best = vmax
    for t0 in thetas[peaks]:
        res = minimize_scalar(
            lambda t: -float(_top_eig_herm_part(a, ah, t)),
            bounds=(t0 - span, t0 + span), method="bounded",
            options={"xatol": RADIUS_XATOL})
        best = max(best, float(-res.fun))
    return best


def _conj_by(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    return dagger(z) @ m @ z


def _common_schur(s: np.ndarray, p: np.ndarray):
    """Common unitary (near-)triangularization of a commuting pair.

    Returns (Ms, Mp, residual) where Ms = Z* S Z and Mp = Z* P Z for the
    best mixing coefficient tried; the residual is measured on the strict
    lower triangles.
    """
    scale = 1.0 + fro_norm(s) + fro_norm(p)
    best = None
    for gamma in _MIX_GAMMAS:
        _, z = scipy.linalg.schur(s + gamma * p, output="complex")
        ms, mp = _conj_by(z, s), _conj_by(z, p)
        resid = fro_norm(np.tril(ms, -1)) + fro_norm(np.tril(mp, -1))
        if best is None or resid < best[2]:
            best = (ms, mp, resid)
        if resid <= SCHUR_EXIT_TOL * scale:
            break
    if best[2] > SCHUR_FAIL_TOL * scale:
        raise TriangularizationFailure(
            f"no common triangularization within tolerance, best residual "
            f"{best[2]:.3e} at scale {scale:.3e}")
    return best


def joint_eigs_commuting(s, p) -> list[tuple[complex, complex]]:
    """Paired joint eigenvalues of a commuting (possibly non-normal) pair.

    Computed from a simultaneous unitary upper-triangularization driven by
    the Schur form of a generic linear combination.  Pairs are sorted
    lexicographically by (Re s, Im s, Re p, Im p).
    """
    s = as_cmatrix(s, square=True, name="S")
    p = as_cmatrix(p, square=True, name="P")
    if s.shape != p.shape:
        raise DimensionMismatch(f"shape mismatch {s.shape} vs {p.shape}")
    n = s.shape[0]
    if n == 0:
        return []
    require_commuting(s, p)
    if n == 1:
        return [(complex(s[0, 0]), complex(p[0, 0]))]
    ms, mp, _ = _common_schur(s, p)
    pairs = [(complex(ms[k, k]), complex(mp[k, k])) for k in range(n)]
    pairs.sort(key=lambda t: (t[0].real, t[0].imag, t[1].real, t[1].imag))
    return pairs


def op_norm_hermitian(matvec, dim: int) -> float:
    """Largest |eigenvalue| of a Hermitian operator given only its action.

    Lanczos with full reorthogonalization for at most POWER_ITERS steps,
    stopping when the new direction falls below REL_RANK_TOL times |Hv|.
    The result is the largest |Ritz value|: exact once the Krylov space is
    exhausted (always when dim <= POWER_ITERS), a lower bound otherwise.
    """
    if dim == 0:
        return 0.0
    steps = min(POWER_ITERS, dim)
    rows = np.empty((steps, dim), dtype=complex)  # orthonormal Krylov basis
    rng = np.random.default_rng(POWER_SEED)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    alpha, beta = [], []
    for j in range(steps):
        rows[j] = v / np.linalg.norm(v)
        w = np.asarray(matvec(rows[j]), dtype=complex)
        hv = float(np.linalg.norm(w))
        alpha.append(float(np.vdot(rows[j], w).real))
        if j + 1 == steps:
            break
        kept = rows[:j + 1]
        for _ in range(2):  # twice is enough for orthogonality to rounding
            w -= np.conj(kept @ np.conj(w)) @ kept
        b = float(np.linalg.norm(w))
        if b <= REL_RANK_TOL * hv:
            break
        beta.append(b)
        v = w
    ritz = scipy.linalg.eigvalsh_tridiagonal(np.array(alpha), np.array(beta))
    return float(np.abs(ritz).max())
