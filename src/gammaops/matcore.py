"""Dense complex linear-algebra primitives and the package's numerical policy.

Operators are plain ``numpy.ndarray`` values with ``complex128`` entries.
The constant block below is the package's one numerical-policy table: each
tolerance, floor, cap, limit, sample and iteration count is defined there
once, and every module reads it as ``matcore.NAME``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

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
#: Stop test of :func:`numerical_radius`, offset of its first level above the
#: polished start, and the gap below which the start's top eigenvalue counts
#: as degenerate; relative to the power of two nearest the largest entry.
RADIUS_TOL = 1e-10
#: Most Lanczos steps of :func:`op_norm_hermitian`.
POWER_ITERS = 60
#: Start-vector seed of :func:`op_norm_hermitian`.
POWER_SEED = 7
#: Byte budget of one block of a stacked kernel, see :func:`batches`.
BATCH_BYTES = 2 ** 17

# Scalar geometry (gamma_domain) and pair validation (gamma_pair).
#: Moduli within this of 1 lie on the circle: roots in ``classify_point``,
#: pencil eigenvalues in :func:`numerical_radius`.
POINT_TOL = 1e-8
#: A disc automorphism needs |a| < 1 - this and ||beta| - 1| <= this.
DISC_MARGIN = 1e-12
#: Grid points per circle of the torus grid behind the sup-norm estimates.
SUP_GRID_N = 64
#: Best half-grid points that the refined sup norm polishes locally.
REFINE_STARTS = 3
#: Most Newton steps of that polish from each start.
REFINE_ITERS = 40
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

# Defects, transport, characteristic function and model.
#: Eigenvalue clamp of the defect Gramians; |P| may reach 1 + CONTRACTION_TOL.
DEFECT_EIG_CLAMP = 1e-9
#: The commuting-lift identity P D_P = D_P* P must hold to this accuracy.
DEFECT_INTERTWINE_TOL = 1e-9
#: Smallest |1 - conj(a) s + conj(a)^2 p|, or sigma_min of its operator form
#: or of I - z P* at evaluation points of Theta.
RESOLVENT_FLOOR = 1e-12
#: Residual level declaring two characteristic functions coincident.
COINCIDE_TOL = 1e-8
#: Operator-norm target for |P^N| when choosing N automatically.
AUTO_TAIL_TARGET = 1e-12
#: Hard cap on the truncation order N.
TRUNCATION_CAP = 4096

# Equivalence verdict and witness search (invariant).
#: Largest unitarity defect of a witness matrix.
WITNESS_UNITARY_TOL = 1e-10
#: Relative residual of U S_A = S_B U and U P_A = P_B U, intertwining only.
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
#: Sweeps of polar updates that every witness-search start runs.
SEARCH_ITERS = 150

# Command-line verdicts (cli).
#: analyze, compare: fundamental (analyze: and intertwining) residual bound, times 1 + |S|.
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
    """Adjoint of a matrix, or of each matrix of a stack (s, m, k)."""
    return a.conj().swapaxes(-1, -2)


def op_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def _pow2_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a 2^-e, e), e the binary exponent of the largest real or imaginary part.

    ``a`` is a nonempty float64 or complex128 array; the scaling is exact.
    """
    a = np.ascontiguousarray(a)
    parts = a.view(np.float64)
    e = int(np.frexp(np.abs(parts).max())[1])
    return np.ldexp(parts, -e).view(a.dtype), e


def fro_norm(a: np.ndarray) -> float:
    """Frobenius norm; inf only where the norm exceeds the float range."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
        if norm == np.inf:
            parts, e = _pow2_scaled(
                np.abs(np.concatenate([np.ravel(a.real), np.ravel(a.imag)])))
            norm = float(np.ldexp(np.linalg.norm(parts), e))
    return norm


def flush_subnormals(a: np.ndarray) -> np.ndarray:
    """Zero the real and imaginary parts of ``a`` below the smallest normal float.

    In place on a C-contiguous float64 or complex128 array, which is
    returned.  Subnormal operands put BLAS and LAPACK on a slow path;
    zeroing one moves its part by less than 2^-1022.
    """
    parts = a.view(np.float64)
    parts[np.abs(parts) < np.finfo(np.float64).tiny] = 0.0
    return a


def batches(count: int, item_bytes: int) -> list[slice]:
    """Consecutive slices of range(count), each of at most BATCH_BYTES of items.

    A stacked kernel builds its temporaries one slice at a time, so its
    working memory stays bounded however many items the stack holds; a
    slice holds at least one item.
    """
    step = max(1, BATCH_BYTES // max(1, item_bytes))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def comm_tol(s: np.ndarray, p: np.ndarray) -> float:
    """Commutation tolerance COMM_REL_TOL * (1 + |S| |P|), operator norms."""
    return COMM_REL_TOL * (1.0 + op_norm(s) * op_norm(p))


def commutation_defect(s: np.ndarray, p: np.ndarray) -> float:
    return fro_norm(s @ p - p @ s)


def require_commuting(s: np.ndarray, p: np.ndarray) -> None:
    """Raise NotCommuting unless the commutator is within ``comm_tol``.

    Where it is not finite, the rule is tested on S' = S 2^-a, P' = P 2^-b
    (see ``_pow2_scaled``) as |[S', P']| <= COMM_REL_TOL (2^-(a+b) + |S'| |P'|).
    A commutator that overflows to a non-finite defect fails.
    """
    tol, unit = comm_tol(s, p), ""
    if not np.isfinite(tol):
        (s, a), (p, b) = _pow2_scaled(s), _pow2_scaled(p)
        tol = COMM_REL_TOL * (np.ldexp(1.0, -(a + b)) + op_norm(s) * op_norm(p))
        unit = f", both in units of 2^{a + b}"
    with np.errstate(over="ignore", invalid="ignore"):
        defect = commutation_defect(s, p)
    if not defect <= tol:
        raise NotCommuting(
            f"commutator norm {defect:.3e} exceeds tolerance {tol:.3e}{unit}")


def hermiticity_defect(a: np.ndarray) -> float:
    return fro_norm(a - dagger(a))


def is_normal(a: np.ndarray) -> bool:
    """|A A* - A* A|_F <= HERM_REL_TOL (1 + |A|_F^2), decided without overflow.

    The rule is tested on A' = A 2^-e (see ``_pow2_scaled``) as
    |A' A'* - A'* A'|_F <= HERM_REL_TOL (2^-2e + |A'|_F^2).  2^-2e overflows
    only where every entry is below 2^-511; such an A passes, as it does
    unscaled, its defect lying far inside the absolute term.
    """
    a, e = _pow2_scaled(a)
    defect = fro_norm(a @ dagger(a) - dagger(a) @ a)
    na = fro_norm(a)
    with np.errstate(over="ignore"):
        return bool(defect <= HERM_REL_TOL * (np.ldexp(1.0, -2 * e) + na * na))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via phase-fixed QR."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[np.abs(d) < 1e-300] = 1.0
    return q * (d / np.abs(d))


def polar_unitary(m: np.ndarray) -> np.ndarray:
    """Isometric factor of the polar decomposition (closest isometry to m).

    ``m`` is one (k, l) matrix with k >= l, whose factor has orthonormal
    columns (the symmetric, Loewdin, orthonormalization of its columns), or
    a stack (s, k, l); a stack gives the stack of factors, each bitwise the
    factor of its matrix alone, from one batched SVD.
    """
    if m.size == 0:
        return m.copy()
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    return u @ vh


def restrict(q: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Compression Q* m Q of an ambient operator to the range of Q."""
    return dagger(q) @ m @ q


def psd_eigh(a, clamp: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, v) of a Hermitian PSD matrix, ascending, noise zeroed.

    Raises NotHermitian when ``|A - A*|_F > HERM_REL_TOL * |A|_F`` and NotPSD
    when an eigenvalue falls below the clamp window; eigenvalues within
    ``clamp * scale`` of zero on either side are treated as noise and set to
    exactly zero, scale being max(1, |lambda|max).
    """
    a = as_cmatrix(a, square=True, name="A")
    defect = hermiticity_defect(a)
    if defect > HERM_REL_TOL * max(fro_norm(a), 1e-300):
        raise NotHermitian(
            f"Hermiticity defect {defect:.3e} exceeds {HERM_REL_TOL:.1e} * |A|_F")
    w, v = np.linalg.eigh(0.5 * (a + dagger(a)))
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    if w.size and w.min() < -clamp * scale:
        raise NotPSD(f"eigenvalue {w.min():.3e} below -{clamp:.1e} * scale")
    return np.where(w <= clamp * scale, 0.0, w), v


def null_onb(k: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the numerical nullspace of a tall matrix.

    By QR and an SVD of R, which has the singular values and right singular
    vectors of k at min(rows, cols) rows instead of all of them; the right
    singular vectors past the numerical rank, the count of singular values
    above REL_RANK_TOL times the largest, are kept.
    """
    _, s, vh = np.linalg.svd(np.linalg.qr(k, mode="r"))
    return dagger(vh[np.count_nonzero(s > REL_RANK_TOL * s[0]):])


def _top_eigs(a: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """lambda_max(Re(e^{i theta} A)) at each angle, stacked in BATCH_BYTES blocks."""
    t, ah = np.exp(1j * angles)[:, None, None], dagger(a)
    return np.concatenate([
        np.linalg.eigvalsh(0.5 * (t[b] * a + t[b].conj() * ah))[:, -1]
        for b in batches(len(t), a.nbytes)])


def _newton_peak(a: np.ndarray, theta: float) -> tuple[float, bool]:
    """Newton ascent of f(theta) = lambda_max(Re(e^{i theta} A)) from ``theta``.

    Returns (f, peak) at the last angle reached.  With M = e^{i theta} A,
    the eigenpairs (lambda_k, v_k) of H = Re M, lambda_1 the largest, and
    H' = Re(i M), a simple top eigenvalue has f' = v_1* H' v_1 and
    f'' = -f + 2 sum_{k>1} |v_k* H' v_1|^2 / (lambda_1 - lambda_k).  The
    step -f'/f'' is taken while f'' < 0 and it raises f.  ``peak`` is true
    where the step's gain f'^2 / (2 |f''|) is below rounding or the step no
    longer raises f: f' vanishes there to rounding and f'' < 0, a local
    maximum.  It is false where the ascent stops at a top eigenvalue within
    RADIUS_TOL of the next one or at f'' >= 0.
    """
    m = np.exp(1j * theta) * a
    w, v = np.linalg.eigh(0.5 * (m + dagger(m)))
    while True:
        gap = w[-1] - w[:-1]
        if not gap[-1] > RADIUS_TOL:
            return float(w[-1]), False
        d = 0.5j * (dagger(v) @ ((m - dagger(m)) @ v[:, -1]))  # V* H' v_1
        d2 = 2.0 * float(np.sum(np.abs(d[:-1]) ** 2 / gap)) - w[-1]
        if not d2 < 0.0:
            return float(w[-1]), False
        step = -d[-1].real / d2
        if d[-1].real * step <= 2.0 * np.finfo(np.float64).eps * abs(w[-1]):
            return float(w[-1]), True  # the gain f' step / 2 is rounding
        theta += step
        m = np.exp(1j * theta) * a
        w_next, v_next = np.linalg.eigh(0.5 * (m + dagger(m)))
        if not w_next[-1] > w[-1]:
            return float(w[-1]), True
        w, v = w_next, v_next


def numerical_radius(a) -> float:
    """Numerical radius max_theta lambda_max(Re(e^{i theta} A)), by level sets.

    Mengi and Overton (IMA J. Numer. Anal. 2005), on A scaled by the power
    of two near its largest entry.  A pass takes the angles where its level
    is an eigenvalue of Re(e^{i theta} A): the finite eigenvalues within
    POINT_TOL of the unit circle of ([[0, I], [-A*, 2 level I]], [[I, 0],
    [0, A]]).  The best lambda_max at their midpoints, wrap-around included,
    is the next level, until none beats the best value by RADIUS_TOL; that
    value is returned, a lower bound up to eigvalsh rounding.

    The start is the best of f(theta) = lambda_max(Re(e^{i theta} A)) at
    theta = 0 and at the negated arguments of A's eigenvalues (the peaks of
    a normal A), polished by :func:`_newton_peak`.  The first level is
    RADIUS_TOL above it, not at it, where a crossing at a peak or at the
    minimum of f is double and rounds off the circle.  If that pencil has
    no crossing, f, continuous and below the level at the start, never
    reaches it: w(A) < best + RADIUS_TOL, and the call ends after one
    pencil.  From a start that is a local maximum, a second pass at the
    level best itself adds nothing: the rise next to the start that it
    would climb is zero at a peak, and a peak elsewhere less than
    RADIUS_TOL higher is inside the stop test of every pass.  Where the
    start is not shown to be a local maximum (a degenerate top eigenvalue,
    or f'' >= 0), that pass is kept: the level drops once to best when the
    first level has no crossing.
    """
    a = as_cmatrix(a, square=True, name="A")
    if not a.any():
        return 0.0
    a, e = _pow2_scaled(a)
    ah, n = dagger(a), a.shape[0]
    best, peak = float(abs(a[0, 0])), True
    if n > 1:
        starts = np.append(0.0, -np.angle(np.linalg.eigvals(a)))
        best, peak = _newton_peak(a, float(starts[np.argmax(_top_eigs(a, starts))]))
    eye, zero = np.eye(n), np.zeros((n, n))
    left = np.block([[zero, eye], [-ah, zero]])
    right = np.block([[eye, zero], [zero, a]])
    level = best + RADIUS_TOL
    while n > 1:
        left[n:, n:] = 2.0 * level * eye
        # z = alpha / beta, tested without dividing: beta is 0 where z = inf
        alpha, beta = scipy.linalg.eigvals(left, right, homogeneous_eigvals=True)
        mod_a, mod_b = np.abs(alpha), np.abs(beta)
        on = (mod_b > 0) & (np.abs(mod_a - mod_b) <= POINT_TOL * mod_b)
        theta = np.sort(np.angle(alpha[on] * np.conj(beta[on])))
        if theta.size == 0:
            if peak or level == best:
                break
            level = best  # the max lies within RADIUS_TOL: refine from best
            continue
        mids = 0.5 * (theta + np.append(theta[1:], theta[0] + 2.0 * np.pi))
        top = float(_top_eigs(a, mids).max())
        if not top > best + RADIUS_TOL:
            best = max(best, top)
            break
        best = level = top
    with np.errstate(over="ignore"):  # a radius beyond the float range is inf
        return float(np.ldexp(best, e))


def _common_schur(s: np.ndarray, p: np.ndarray):
    """Common unitary (near-)triangularization of a commuting pair.

    Returns (Ms, Mp, residual) where Ms = Z* S Z and Mp = Z* P Z for the
    best mixing coefficient tried; the residual is measured on the strict
    lower triangles.  Where the scale overflows, S 2^-a and P 2^-b are
    triangularized (see ``_pow2_scaled``), the residual is theirs, and Ms, Mp
    are scaled back.
    """
    scale = 1.0 + fro_norm(s) + fro_norm(p)
    if scale == np.inf:
        (s, a), (p, b) = _pow2_scaled(s), _pow2_scaled(p)
        ms, mp, resid = _common_schur(s, p)
        with np.errstate(over="ignore"):  # an entry beyond the range is inf
            ms, mp = (np.ldexp(m.view(np.float64), e).view(np.complex128)
                      for m, e in ((ms, a), (mp, b)))
        return ms, mp, resid
    best = None
    for gamma in _MIX_GAMMAS:
        _, z = scipy.linalg.schur(s + gamma * p, output="complex")
        ms, mp = restrict(z, s), restrict(z, p)
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
