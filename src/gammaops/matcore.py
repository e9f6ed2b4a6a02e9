"""Dense complex linear-algebra primitives used throughout the package.

Operators are plain ``numpy.ndarray`` values with ``complex128`` entries.
This module owns the numerical policy knobs (rank cuts, Hermiticity and
commutation tolerances, the numerical-radius accuracy target) so every
higher-level module applies the same rules.
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

#: Relative singular-value cut for defect-range rank decisions.
REL_RANK_TOL = 1e-10

#: Negative eigenvalues of nominally PSD matrices above this magnitude are
#: rounding noise and get clamped to zero.
EIG_CLAMP_TOL = 1e-12

#: Relative Frobenius tolerance for Hermiticity and normality tests.
HERM_REL_TOL = 1e-10

#: Absolute accuracy target of :func:`numerical_radius`.
RADIUS_TOL = 1e-10

#: Uniform angle samples that locate the maxima in :func:`numerical_radius`.
RADIUS_SAMPLES = 256

#: Power iterations and start-vector seed of :func:`op_norm_hermitian`.
POWER_ITERS = 60
POWER_SEED = 7

#: Scale factor of the commutation tolerance, see :func:`comm_tol`.
COMM_REL_TOL = 1e-10

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


def spectral_radius(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def comm_tol(s: np.ndarray, p: np.ndarray) -> float:
    """Commutation tolerance 1e-10 * (1 + |S| |P|), operator norms."""
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

    ``q`` has orthonormal columns spanning the kept range, ``rank`` is the
    number of columns, and the two sigma fields record the singular values
    on either side of the cut (0.0 when the corresponding side is empty).
    """

    q: np.ndarray
    rank: int
    sigma_min_kept: float
    sigma_max_dropped: float


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
    n = d.shape[0]
    if n == 0:
        return RangeBasis(q=np.zeros((0, 0), dtype=complex), rank=0,
                          sigma_min_kept=0.0, sigma_max_dropped=0.0)
    u, s, _ = np.linalg.svd(d)
    smax = float(s[0])
    r = 0 if smax == 0.0 else int(np.count_nonzero(s > REL_RANK_TOL * smax))
    return RangeBasis(
        q=u[:, :r].copy(),
        rank=r,
        sigma_min_kept=float(s[r - 1]) if r > 0 else 0.0,
        sigma_max_dropped=float(s[r]) if r < n else 0.0,
    )


def _top_eig_herm_part(a: np.ndarray, ah: np.ndarray, theta: float) -> float:
    h = 0.5 * (np.exp(1j * theta) * a + np.exp(-1j * theta) * ah)
    return float(np.linalg.eigvalsh(h)[-1])


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
    vals = np.array([_top_eig_herm_part(a, ah, t) for t in thetas])
    span = 2.0 * np.pi / RADIUS_SAMPLES
    vmax = float(vals.max())
    # Any grid-local maximum within the curvature margin of the best value
    # can hide the true peak; refine them all.
    margin = 4.0 * op_norm(a) * span * span + 10.0 * RADIUS_TOL
    best = vmax
    for k in range(RADIUS_SAMPLES):
        left, right = vals[k - 1], vals[(k + 1) % RADIUS_SAMPLES]
        if vals[k] < max(left, right) or vals[k] < vmax - margin:
            continue
        t0 = thetas[k]
        res = minimize_scalar(
            lambda t: -_top_eig_herm_part(a, ah, t),
            bounds=(t0 - span, t0 + span), method="bounded",
            options={"xatol": 1e-9})
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
        if resid <= 1e-11 * scale:
            break
    if best[2] > 1e-8 * scale:
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

    Power iteration on the square of the operator; adequate for the
    order-of-magnitude residual checks it backs.
    """
    if dim == 0:
        return 0.0
    rng = np.random.default_rng(POWER_SEED)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    best = 0.0
    for _ in range(POWER_ITERS):
        w = matvec(np.asarray(matvec(v)))
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        best = max(best, float(np.sqrt(abs(np.vdot(v, w)))))
        v = w / nw
    return best
