"""Commuting operator pairs (S, P) attached to the symmetrized bidisc.

``validate`` checks only necessary conditions; no finite procedure certifies
the full polynomial inequality, so the von Neumann probe reports evidence
and can certify failure but never success.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import matcore
from .exceptions import (
    DimensionMismatch,
    NotContraction,
    ReductionFailure,
)
from .gamma_domain import (
    Region,
    SymPoint,
    classify_point,
    eval_matrix_sym_poly,
    sup_norm_on_gamma,
    sup_norm_on_gamma_refined,
)


@dataclass(frozen=True)
class PairFlags:
    """Outcome of the necessary-condition checks for one pair."""

    commuting: bool
    contraction: bool
    s_bound: bool
    spectrum_in_gamma: bool
    pure: bool


@dataclass(frozen=True, eq=False)
class GammaPair:
    """A commuting pair with cached norms, joint spectrum and flags."""

    s: np.ndarray
    p: np.ndarray
    norm_s: float
    norm_p: float
    spectral_radius_p: float
    joint_spectrum: tuple[SymPoint, ...]
    flags: PairFlags = field(repr=False)

    @property
    def n(self) -> int:
        return self.s.shape[0]

    @property
    def necessary_ok(self) -> bool:
        f = self.flags
        return f.commuting and f.contraction and f.s_bound and f.spectrum_in_gamma


def validate(s, p) -> GammaPair:
    """Build a GammaPair, checking the necessary conditions only.

    Commutation beyond tolerance is a hard error; the norm bounds and the
    joint-spectrum position are recorded as flags.  A fully passing pair is
    still not certified, see the module docstring.
    """
    s = matcore.as_cmatrix(s, square=True, allow_empty=False, name="S")
    p = matcore.as_cmatrix(p, square=True, allow_empty=False, name="P")
    if s.shape != p.shape:
        raise DimensionMismatch(f"S is {s.shape} but P is {p.shape}")
    matcore.require_commuting(s, p)

    norm_s, norm_p = matcore.op_norm(s), matcore.op_norm(p)
    rho_p = matcore.spectral_radius(p)
    points = tuple(SymPoint(*t) for t in matcore.joint_eigs_commuting(s, p))
    in_gamma = all(classify_point(pt) is not Region.OUTSIDE for pt in points)
    flags = PairFlags(
        commuting=True,
        contraction=norm_p <= 1.0 + matcore.CONTRACTION_TOL,
        s_bound=norm_s <= 2.0 + matcore.S_BOUND_TOL,
        spectrum_in_gamma=in_gamma,
        pure=rho_p < 1.0 - matcore.PURITY_TOL,
    )
    s.setflags(write=False)
    p.setflags(write=False)
    return GammaPair(s=s, p=p, norm_s=norm_s, norm_p=norm_p,
                     spectral_radius_p=rho_p, joint_spectrum=points, flags=flags)


def symmetrized_pair(t1, t2) -> GammaPair:
    """Pair (T1 + T2, T1 T2) from two commuting contractions.

    Such pairs satisfy the polynomial inequality by dilation of the
    commuting contractions, so everything downstream may rely on it.
    """
    t1 = matcore.as_cmatrix(t1, square=True, allow_empty=False, name="T1")
    t2 = matcore.as_cmatrix(t2, square=True, allow_empty=False, name="T2")
    if t1.shape != t2.shape:
        raise DimensionMismatch(f"T1 is {t1.shape} but T2 is {t2.shape}")
    matcore.require_commuting(t1, t2)
    for name, t in (("T1", t1), ("T2", t2)):
        nt = matcore.op_norm(t)
        if nt > 1.0 + matcore.CONTRACTION_TOL:
            raise NotContraction(f"|{name}| = {nt:.12g} exceeds 1")
    return validate(t1 + t2, t1 @ t2)


def is_pure(p) -> bool:
    """Whether the spectral radius of P sits strictly inside the disc."""
    p = matcore.as_cmatrix(p, square=True, name="P")
    return matcore.spectral_radius(p) < 1.0 - matcore.PURITY_TOL


def is_gamma_unitary(pair: GammaPair) -> bool:
    """Commuting normal pair whose joint spectrum lies on the distinguished boundary."""
    if not (matcore.is_normal(pair.s) and matcore.is_normal(pair.p)):
        return False
    points = matcore.joint_eigs_commuting(pair.s, pair.p)
    return all(classify_point(SymPoint(*t)) is Region.DISTINGUISHED_BGAMMA
               for t in points)


@dataclass(frozen=True)
class VnProbeReport:
    """Worst polynomial found by the von Neumann probe."""

    worst_ratio: float
    certified_not_gamma: bool
    worst_coeffs: np.ndarray
    trials: int
    max_deg: int

    @property
    def passed(self) -> bool:
        return not self.certified_not_gamma


def _random_polys(rng: np.random.Generator, trials: int,
                  max_deg: int) -> np.ndarray:
    """``trials`` arrays with c[j, k] = sqrt(u) e^(2 pi i v) for j + k <= max_deg.

    The uniforms (u, v) are drawn entry by entry in row-major order.
    """
    deg = np.arange(max_deg + 1)
    j, k = np.nonzero(deg[:, None] + deg[None, :] <= max_deg)
    u = rng.uniform(size=(trials, len(j), 2))
    c = np.zeros((trials, max_deg + 1, max_deg + 1), dtype=complex)
    c[:, j, k] = np.sqrt(u[..., 0]) * np.exp(2j * np.pi * u[..., 1])
    return c


def vn_probe(pair: GammaPair, trials: int = matcore.PROBE_TRIALS,
             seed: int = 0) -> VnProbeReport:
    """Compare |q(S, P)| with the sup of |q| over the domain for random q.

    The sup is estimated from below (grid plus local refinement), so a ratio
    above 1 + PROBE_CERT_MARGIN certifies the pair is not attached to the
    domain, while small ratios are evidence only.  The monomials s and p and
    the constant are always probed before the random draws; the draw
    sequence is deterministic in ``seed``.  A value q(S, P) that overflows
    certifies at once, with an infinite ratio.  All polynomials are
    evaluated as one stack; the worst is the first of the largest ratio.
    """
    rng = np.random.default_rng(seed)
    deg = matcore.PROBE_MAX_DEG
    fixed = [np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),  # s
             np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),  # p
             np.array([[1.0]], dtype=complex)]
    polys = np.zeros((len(fixed) + trials, deg + 1, deg + 1), dtype=complex)
    for c, f in zip(polys, fixed):
        c[:f.shape[0], :f.shape[1]] = f
    polys[len(fixed):] = _random_polys(rng, trials, deg)

    def unpadded(i):
        return fixed[i] if i < len(fixed) else polys[i]

    values = eval_matrix_sym_poly(polys, pair.s, pair.p)
    finite = np.isfinite(values).all(axis=(1, 2))
    # q is bounded on the domain, so an overflowing q(S, P) certifies
    first_bad = len(polys) if finite.all() else int(np.argmin(finite))
    vals = np.linalg.norm(values[:first_bad], 2, axis=(1, 2))
    del values  # freed before the grid blocks, to keep the peak low
    sups = sup_norm_on_gamma(polys[:first_bad])
    refine = vals > matcore.PROBE_REFINE_RATIO * np.maximum(sups, 1e-300)
    for i in np.flatnonzero(refine):
        sups[i] = max(sups[i], sup_norm_on_gamma_refined(unpadded(i)))
    ratios = vals / np.maximum(sups, 1e-300)

    if first_bad < len(polys):
        worst, worst_ratio = first_bad, float("inf")
    else:
        worst = int(np.argmax(ratios))
        worst_ratio = float(ratios[worst])
    return VnProbeReport(
        worst_ratio=worst_ratio,
        certified_not_gamma=worst_ratio > 1.0 + matcore.PROBE_CERT_MARGIN,
        worst_coeffs=np.array(unpadded(worst)),
        trials=trials,
        max_deg=deg,
    )


@dataclass(frozen=True)
class CnuSplit:
    """Unitary / completely-non-unitary decomposition of a pair.

    ``basis`` is the ambient unitary [Q_u, Q_c]; a part is None when the
    corresponding subspace is trivial.
    """

    unitary_part: GammaPair | None
    cnu_part: GammaPair | None
    basis: np.ndarray
    dim_unitary: int


def _eig_one_space(g: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (g + matcore.dagger(g)))
    return v[:, w >= 1.0 - matcore.UNITARY_EIG_TOL]


def _intersect(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the intersection of two column spans."""
    n = q1.shape[0]
    eye = np.eye(n, dtype=complex)
    defect = (eye - q1 @ matcore.dagger(q1)) + (eye - q2 @ matcore.dagger(q2))
    w, v = np.linalg.eigh(defect)
    return v[:, w <= matcore.UNITARY_EIG_TOL]


def cnu_split(pair: GammaPair) -> CnuSplit:
    """Split off the largest reducing subspace on which P is unitary.

    Starts from the intersection of the eigenvalue-one spaces of P*P and
    PP* and trims until the subspace is invariant under P and P*.  S must
    leave the result invariant as well or ReductionFailure is raised.
    """
    p, s = pair.p, pair.s
    n = pair.n
    q = _intersect(_eig_one_space(matcore.dagger(p) @ p),
                   _eig_one_space(p @ matcore.dagger(p)))
    cut = matcore.UNITARY_EIG_TOL * (1.0 + pair.norm_p)
    while q.shape[1] > 0:
        proj_out = np.eye(n, dtype=complex) - q @ matcore.dagger(q)
        k = np.vstack([proj_out @ (p @ q), proj_out @ (matcore.dagger(p) @ q)])
        _, sv, vh = np.linalg.svd(k)
        sv = np.concatenate([sv, np.zeros(q.shape[1] - sv.size)])
        keep = sv <= cut
        if keep.all():
            break
        q = np.linalg.qr(q @ matcore.dagger(vh)[:, keep])[0]
    m = q.shape[1]

    if m > 0:
        s_leak = matcore.fro_norm(s @ q - q @ (matcore.dagger(q) @ (s @ q)))
        s_leak = max(s_leak, matcore.fro_norm(
            matcore.dagger(s) @ q - q @ (matcore.dagger(q) @ (matcore.dagger(s) @ q))))
        if s_leak > matcore.REDUCING_LEAK_TOL * (1.0 + pair.norm_s):
            raise ReductionFailure(
                f"S leaks off the unitary subspace by {s_leak:.3e}")

    qc = scipy.linalg.null_space(matcore.dagger(q)) if 0 < m < n else (
        np.zeros((n, 0)) if m == n else np.eye(n, dtype=complex))
    basis = np.hstack([q, qc]).astype(complex)

    def part(qq):
        return validate(matcore.dagger(qq) @ s @ qq, matcore.dagger(qq) @ p @ qq)

    return CnuSplit(
        unitary_part=part(q) if m > 0 else None,
        cnu_part=part(qc) if n - m > 0 else None,
        basis=basis,
        dim_unitary=m,
    )


def random_pure_gamma(n: int, seed: int, max_norm: float = 0.95) -> GammaPair:
    """Deterministic random pure pair from commuting contractions.

    T1 is a random upper triangular contraction with spectral radius at most
    0.9, T2 a quadratic polynomial in T1 (so they commute and stay jointly
    triangular); both are rescaled to operator norm at most ``max_norm`` and
    conjugated by a Haar unitary.  The product norm bound then forces the
    spectral radius of P strictly inside the disc.
    """
    if n < 1:
        raise DimensionMismatch("n must be at least 1")
    if not 0.0 < max_norm <= 0.95:
        raise ValueError("max_norm must lie in (0, 0.95]")
    rng = np.random.default_rng(seed)
    t1 = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    t1 *= 0.5
    diag = 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    t1[np.diag_indices(n)] = diag
    c0, c1, c2 = 0.4 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    t2 = c0 * np.eye(n) + c1 * t1 + c2 * (t1 @ t1)
    for t in (t1, t2):
        nt = matcore.op_norm(t)
        if nt > max_norm:
            t *= max_norm / nt
    u = matcore.haar_unitary(n, rng)
    ud = matcore.dagger(u)
    return symmetrized_pair(u @ t1 @ ud, u @ t2 @ ud)


def random_gamma_unitary(n: int, seed: int) -> GammaPair:
    """Deterministic random commuting normal pair with torus joint spectrum."""
    if n < 1:
        raise DimensionMismatch("n must be at least 1")
    rng = np.random.default_rng(seed)
    z1 = np.exp(2j * np.pi * rng.uniform(size=n))
    z2 = np.exp(2j * np.pi * rng.uniform(size=n))
    u = matcore.haar_unitary(n, rng)
    ud = matcore.dagger(u)
    return validate(u @ np.diag(z1 + z2) @ ud, u @ np.diag(z1 * z2) @ ud)
