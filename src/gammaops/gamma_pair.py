"""Commuting operator pairs (S, P) attached to the symmetrized bidisc.

``validate`` checks only necessary conditions; no finite procedure certifies
the full polynomial inequality, so the von Neumann probe reports evidence
and can certify failure but never success.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .exceptions import DimensionMismatch, NotContraction
from .gamma_domain import (
    Region,
    SymPoint,
    classify_point,
    eval_matrix_sym_poly,
    sup_norm_on_gamma,
    sup_norm_on_gamma_refined,
    torus_grid_max,
)


@dataclass(frozen=True)
class PairFlags:
    """Outcome of the necessary-condition checks, past the commutation check."""

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
        return f.contraction and f.s_bound and f.spectrum_in_gamma


def validate(s, p) -> GammaPair:
    """Build a GammaPair, checking the necessary conditions only.

    Commutation beyond tolerance is a hard error (``joint_eigs_commuting``);
    the norm bounds and the joint-spectrum position are recorded as flags.
    A fully passing pair is still not certified, see the module docstring.
    """
    s = matcore.as_cmatrix(s, square=True, allow_empty=False, name="S")
    p = matcore.as_cmatrix(p, square=True, allow_empty=False, name="P")
    if s.shape != p.shape:
        raise DimensionMismatch(f"S is {s.shape} but P is {p.shape}")
    points = tuple(SymPoint(*t) for t in matcore.joint_eigs_commuting(s, p))
    norm_s, norm_p = matcore.op_norm(s), matcore.op_norm(p)
    rho_p = float(np.max(np.abs(np.linalg.eigvals(p))))
    in_gamma = all(classify_point(pt) is not Region.OUTSIDE for pt in points)
    flags = PairFlags(
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


def is_gamma_unitary(pair: GammaPair) -> bool:
    """Commuting normal pair whose joint spectrum lies on the distinguished boundary."""
    if not (matcore.is_normal(pair.s) and matcore.is_normal(pair.p)):
        return False
    return all(classify_point(pt) is Region.DISTINGUISHED_BGAMMA
               for pt in pair.joint_spectrum)


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


#: s, p and the constant 1, probed before the random draws.
_FIXED_PROBES = (np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
                 np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                 np.array([[1.0]], dtype=complex))
#: The screen reads every 4th point per axis of the torus grid; its bound
#: needs SUP_GRID_N / 4 above 2 PROBE_MAX_DEG, see ``vn_probe``.
_SCREEN_STRIDE = 4
#: Relative rounding slack delta of the screen's lower bound, see ``vn_probe``.
_SCREEN_SLACK = 4096 * np.finfo(float).eps


def _probe_blocks(rng: np.random.Generator, trials: int, deg: int):
    """The probe polynomials, padded to (deg + 1, deg + 1), in blocks.

    The first block holds the fixed probes and up to PROBE_TRIALS draws,
    every later one up to PROBE_TRIALS + 3 draws; drawn block by block, the
    uniforms are the same numbers as in one draw.
    """
    head = np.zeros((len(_FIXED_PROBES), deg + 1, deg + 1), dtype=complex)
    for c, f in zip(head, _FIXED_PROBES):
        c[:f.shape[0], :f.shape[1]] = f
    first = min(trials, matcore.PROBE_TRIALS)
    yield np.concatenate([head, _random_polys(rng, first, deg)])
    size = matcore.PROBE_TRIALS + len(_FIXED_PROBES)
    for done in range(first, trials, size):
        yield _random_polys(rng, min(size, trials - done), deg)


def _screened_ratios(polys: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Ratios vals / sup of a block, exact where they can be the block's worst.

    Every other entry is -inf; see ``vn_probe`` for why the first largest
    entry is that of the ratios of every polynomial.
    """
    low = torus_grid_max(polys, _SCREEN_STRIDE) * (1.0 - _SCREEN_SLACK)
    upper = vals / np.maximum(low, 1e-300)
    ratios = np.full(len(polys), -np.inf)
    cand = vals > matcore.PROBE_REFINE_RATIO * low
    cand[np.argmax(upper)] = True
    sups = sup_norm_on_gamma(polys[cand])
    refine = vals[cand] > matcore.PROBE_REFINE_RATIO * np.maximum(sups, 1e-300)
    if refine.any():
        sups[refine] = np.maximum(sups[refine],
                                  sup_norm_on_gamma_refined(polys[cand][refine]))
    ratios[cand] = vals[cand] / np.maximum(sups, 1e-300)
    rest = ~cand & (upper >= ratios[cand].max())
    if rest.any():
        ratios[rest] = vals[rest] / np.maximum(sup_norm_on_gamma(polys[rest]),
                                               1e-300)
    return ratios


def vn_probe(pair: GammaPair, trials: int = matcore.PROBE_TRIALS,
             seed: int = 0) -> VnProbeReport:
    """Compare |q(S, P)| with the sup of |q| over the domain for random q.

    The sup is estimated from below (grid plus local refinement), so a ratio
    above 1 + PROBE_CERT_MARGIN certifies the pair is not attached to the
    domain, while small ratios are evidence only.  The monomials s and p and
    the constant are always probed before the random draws; the draw
    sequence is deterministic in ``seed``.  A value q(S, P) that overflows
    certifies at once, with an infinite ratio.  The worst is the first of
    the largest ratio, where a polynomial whose value v = |q(S, P)| exceeds
    PROBE_REFINE_RATIO times its grid sup G (``sup_norm_on_gamma``) has the
    sup max(G, refined sup) and every other one the sup G.

    The polynomials are drawn, evaluated and screened in blocks of at most
    PROBE_TRIALS + 3, so memory does not grow with ``trials``; the worst
    ratio carries over from block to block.  Within a block only the
    polynomials that can decide the report reach the full grid.  Let c be
    the maximum of |q| over every 4th point per axis of the grid, a sub-grid
    of the same points, low = c (1 - delta) and upper = v / low.  Then

    - low <= G, so v / low bounds the ratio from above;
    - v <= PROBE_REFINE_RATIO low rules out the refinement;
    - a polynomial whose upper bound is below a ratio already computed
      cannot be the worst, nor tie with it.

    The candidates K are the polynomials with v > PROBE_REFINE_RATIO low and
    the first of the largest upper bound; they get G and, by the rule
    above, the refinement.  Those outside K with upper >= the best ratio
    over K get G, and the worst is the first largest ratio among all of
    these: every other ratio is below it.  The report is the same, bit for
    bit, as with the grid sup of every polynomial.

    Derivation of delta.  Both grids read the same entries of W and the
    same (z1, z2) coefficients C (d x d, d = 2 PROBE_MAX_DEG + 1), so a
    point's two values differ only by the rounding of the two complex
    products of inner length d: each is within 2 sqrt(2) gamma_(d+2) |C|_1
    of q, gamma_k = k u / (1 - k u), u = 2^-53 (Higham, ch. 3), so |q| at a
    sub-grid point is read within 4 sqrt(2) gamma_(d+2) |C|_1 + 2u c of the
    full grid's value.  The sub-grid is the g x g roots of unity, g =
    SUP_GRID_N / 4 = 16 > d - 1, the degree of q in each variable, so the
    mean of |q|^2 over it is |C|_2^2 (discrete Parseval) and
    |C|_1 <= d |C|_2 <= d c (1 + O(u)).  Hence G >= c (1 - e) with
    e <= 4 sqrt(2) d (d + 2) u + 2u, about 6.3e-14 at d = 9; delta =
    4096 eps (9.1e-13) covers it with a factor above 14.
    """
    rng = np.random.default_rng(seed)
    deg = matcore.PROBE_MAX_DEG
    worst_ratio, worst, offset = -np.inf, 0, 0
    for polys in _probe_blocks(rng, trials, deg):
        values = eval_matrix_sym_poly(polys, pair.s, pair.p)
        finite = np.isfinite(values).all(axis=(1, 2))
        if not finite.all():
            # q is bounded on the domain, so an overflowing q(S, P) certifies
            i = int(np.argmin(finite))
            worst_ratio, worst, coeffs = float("inf"), offset + i, polys[i]
            break
        vals = np.linalg.norm(values, 2, axis=(1, 2))
        del values  # freed before the grid blocks, to keep the peak low
        ratios = _screened_ratios(polys, vals)
        i = int(np.argmax(ratios))
        if offset == 0 or ratios[i] > worst_ratio:
            worst_ratio, worst, coeffs = float(ratios[i]), offset + i, polys[i]
        offset += len(polys)
    if worst < len(_FIXED_PROBES):
        coeffs = _FIXED_PROBES[worst]
    return VnProbeReport(
        worst_ratio=worst_ratio,
        certified_not_gamma=worst_ratio > 1.0 + matcore.PROBE_CERT_MARGIN,
        worst_coeffs=np.array(coeffs),
        trials=trials,
        max_deg=deg,
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
