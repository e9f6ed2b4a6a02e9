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


def _fixed_probes(deg: int) -> np.ndarray:
    """The fixed probes, padded to (deg + 1, deg + 1)."""
    head = np.zeros((len(_FIXED_PROBES), deg + 1, deg + 1), dtype=complex)
    for c, f in zip(head, _FIXED_PROBES):
        c[:f.shape[0], :f.shape[1]] = f
    return head


def _probe_blocks(rng: np.random.Generator, trials: int, deg: int):
    """The probe polynomials, padded to (deg + 1, deg + 1), in blocks.

    The first block holds the fixed probes and up to PROBE_TRIALS draws,
    every later one up to PROBE_TRIALS + 3 draws; drawn block by block, the
    uniforms are the same numbers as in one draw.
    """
    first = min(trials, matcore.PROBE_TRIALS)
    yield np.concatenate([_fixed_probes(deg), _random_polys(rng, first, deg)])
    size = matcore.PROBE_TRIALS + len(_FIXED_PROBES)
    for done in range(first, trials, size):
        yield _random_polys(rng, min(size, trials - done), deg)


def _norm_bounds(values: np.ndarray, per_block: int) -> np.ndarray:
    """Certified upper bounds on |A|_2 for a stack of finite n x n matrices A.

    A block of ``per_block`` matrices is scaled by 2^-t, t the exponent of
    its largest real or imaginary part, and the bound of each A is 2^t
    |(B* B)^2|_F^(1/4), B = 2^-t A, times the rounding slack derived in
    ``vn_probe``.  A matrix whose largest part lies below 2^(t - 100) gets
    inf, as does a bound beyond the float range: inf rules nothing out.  A
    zero matrix gets 0.  A block holds two n x n stacks, the scaled
    conjugate and B* B, then (B* B)^2 in place of the conjugate.
    """
    m, n = values.shape[:2]
    slack = 1.0 + 16 * (n + 2) ** 2 * np.finfo(float).eps
    parts = values.view(float).reshape(m, -1)
    big = np.maximum(parts.max(axis=1), -parts.min(axis=1))
    e = np.frexp(big)[1]
    zero = -2000  # below every float exponent: sets no block's scale
    e[big == 0.0] = zero
    del big
    bounds = np.empty(m)
    conj, gram = np.empty((2, min(m, per_block), n, n), dtype=complex)
    # a scale of a subnormal block overflows to inf, and inf * 0 is nan
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, m, per_block):
            a = values[i:i + per_block]
            c, g = conj[:len(a)], gram[:len(a)]
            t = e[i:i + per_block].max()
            # one power of two per block: exact, and no cast buffer
            scale = np.ldexp(1.0, -t)
            np.conjugate(a, out=c)
            c *= scale
            # the second scale after the product: no entry of A meets another
            np.matmul(c.swapaxes(1, 2), a, out=g)
            g *= scale
            square = np.matmul(g, g, out=c).reshape(len(a), -1)
            re_im = square.view(float)
            fro = np.sqrt(np.sqrt(np.sqrt(np.einsum("ij,ij->i", re_im, re_im))))
            bound = np.ldexp(fro * slack, t)
            bound[e[i:i + per_block] < t - 100] = np.inf
            bounds[i:i + per_block] = bound
    bounds[~np.isfinite(bounds)] = np.inf
    bounds[e == zero] = 0.0
    return bounds


def _screened_ratios(polys: np.ndarray, s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Ratios |q(S, P)| / sup of the candidates of a block.

    Every other entry is -inf, for a ratio of at most PROBE_REFINE_RATIO < 1;
    see ``vn_probe`` for the candidates and why only they can set the worst
    ratio.  If some q(S, P) overflows, the first such polynomial gets nan,
    for an infinite ratio that certifies at once, and every other one -inf.
    """
    low = torus_grid_max(polys, _SCREEN_STRIDE) * (1.0 - _SCREEN_SLACK)
    values = eval_matrix_sym_poly(polys, s, p)
    finite = np.isfinite(values).all(axis=(1, 2))
    if not finite.all():
        return np.where(np.arange(len(polys)) == np.argmin(finite), np.nan,
                        -np.inf)
    # a block of the bound, and of the exact norms, holds two stacks of
    # matrices in the product table that the evaluation freed, less one pair
    # for the bounds' per-polynomial arrays, or in what values leaves of
    # BATCH_BYTES: the probe's peak stays that of the evaluation
    n = s.shape[0]
    per_block = max(1, polys[0].size // 2 - 1,
                    (matcore.BATCH_BYTES - values.nbytes) // (32 * n * n))
    vals = _norm_bounds(values, per_block)
    cut = matcore.PROBE_REFINE_RATIO * low
    rows = np.flatnonzero(vals > cut)
    for i in range(0, len(rows), per_block):
        part = rows[i:i + per_block]
        vals[part] = np.linalg.norm(values[part], 2, axis=(1, 2))
    del values  # freed before the grid blocks, to keep the peak low
    cand = vals > cut
    ratios = np.full(len(polys), -np.inf)
    if not cand.any():
        return ratios
    sups = sup_norm_on_gamma(polys[cand])
    refine = vals[cand] > matcore.PROBE_REFINE_RATIO * np.maximum(sups, 1e-300)
    if refine.any():
        sups[refine] = np.maximum(sups[refine],
                                  sup_norm_on_gamma_refined(polys[cand][refine]))
    ratios[cand] = vals[cand] / np.maximum(sups, 1e-300)
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
    candidates reach an exact norm and the full grid.  Let c be the maximum
    of |q| over every 4th point per axis of the grid, a sub-grid of the same
    points, low = c (1 - delta) and b >= v a bound on the norm (below).  The
    candidates K are the polynomials with v > PROBE_REFINE_RATIO low, where
    v = |q(S, P)|_2 (one SVD) is computed only if b exceeds that cut; they
    get G and, by the rule above, the refinement.  Every other polynomial
    has v <= PROBE_REFINE_RATIO low <= PROBE_REFINE_RATIO G, as low <= G, so
    no refinement and a ratio of at most PROBE_REFINE_RATIO < 1.  The first
    block holds the constant 1, of ratio 1 up to rounding, so such a ratio
    can neither set the worst ratio nor tie with it, in any block; a later
    block whose K is empty never wins.  The report is the same, bit for
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

    Derivation of the norm bound.  For n x n A = q(S, P) and B = 2^-t A,
    every part of B below 1 in modulus (t from A's block, see
    ``_norm_bounds``), |A|_2^4 = 2^(4t) |(B* B)^2|_2 <= 2^(4t) F with F =
    |H|_F, H = G^2, G = B* B.  The products G and H are formed with
    entrywise errors of at most sqrt(2) gamma_(n+2) times the product of
    the moduli, and |B|_F^2 <= n |B|_2^2, |G|_F <= sqrt(n) |G|_2, so
    |fl(H) - H|_F <= 3 sqrt(2) n gamma_(n+2) |B|_2^4 <= 3 sqrt(2) n
    gamma_(n+2) F.  Summing the 2 n^2 squares of fl(H) adds gamma_(2n^2+1)
    to F^2, and the three square roots of F^2 and the slack product 4u, so
    the computed F^(1/4) is at least |B|_2 (1 - r) with
    r <= (6 sqrt(2) n (n + 2) + 2 n^2) u / 8 + 4u <= 1.8 (n + 2)^2 u.  The
    slack 1 + 16 (n + 2)^2 eps covers it with a factor above 17; the
    powers of two are exact.  Scaling keeps G, H and F^2 in range: a matrix whose
    largest part is below 2^(t - 100) gets no bound, so |B|_2 >= 2^-101
    and F^2 >= 2^-808, far above what underflow can lose.
    """
    rng = np.random.default_rng(seed)
    deg = matcore.PROBE_MAX_DEG
    worst_ratio, worst, offset = -np.inf, 0, 0
    for polys in _probe_blocks(rng, trials, deg):
        ratios = _screened_ratios(polys, pair.s, pair.p)
        i = int(np.argmax(ratios))
        if np.isnan(ratios[i]):
            # q is bounded on the domain, so an overflowing q(S, P) certifies
            worst_ratio, worst, coeffs = float("inf"), offset + i, polys[i]
            break
        if ratios[i] > worst_ratio:
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
