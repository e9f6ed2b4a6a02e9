"""Scalar geometry of the symmetrized bidisc.

The closed symmetrized bidisc is the image of the closed bidisc under
(z1, z2) -> (z1 + z2, z1 * z2).  Points are classified by the moduli of the
recovered roots z1, z2; polynomials in the coordinates (s, p) are bounded
on the distinguished boundary, the image of the torus.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval2d

from . import matcore
from .exceptions import SingularDenominator


class Region(enum.Enum):
    """Position of a scalar point relative to the symmetrized bidisc."""

    OUTSIDE = "outside"
    INTERIOR_G = "interior"
    BOUNDARY_GAMMA = "boundary"
    DISTINGUISHED_BGAMMA = "distinguished-boundary"


@dataclass(frozen=True)
class SymPoint:
    """A point (s, p) in symmetrized coordinates."""

    s: complex
    p: complex


@dataclass(frozen=True)
class DiscAutomorphism:
    """Disc automorphism z -> beta (z - a) / (1 - conj(a) z).

    Requires |a| < 1 and |beta| = 1, both with the margin DISC_MARGIN.
    """

    a: complex
    beta: complex

    def __post_init__(self):
        if abs(self.a) >= 1.0 - matcore.DISC_MARGIN:
            raise ValueError(f"|a| = {abs(self.a):.6g} must be < 1")
        if abs(abs(self.beta) - 1.0) > matcore.DISC_MARGIN:
            raise ValueError(f"|beta| = {abs(self.beta):.6g} must equal 1")

    def apply(self, z: complex) -> complex:
        return self.beta * (z - self.a) / (1.0 - np.conj(self.a) * z)

    def inverse(self) -> "DiscAutomorphism":
        # From w = beta (z - a)/(1 - conj(a) z) one solves
        # z = conj(beta) (w + a beta)/(1 + conj(a) conj(beta) w), which is
        # again an automorphism with a' = -a beta and beta' = conj(beta).
        return DiscAutomorphism(a=-self.a * self.beta, beta=np.conj(self.beta))


def roots_of_sym_point(pt: SymPoint) -> tuple[complex, complex]:
    """Stable roots z1, z2 of z^2 - s z + p = 0 (z1 has the larger modulus)."""
    s, p = complex(pt.s), complex(pt.p)
    # a huge point overflows to non-finite roots, which classify_point
    # places outside
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.sqrt(complex(s * s - 4.0 * p))
        # Pick the sign that avoids cancellation in s + d.
        if (np.conj(s) * d).real < 0.0:
            d = -d
        z1 = 0.5 * (s + d)
        z2 = p / z1 if abs(z1) > 1e-150 else 0.5 * (s - d)
    return complex(z1), complex(z2)


def classify_point(pt: SymPoint) -> Region:
    """Classify a symmetrized point by the moduli of its roots, to POINT_TOL."""
    z1, z2 = roots_of_sym_point(pt)
    if not (cmath.isfinite(z1) and cmath.isfinite(z2)):  # a root that overflowed
        return Region.OUTSIDE
    small, big = sorted(math.hypot(z.real, z.imag) for z in (z1, z2))
    if big > 1.0 + matcore.POINT_TOL:
        return Region.OUTSIDE
    if big < 1.0 - matcore.POINT_TOL:
        return Region.INTERIOR_G
    # big is on the unit circle within tolerance
    if small >= 1.0 - matcore.POINT_TOL:
        return Region.DISTINGUISHED_BGAMMA
    return Region.BOUNDARY_GAMMA


def mobius_point(pt: SymPoint, m: DiscAutomorphism) -> SymPoint:
    """Apply the automorphism rootwise in closed symmetrized form.

    (s, p) maps to (beta ((1+|a|^2) s - 2 conj(a) p - 2 a) / q,
    beta^2 (p - a s + a^2) / q) with q = 1 - conj(a) s + conj(a)^2 p.
    """
    s, p = complex(pt.s), complex(pt.p)
    a, beta = complex(m.a), complex(m.beta)
    ac = np.conj(a)
    q = 1.0 - ac * s + ac * ac * p
    if abs(q) < matcore.RESOLVENT_FLOOR:
        raise SingularDenominator(f"denominator {abs(q):.3e} at (s, p) = ({s}, {p})")
    s_new = beta * ((1.0 + abs(a) ** 2) * s - 2.0 * ac * p - 2.0 * a) / q
    p_new = beta * beta * (p - a * s + a * a) / q
    return SymPoint(complex(s_new), complex(p_new))


def _as_stack(coeffs) -> tuple[np.ndarray, bool]:
    """Coefficients as a (m, a, b) stack, and whether one (a, b) array was given."""
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim not in (2, 3):
        raise ValueError("coefficients must form a 2-D array or a stack of them")
    return (c[None] if c.ndim == 2 else c), c.ndim == 2


def eval_sym_poly(coeffs, s, p):
    """Evaluate sum_{j,k} c[j, k] s^j p^k with numpy's ``polyval2d``.

    ``coeffs`` is one (a, b) array or a stack (m, a, b) of them; ``s`` and
    ``p`` may be scalars or broadcastable arrays.  A stack gives one value
    per polynomial along a leading axis; one polynomial at one point gives
    a complex scalar.  An array without coefficients is the zero polynomial.
    """
    stack, single = _as_stack(coeffs)
    s, p = np.broadcast_arrays(np.asarray(s, dtype=complex),
                               np.asarray(p, dtype=complex))
    if stack.size:
        out = polyval2d(s, p, stack.transpose(1, 2, 0))
    else:
        out = np.zeros(stack.shape[:1] + s.shape, dtype=complex)
    if not single:
        return out
    return out[0] if s.shape else complex(out[0])


def eval_matrix_sym_poly(coeffs, s_mat: np.ndarray, p_mat: np.ndarray) -> np.ndarray:
    """Evaluate the same polynomial, or a stack of them, on a commuting matrix pair.

    The a*b products S^j P^k are formed once and contracted with the
    coefficients.  A polynomial whose nonzero coefficient meets an
    overflowing product gets an infinite value; a zero coefficient never
    multiplies one.  An array without coefficients is the zero polynomial.
    """
    stack, single = _as_stack(coeffs)
    m, a, b = stack.shape
    n = s_mat.shape[0]
    table = np.empty((a, b, n, n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(a if b else 0):  # b = 0 leaves no product to form
            table[j, 0] = np.eye(n) if j == 0 else table[j - 1, 0] @ s_mat
            for k in range(1, b):
                table[j, k] = table[j, k - 1] @ p_mat
        table = table.reshape(a * b, n * n)
        overflow = ~np.isfinite(table).all(axis=1)
        table[overflow] = 0.0
        flat = stack.reshape(m, a * b)
        out = flat @ table
    if overflow.any():  # the row mask's temporaries would set the peak
        out[(flat[:, overflow] != 0).any(axis=1)] = np.inf
    out = out.reshape(m, n, n)
    return out[0] if single else out


@functools.cache
def _binomial_columns(a: int) -> tuple[np.ndarray, ...]:
    """C(j, l) for j = l ... a - 1, as a column, for each l < a; read-only."""
    cols = tuple(np.array([[math.comb(j, l)] for j in range(l, a)],
                          dtype=float) for l in range(a))
    for col in cols:
        col.flags.writeable = False
    return cols


def _z_coeffs(stack: np.ndarray) -> np.ndarray:
    """Coefficients (m, d, d) in (z1, z2), d = a + b - 1, of a stack (m, a, b).

    Each monomial s^j p^k expands as sum_l C(j, l) z1^(l + k) z2^(j - l + k).
    For fixed l the entries (l + k, j - l + k) of every j lie at the flat
    indices l d + (j - l) + k (d + 1), a (b, a - l) strided view of the flat
    coefficients padded by b entries, and the terms are added there
    elementwise.  An entry takes at most one term per l, in increasing l
    (for fixed entry, j - 2 l is fixed), so the sums are those of a loop
    over (j, l), and a polynomial's coefficients do not depend on the rest
    of the stack.  Without coefficients, d is 0.
    """
    m, a, b = stack.shape
    d = max(a + b - 1, 0)
    zc = np.zeros((m, d * d + b), dtype=complex)
    for l, binom in enumerate(_binomial_columns(a)):
        diag = zc[:, l * d:l * d + b * (d + 1)].reshape(m, b, d + 1)
        diag[:, :, :a - l] += (binom * stack[:, l:]).swapaxes(1, 2)
    return zc[:, :d * d].reshape(m, d, d)


@functools.cache
def _grid_powers(n: int, stride: int, d: int) -> np.ndarray:
    """W[j, alpha] = z_j^alpha, z_j = e^{2 pi i stride j / n}, alpha < d,
    read-only; see :func:`_torus_moduli`."""
    z = np.exp(2j * np.pi * np.arange(n) / n)
    w = z[np.outer(np.arange(0, n, stride), np.arange(d)) % n]
    w.flags.writeable = False
    return w


def _torus_moduli(zc: np.ndarray, stride: int = 1):
    """Blocks (slice, |q| (m, g, g)) of (z1, z2) coefficients (m, d, d) on the torus.

    Entry (j, k) is |q(z_j, z_k)| at z_j = e^{2 pi i stride j / N}, N =
    SUP_GRID_N and g = N / stride, from the separable product W C W^T with
    W[j, alpha] = z_j^alpha read off the N-th roots as the root of index
    stride j alpha mod N; every stride-th row of the full grid's W is the
    same numbers, built once per (N, stride, d).  A block is budgeted by all
    of its temporaries, 16 g d bytes per polynomial for W C, 16 g^2 for the
    values and 8 g^2 for their moduli.  The moduli of every block go to one
    buffer, so the array yielded for a block is overwritten by the next one.
    """
    w = _grid_powers(matcore.SUP_GRID_N, stride, zc.shape[-1])
    g, d = w.shape
    blocks = matcore.batches(len(zc), 16 * g * d + 24 * g * g)
    buf = np.empty((blocks[0].stop if blocks else 0, g, g))
    for blk in blocks:
        vals = buf[:blk.stop - blk.start]
        np.abs(w @ zc[blk] @ w.T, out=vals)
        yield blk, vals


def torus_grid_max(coeffs, stride: int) -> np.ndarray:
    """Max of |q| over every ``stride``-th point per axis of the torus grid.

    ``coeffs`` is a stack (m, a, b); the result holds m maxima over the
    points (z_j, z_k), z_j = e^{2 pi i stride j / SUP_GRID_N}.  At stride 1
    these are the sups of ``sup_norm_on_gamma``; a coarser grid reads a
    subset of its points and evaluates them in another product shape, so
    its maxima are lower bounds on those sups up to rounding.
    """
    stack = _as_stack(coeffs)[0]
    sups = np.empty(len(stack))
    d = max(sum(stack.shape[1:]) - 1, 0)
    # the (z1, z2) coefficients, 16 d^2 bytes each, BATCH_BYTES at a time
    for chunk in matcore.batches(len(stack), 16 * d * d):
        for blk, vals in _torus_moduli(_z_coeffs(stack[chunk]), stride):
            sups[chunk][blk] = vals.max(axis=(1, 2))
    return sups


def sup_norm_on_gamma(coeffs):
    """Max of |poly(z1 + z2, z1 z2)| over the grid z_j = e^{2 pi i j / SUP_GRID_N}.

    The maximum principle puts the sup over the whole domain on the
    distinguished boundary, so this is a lower estimate converging from
    below as the grid grows.  The values at all SUP_GRID_N^2 grid points are
    W C W^T, C the (z1, z2) coefficients and W[j, alpha] = z_j^alpha, for a
    block of polynomials at a time.  One (a, b) array gives a float, a stack
    (m, a, b) an array of m sups; an array without coefficients has sup 0.
    """
    stack, single = _as_stack(coeffs)
    sups = torus_grid_max(stack, 1)
    return float(sups[0]) if single else sups


#: Rounding level of |q|^2 per d (d + 2), for (z1, z2) coefficients d x d
#: scaled to a grid sup in [1/2, 1); see ``sup_norm_on_gamma_refined``.
_JET_ROUNDING = 8 * np.finfo(float).eps


def _torus_jets(zc: np.ndarray, theta: np.ndarray):
    """q, the gradient and the Hessian of |q|^2 at torus angles theta (m, r, 2).

    On the torus q = sum C[alpha, beta] e^{i (alpha t1 + beta t2)}, so each
    derivative of q is the same sum with powers of i alpha and i beta; one
    product per start gives all of them.  Returns q (m, r), the gradient
    (m, r, 2) and the Hessian entries h11, h12, h22, each (m, r).
    """
    deg = np.arange(zc.shape[-1])
    waves = np.exp(1j * theta[..., None] * deg)          # (m, r, 2, d)
    jets = waves[..., None, :] * (deg ** np.arange(3)[:, None])  # (m, r, 2, 3, d)
    # M[a, b] = (alpha^a e1)^T C (beta^b e2)
    mom = jets[:, :, 0] @ zc[:, None] @ jets[:, :, 1].swapaxes(-1, -2)
    q = mom[..., 0, 0]
    qc = q.conj()
    dq = 1j * np.stack([mom[..., 1, 0], mom[..., 0, 1]], axis=-1)
    grad = 2.0 * (qc[..., None] * dq).real
    h11 = 2.0 * (abs(dq[..., 0]) ** 2 - (qc * mom[..., 2, 0]).real)
    h12 = 2.0 * ((dq[..., 1].conj() * dq[..., 0]).real - (qc * mom[..., 1, 1]).real)
    h22 = 2.0 * (abs(dq[..., 1]) ** 2 - (qc * mom[..., 0, 2]).real)
    return q, grad, h11, h12, h22


def _ascent_step(grad, h11, h12, h22, trust: float) -> np.ndarray:
    """Newton step where the Hessian is negative definite, else a gradient step.

    The gradient step goes to the maximum of the quadratic model along the
    gradient when that lies within ``trust``, else to ``trust``; every step
    is capped at ``trust``.
    """
    g1, g2 = grad[..., 0], grad[..., 1]
    det = h11 * h22 - h12 * h12
    newton = (h11 < 0.0) & (det > 0.0)
    step = (np.stack([h12 * g2 - h22 * g1, h12 * g1 - h11 * g2], axis=-1)
            / np.where(newton, det, 1.0)[..., None])
    norm = np.hypot(g1, g2)
    curv = g1 * g1 * h11 + 2.0 * g1 * g2 * h12 + g2 * g2 * h22
    inside = -curv * trust > norm ** 3
    dist = np.where(inside, norm ** 3 / np.where(inside, -curv, 1.0), trust)
    unit = grad / np.where(norm > 0.0, norm, 1.0)[..., None]
    step = np.where(newton[..., None], step, unit * dist[..., None])
    size = np.hypot(step[..., 0], step[..., 1])
    over = size > trust
    step[over] *= (trust / size[over])[:, None]
    return step


def _refine(stack: np.ndarray) -> np.ndarray:
    """Refined sups of one block of non-constant polynomials, see below."""
    n, r = matcore.SUP_GRID_N, matcore.REFINE_STARTS
    j, k = np.triu_indices(n)
    spacing = 2.0 * np.pi / n
    trust = 0.5 * spacing
    stop = np.sqrt(np.finfo(float).eps)
    d = sum(stack.shape[1:]) - 1
    level = _JET_ROUNDING * d * (d + 2)
    zc = _z_coeffs(stack)
    best = np.empty(len(zc))
    starts = np.empty((len(zc), r), dtype=int)
    for sub, vals in _torus_moduli(zc):
        best[sub] = vals.max(axis=(1, 2))
        starts[sub] = np.argpartition(vals[:, j, k], -r, axis=1)[:, -r:]
    # dividing by a power of two near the grid sup is exact and keeps
    # |q|^2 and its derivatives in range for any size of coefficients
    scale = np.ldexp(1.0, np.frexp(best)[1])
    scaled = zc / scale[:, None, None]
    theta = spacing * np.stack([j[starts], k[starts]], axis=-1)
    active = np.ones(theta.shape[:2], dtype=bool)
    for it in range(matcore.REFINE_ITERS + 1):
        q, grad, h11, h12, h22 = _torus_jets(scaled, theta)
        best = np.maximum(best, np.abs(q).max(axis=1) * scale)
        # stationary to rounding: no step within trust gains above the
        # level, by its gradient or by a positive curvature
        top = 0.5 * (h11 + h22) + np.hypot(0.5 * (h11 - h22), h12)
        active &= ~((np.hypot(grad[..., 0], grad[..., 1]) * trust <= level)
                    & (0.5 * trust * trust * top <= level))
        if it == matcore.REFINE_ITERS or not active.any():
            break
        step = _ascent_step(grad, h11, h12, h22, trust)
        step[~active] = 0.0
        theta = theta + step
        active &= np.hypot(step[..., 0], step[..., 1]) > stop
    return best


def sup_norm_on_gamma_refined(coeffs):
    """Grid estimate polished by a stacked Newton iteration on the torus.

    Still a lower bound for the true sup: the result is the largest of the
    grid value of ``sup_norm_on_gamma`` and |q| at the torus points the
    iteration visits.  Grid values and iteration use the (z1, z2)
    coefficients of each polynomial, converted once per batch.  The
    iteration runs on |q|^2 as a function of the angles (t1, t2), from the
    REFINE_STARTS best points of the half grid (z1 <= z2, so no start is
    the mirror of another), every start of every polynomial at once: a Newton
    step where the Hessian is negative definite, otherwise a step along the
    gradient, each capped at half the grid spacing h.  A start stops once
    its step falls below sqrt(eps), where |q|^2 changes only at rounding
    level, or after REFINE_ITERS steps, or at a point stationary to
    rounding: there, on coefficients scaled by a power of two to a grid sup
    in [1/2, 1), the gradient g and the largest Hessian eigenvalue l of
    |q|^2 give |g| h <= level and l h^2 / 2 <= level, level =
    8 eps d (d + 2) for d x d coefficients in (z1, z2), near three times the
    rounding error 4 sqrt(2) d (d + 2) u of |q|^2 there (u = eps / 2, see
    ``gamma_pair.vn_probe`` for that error of q).  Such a point is where a
    start on a ridge of |q| ends (q = s peaks on all of z1 = z2, q = p is
    unimodular): the step stop never holds on a ridge.  What the stop can
    lose is proved only on the quadratic model at the stopping point: no
    step within h gains more than 2 level there.  The remaining steps
    could travel up to REFINE_ITERS h, where higher terms are not bounded,
    so the figure for all of them, a relative 8 REFINE_ITERS level (5.6e-11
    at d = 9), is a model bound checked by measurement, not a proof: on the
    360 polynomials nearest to refinement in the probes of 120 pairs
    (gamma-unitary, pure and outside), the result lay below that of all
    REFINE_ITERS steps by at most 2.1e-16 relative.  A constant c has sup
    |c|, with no iteration.  One (a, b) array gives a float, a stack
    (m, a, b) an array of m sups.
    """
    stack, single = _as_stack(coeffs)
    m, a, b = stack.shape
    flat = stack.reshape(m, a * b)
    const = ~flat[:, 1:].any(axis=1)
    sups = np.zeros(m)
    if flat.shape[1]:
        sups[const] = np.hypot(flat[const, 0].real, flat[const, 0].imag)
    live = np.flatnonzero(~const)
    d = a + b - 1
    # a block holds its coefficients, their scaled copy and r d^2 of jets,
    # and is the only part of the stack copied
    for blk in matcore.batches(live.size,
                               16 * (matcore.REFINE_STARTS + 2) * d * d):
        sups[live[blk]] = _refine(stack[live[blk]])
    return float(sups[0]) if single else sups
