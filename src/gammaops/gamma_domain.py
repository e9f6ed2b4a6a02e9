"""Scalar geometry of the symmetrized bidisc.

The closed symmetrized bidisc is the image of the closed bidisc under
(z1, z2) -> (z1 + z2, z1 * z2).  Points are classified by the moduli of the
recovered roots z1, z2; polynomials in the coordinates (s, p) are bounded
on the distinguished boundary, the image of the torus.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

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
    big, small = max(abs(z1), abs(z2)), min(abs(z1), abs(z2))
    if not big <= 1.0 + matcore.POINT_TOL:  # also a root that overflowed
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
    return c.reshape((-1,) + c.shape[-2:]), c.ndim == 2


def _powers(p: np.ndarray, count: int) -> np.ndarray:
    """Rows 1, p, ..., p^(count - 1) for a flat array of points p."""
    pows = np.empty((count, p.size), dtype=complex)
    pows[:1] = 1.0
    for k in range(1, count):
        np.multiply(pows[k - 1], p, out=pows[k])
    return pows


def _horner(stack: np.ndarray, s: np.ndarray, p_pows: np.ndarray) -> np.ndarray:
    """Values (m, points) of a coefficient stack at flat points s, given p's powers.

    One product applies every row c[j] to the powers of p; Horner in s then
    folds the rows of each polynomial, highest j first.
    """
    m, a, b = stack.shape
    if a == 0:
        return np.zeros((m, s.size), dtype=complex)
    rows = stack[:, ::-1].transpose(1, 0, 2).reshape(a * m, b)
    inner = (rows @ p_pows).reshape(a, m, s.size)
    out = inner[0]
    for row in inner[1:]:
        out *= s
        out += row
    return out


def eval_sym_poly(coeffs, s, p):
    """Evaluate sum_{j,k} c[j, k] s^j p^k: Horner in s over the powers of p.

    ``coeffs`` is one (a, b) array or a stack (m, a, b) of them; ``s`` and
    ``p`` may be scalars or broadcastable arrays.  A stack gives one value
    per polynomial along a leading axis; one polynomial at one point gives
    a complex scalar.
    """
    stack, single = _as_stack(coeffs)
    s, p = np.asarray(s, dtype=complex), np.asarray(p, dtype=complex)
    if s.shape != p.shape:
        s, p = np.broadcast_arrays(s, p)
    shape = s.shape
    out = _horner(stack, s.reshape(-1), _powers(p.reshape(-1), stack.shape[2]))
    if not single:
        return out.reshape(stack.shape[:1] + shape)
    return out[0].reshape(shape) if shape else complex(out[0, 0])


def eval_matrix_sym_poly(coeffs, s_mat: np.ndarray, p_mat: np.ndarray) -> np.ndarray:
    """Evaluate the same polynomial, or a stack of them, on a commuting matrix pair.

    The a*b products S^j P^k are formed once and contracted with the
    coefficients.  A polynomial whose nonzero coefficient meets an
    overflowing product gets an infinite value; a zero coefficient never
    multiplies one.
    """
    stack, single = _as_stack(coeffs)
    m, a, b = stack.shape
    n = s_mat.shape[0]
    table = np.empty((a, b, n, n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(a):
            table[j, 0] = np.eye(n) if j == 0 else table[j - 1, 0] @ s_mat
            for k in range(1, b):
                table[j, k] = table[j, k - 1] @ p_mat
        table = table.reshape(a * b, n * n)
        overflow = ~np.isfinite(table).all(axis=1)
        table[overflow] = 0.0
        flat = stack.reshape(m, a * b)
        out = flat @ table
    out[(flat[:, overflow] != 0).any(axis=1)] = np.inf
    out = out.reshape(m, n, n)
    return out[0] if single else out


def _torus_grid(half: bool) -> tuple[np.ndarray, np.ndarray]:
    """Points (z_j + z_k, z_j z_k) of the grid z_j = e^{2 pi i j / SUP_GRID_N}.

    The product is read off the grid as z_{(j + k) mod SUP_GRID_N}, so the
    points (j, k) and (k, j) agree bitwise; ``half`` keeps those with j <= k,
    otherwise the point (j, k) sits at index j * SUP_GRID_N + k.
    """
    n = matcore.SUP_GRID_N
    z = np.exp(2j * np.pi * np.arange(n) / n)
    j, k = np.triu_indices(n) if half else np.indices((n, n)).reshape(2, -1)
    return z[j] + z[k], z[(j + k) % n]


def sup_norm_on_gamma(coeffs):
    """Max of |poly(z1 + z2, z1 z2)| over the grid z_j = e^{2 pi i k / SUP_GRID_N}.

    The maximum principle puts the sup over the whole domain on the
    distinguished boundary, so this is a lower estimate converging from
    below as the grid grows.  A symmetric polynomial of (z1, z2) takes the
    same value at (z1, z2) and (z2, z1), so half the grid gives the
    maximum.  One (a, b) array gives a float, a stack (m, a, b) an array of
    m sups, evaluated a block of polynomials at a time.
    """
    stack, single = _as_stack(coeffs)
    s, p = _torus_grid(half=True)
    p_pows = _powers(p, stack.shape[2])
    sups = np.empty(len(stack))
    for blk in matcore.batches(len(stack), stack.shape[1] * s.nbytes):
        sups[blk] = np.abs(_horner(stack[blk], s, p_pows)).max(axis=1)
    return float(sups[0]) if single else sups


def sup_norm_on_gamma_refined(coeffs) -> float:
    """Grid estimate polished by local maximization on the torus.

    Still a lower bound for the true sup, but typically accurate to about
    1e-10 relative for the low-degree polynomials used by the probes.  The
    local searches start from the best points of the full grid.
    """
    vals = np.abs(eval_sym_poly(coeffs, *_torus_grid(half=False)))
    best = float(vals.max())
    flat = np.argsort(vals)[::-1][:matcore.REFINE_STARTS]
    step = 2.0 * np.pi / matcore.SUP_GRID_N

    def neg_abs(theta):
        w1, w2 = np.exp(1j * theta[0]), np.exp(1j * theta[1])
        return -abs(eval_sym_poly(coeffs, w1 + w2, w1 * w2))

    for idx in flat:
        j, k = divmod(int(idx), matcore.SUP_GRID_N)
        x0 = np.array([step * j, step * k])
        res = minimize(neg_abs, x0, method="Nelder-Mead",
                       options=matcore.REFINE_OPTIONS)
        best = max(best, float(-res.fun))
    return best
