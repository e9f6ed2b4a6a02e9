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


def eval_sym_poly(coeffs, s, p):
    """Evaluate sum_{j,k} c[j, k] s^j p^k by nested Horner.

    ``s`` and ``p`` may be scalars or broadcastable arrays.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2:
        raise ValueError("coefficients must form a 2-D array")
    out = np.zeros(np.broadcast(np.asarray(s), np.asarray(p)).shape, dtype=complex)
    for row in c[::-1]:
        inner = np.zeros_like(out)
        for ck in row[::-1]:
            inner = inner * p + ck
        out = out * s + inner
    return out if out.shape else complex(out)


def eval_matrix_sym_poly(coeffs, s_mat: np.ndarray, p_mat: np.ndarray) -> np.ndarray:
    """Evaluate the same polynomial on a commuting matrix pair."""
    c = np.asarray(coeffs, dtype=complex)
    n = s_mat.shape[0]
    eye = np.eye(n, dtype=complex)
    p_pows = [eye]
    for _ in range(c.shape[1] - 1):
        p_pows.append(p_pows[-1] @ p_mat)
    out = np.zeros((n, n), dtype=complex)
    for row in c[::-1]:
        inner = sum((ck * pk for ck, pk in zip(row, p_pows)),
                    start=np.zeros((n, n), dtype=complex))
        out = out @ s_mat + inner
    return out


def _torus_values(coeffs) -> np.ndarray:
    z = np.exp(2j * np.pi * np.arange(matcore.SUP_GRID_N) / matcore.SUP_GRID_N)
    z1, z2 = np.meshgrid(z, z)
    return np.abs(eval_sym_poly(coeffs, z1 + z2, z1 * z2))


def sup_norm_on_gamma(coeffs) -> float:
    """Max of |poly(z1 + z2, z1 z2)| over the grid z_j = e^{2 pi i k / SUP_GRID_N}.

    The maximum principle puts the sup over the whole domain on the
    distinguished boundary, so this is a lower estimate converging from
    below as the grid grows.
    """
    return float(_torus_values(coeffs).max())


def sup_norm_on_gamma_refined(coeffs) -> float:
    """Grid estimate polished by local maximization on the torus.

    Still a lower bound for the true sup, but typically accurate to about
    1e-10 relative for the low-degree polynomials used by the probes.
    """
    vals = _torus_values(coeffs)
    best = float(vals.max())
    flat = np.argsort(vals, axis=None)[::-1][:matcore.REFINE_STARTS]
    step = 2.0 * np.pi / matcore.SUP_GRID_N

    def neg_abs(theta):
        w1, w2 = np.exp(1j * theta[0]), np.exp(1j * theta[1])
        return -abs(eval_sym_poly(coeffs, w1 + w2, w1 * w2))

    for idx in flat:
        i, j = np.unravel_index(idx, vals.shape)
        x0 = np.array([step * j, step * i])
        res = minimize(neg_abs, x0, method="Nelder-Mead",
                       options=matcore.REFINE_OPTIONS)
        best = max(best, float(-res.fun))
    return best
