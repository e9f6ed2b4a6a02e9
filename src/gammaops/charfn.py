"""Characteristic function of a contraction, restricted to defect bases.

Theta(z) = (-P + z D_P* (I - z P*)^(-1) D_P) restricted to Ran D_P, taking
values in maps Ran D_P -> Ran D_P*.  Taylor coefficients are Theta_0 = -P
and Theta_k = D_P* P*^(k-1) D_P for k >= 1, both compressed to the bases.
Two characteristic functions coincide when unitaries sigma, sigma_* between
the defect spaces satisfy sigma_* Theta_A(z) = Theta_B(z) sigma on the disc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import matcore
from .exceptions import OutsideLambdaP

if TYPE_CHECKING:
    from .fundamental import FundamentalPair


@dataclass(frozen=True)
class CharFn:
    """Characteristic function of the P of a solved pair, with its coefficients."""

    fp: FundamentalPair
    coeffs: tuple[np.ndarray, ...]


def theta_coeffs(fp: FundamentalPair, n_coeffs: int) -> CharFn:
    """Characteristic function with the first ``n_coeffs`` Taylor coefficients."""
    if n_coeffs < 1:
        raise ValueError("n_coeffs must be at least 1")
    p, dp, dps = fp.pair.p, fp.defect_p, fp.defect_p_star
    q, q_star = dp.basis.q, dps.basis.q
    left = matcore.dagger(q_star) @ dps.d      # r* x n
    right = dp.d @ q                           # n x r
    coeffs = [-(matcore.dagger(q_star) @ p @ q)]
    p_star_pow = np.eye(p.shape[0], dtype=complex)
    for _ in range(1, n_coeffs):
        coeffs.append(left @ p_star_pow @ right)
        p_star_pow = p_star_pow @ matcore.dagger(p)
    return CharFn(fp=fp, coeffs=tuple(coeffs))


def theta_at(cf: CharFn, z: complex) -> np.ndarray:
    """Evaluate Theta at z by a direct resolvent solve.

    Valid wherever I - z P* is numerically invertible, which extends past
    the closed disc whenever the spectrum of P permits.
    """
    z = complex(z)
    fp = cf.fp
    p = fp.pair.p
    n = p.shape[0]
    m = np.eye(n, dtype=complex) - z * matcore.dagger(p)
    smin = float(np.linalg.svd(m, compute_uv=False)[-1]) if n else 1.0
    if smin <= matcore.EVAL_FLOOR:
        raise OutsideLambdaP(f"I - z P* has sigma_min = {smin:.3e} at z = {z}")
    core = -p + z * (fp.defect_p_star.d @ np.linalg.solve(m, fp.defect_p.d))
    return matcore.dagger(fp.defect_p_star.basis.q) @ core @ fp.defect_p.basis.q


def theta_series_at(cf: CharFn, z: complex) -> np.ndarray:
    """Partial Taylor sum at z, for resummation checks against theta_at."""
    z = complex(z)
    total = np.zeros(cf.coeffs[0].shape, dtype=complex)
    for k, c in enumerate(cf.coeffs):
        total += (z ** k) * c
    return total


def toeplitz_mult(cf: CharFn, n_blocks: int) -> np.ndarray:
    """Truncated multiplication operator of Theta as a lower block Toeplitz matrix.

    Block (i, j) is Theta_{i-j} for i >= j, zero above, so column block j
    carries Theta_0 ... Theta_{n_blocks-1-j}.  Needs at least ``n_blocks``
    stored coefficients.
    """
    if n_blocks < 1:
        raise ValueError("n_blocks must be at least 1")
    if len(cf.coeffs) < n_blocks:
        raise ValueError(
            f"need {n_blocks} coefficients, have {len(cf.coeffs)}")
    r_star, r = cf.coeffs[0].shape
    out = np.zeros((n_blocks * r_star, n_blocks * r), dtype=complex)
    for i in range(n_blocks):
        for j in range(i + 1):
            out[i * r_star:(i + 1) * r_star, j * r:(j + 1) * r] = cf.coeffs[i - j]
    return out


def kernel_identity_residual(cf: CharFn, zs, ws) -> float:
    """Max residual of the reproducing identity on given disc points.

    I - Theta(w) Theta(z)* = (1 - w conj(z)) D_P* (I - w P*)^(-1)
    (I - conj(z) P)^(-1) D_P*, compressed to the defect basis of P*.
    """
    p = cf.fp.pair.p
    q_star = cf.fp.defect_p_star.basis.q
    d_star = cf.fp.defect_p_star.d
    eye = np.eye(p.shape[0], dtype=complex)
    w_side = [(w, theta_at(cf, w), np.linalg.inv(eye - w * matcore.dagger(p)))
              for w in map(complex, np.atleast_1d(ws))]
    worst = 0.0
    for z in np.atleast_1d(zs):
        rz = np.linalg.inv(eye - np.conj(complex(z)) * p)
        th_z = theta_at(cf, z)
        for w, th_w, rw in w_side:
            lhs = (np.eye(q_star.shape[1], dtype=complex)
                   - th_w @ matcore.dagger(th_z))
            rhs = ((1.0 - w * np.conj(complex(z)))
                   * matcore.dagger(q_star) @ d_star @ rw @ rz @ d_star @ q_star)
            worst = max(worst, matcore.fro_norm(lhs - rhs))
    return worst


def default_coincidence_grid() -> np.ndarray:
    """Default evaluation grid: radii 0, 0.3, 0.6, 0.9 by 16 angles."""
    radii = np.array([0.0, 0.3, 0.6, 0.9])
    angles = np.exp(2j * np.pi * np.arange(16) / 16)
    return np.unique(np.outer(radii, angles).ravel())


@dataclass(frozen=True)
class CoincidenceResult:
    """Outcome of a coincidence check between two characteristic functions."""

    max_residual: float
    ranks_match: bool

    @property
    def coincide(self) -> bool:
        return self.ranks_match and self.max_residual <= matcore.COINCIDE_TOL


def coincide_check(fp_a: FundamentalPair, fp_b: FundamentalPair, sigma: np.ndarray,
                   sigma_star: np.ndarray) -> CoincidenceResult:
    """Max over the default grid of |sigma_* Theta_A(z) - Theta_B(z) sigma|.

    The convention is sigma_* Theta_A(z) = Theta_B(z) sigma with sigma
    mapping the defect space of P_A to that of P_B (and sigma_* likewise on
    the adjoint side).  Mismatched defect ranks give an infinite residual
    with the flag cleared rather than an exception.
    """
    r_a, rs_a = fp_a.defect_p.rank, fp_a.defect_p_star.rank
    r_b, rs_b = fp_b.defect_p.rank, fp_b.defect_p_star.rank
    if r_a != r_b or rs_a != rs_b:
        return CoincidenceResult(max_residual=float("inf"), ranks_match=False)
    sigma = matcore.as_cmatrix(sigma, name="sigma")
    sigma_star = matcore.as_cmatrix(sigma_star, name="sigma_star")
    if sigma.shape != (r_b, r_a) or sigma_star.shape != (rs_b, rs_a):
        return CoincidenceResult(max_residual=float("inf"), ranks_match=False)
    worst = 0.0
    for th_a, th_b in zip(fp_a.theta_grid, fp_b.theta_grid):
        worst = max(worst, matcore.op_norm(sigma_star @ th_a - th_b @ sigma))
    return CoincidenceResult(max_residual=worst, ranks_match=True)
