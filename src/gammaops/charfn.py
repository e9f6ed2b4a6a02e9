"""Characteristic function of a contraction, restricted to defect bases.

Theta(z) = (-P + z D_P* (I - z P*)^(-1) D_P) restricted to Ran D_P, taking
values in maps Ran D_P -> Ran D_P*.  Taylor coefficients are Theta_0 = -P
and Theta_k = D_P* P*^(k-1) D_P for k >= 1, both compressed to the bases.
Two characteristic functions coincide when unitaries sigma, sigma_* between
the defect spaces satisfy sigma_* Theta_A(z) = Theta_B(z) sigma on the disc.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import matcore
from .exceptions import OutsideLambdaP

if TYPE_CHECKING:
    from .fundamental import FundamentalPair


def theta_coeffs(fp: FundamentalPair, w: np.ndarray) -> np.ndarray:
    """Taylor coefficients Theta_0 ... Theta_{N-1}, stacked as (N, r*, r).

    ``w`` is the embedding ``embed_w(fp, N)``, whose blocks W_k are
    D_P* P*^k on the defect basis, so Theta_k = W_{k-1} dq for k >= 1 is
    one product and no power of P* is formed again.
    """
    dp, r_star = fp.defect_p, fp.defect_p_star.rank
    n_blocks, rest = divmod(w.shape[0], max(r_star, 1))
    if n_blocks < 1 or rest:
        raise ValueError("w must be embed_w(fp, N) with N at least 1")
    coeffs = np.empty((n_blocks, r_star, dp.rank), dtype=complex)
    coeffs[0] = fp.theta_0
    coeffs[1:] = (w[:-r_star] @ dp.dq).reshape(-1, r_star, dp.rank)
    return coeffs


def theta_at(fp: FundamentalPair, z) -> np.ndarray:
    """Theta at a point z, or stacked over an array z with its shape in front.

    Theta(z) = Theta_0 + z dq_*^adj (I - z P*)^(-1) dq with the pair's
    ``theta_0``, one batched sigma_min test of I - z P* and one batched
    solve; each value is bitwise the value at its point alone.
    Valid wherever I - z P* is numerically invertible, which extends past
    the closed disc whenever the spectrum of P permits; the first point
    where it is not is refused.
    """
    z = np.asarray(z, dtype=complex)
    p, dp, dps = fp.pair.p, fp.defect_p, fp.defect_p_star
    m = np.eye(fp.pair.n, dtype=complex) - z[..., None, None] * matcore.dagger(p)
    smin = np.linalg.svd(m, compute_uv=False)[..., -1]
    bad = np.flatnonzero(smin <= matcore.RESOLVENT_FLOOR)
    if bad.size:
        raise OutsideLambdaP(f"I - z P* has sigma_min = {smin.flat[bad[0]]:.3e} "
                             f"at z = {complex(z.flat[bad[0]])}")
    return fp.theta_0 + z[..., None, None] * (
        matcore.dagger(dps.dq) @ np.linalg.solve(m, dp.dq))


class ToeplitzMult(NamedTuple):
    """T_Theta and T_Theta* of :func:`toeplitz_mult` as plain products.

    Each takes a vector or a stack of columns, N blocks high, and returns
    the product in the same layout.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    apply_adj: Callable[[np.ndarray], np.ndarray]


def _fft_length(n: int) -> int:
    """Smallest length >= n whose prime factors are all at most 5."""
    length = n
    while True:
        rest = length
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return length
        length += 1


def toeplitz_mult(coeffs: np.ndarray) -> ToeplitzMult:
    """Truncated multiplication operator of Theta, applied by FFT.

    The operator is lower block Toeplitz: block (i, j) is Theta_{i-j} for
    i >= j, zero above.  It is the leading block of the block circulant of
    length L whose first block column is Theta_0 ... Theta_{N-1} followed
    by L - N zero blocks, so T_Theta and T_Theta* act as products with the
    discrete Fourier transforms of the coefficients (Chan & Jin, An
    Introduction to Iterative Toeplitz Solvers, SIAM 2007).  N is the number
    of stacked coefficients, and L is the smallest length >= 2 N - 1 with no
    prime factor above 5, where the FFT is fastest.  L >= 2 N - 1 suffices
    for both products: a block j - i > 0 above the diagonal wraps to
    coefficient index L - (j - i) >= N, which is a zero block.
    """
    n_blocks, r_star, r = coeffs.shape
    length = _fft_length(2 * n_blocks - 1)
    hat = np.fft.fft(coeffs, n=length, axis=0)
    hat_adj = matcore.dagger(hat)

    def apply(blocks_hat, x, width):
        # one circular convolution of length L, then the first N blocks
        x_hat = np.fft.fft(x.reshape(n_blocks, width, -1), n=length, axis=0)
        y = np.fft.ifft(blocks_hat @ x_hat, axis=0)[:n_blocks]
        return y.reshape((-1,) + x.shape[1:])

    return ToeplitzMult(apply=lambda x: apply(hat, x, r),
                        apply_adj=lambda y: apply(hat_adj, y, r_star))


def kernel_identity_residual(fp: FundamentalPair, zs, ws) -> float:
    """Max residual of the reproducing identity on given disc points.

    I - Theta(w) Theta(z)* = (1 - w conj(z)) D_P* (I - w P*)^(-1)
    (I - conj(z) P)^(-1) D_P*, compressed by dq_* = D_P* Q_*.  Theta and
    the resolvents are stacked; one loop over w holds one stack over z.
    """
    p, dq_star = fp.pair.p, fp.defect_p_star.dq
    ws, zs = (np.ravel(np.asarray(x, dtype=complex)) for x in (ws, zs))
    # theta_at first: it refuses the points where a resolvent is singular
    th_w, th_z_h = theta_at(fp, ws), matcore.dagger(theta_at(fp, zs))
    eye = np.eye(p.shape[0], dtype=complex)
    left = (matcore.dagger(dq_star)
            @ np.linalg.inv(eye - ws[:, None, None] * matcore.dagger(p)))
    right = np.linalg.inv(eye - np.conj(zs)[:, None, None] * p) @ dq_star
    worst = 0.0
    for w, th, lw in zip(ws, th_w, left):
        gap = (np.eye(len(th)) - th @ th_z_h
               - (1.0 - w * np.conj(zs))[:, None, None] * (lw @ right))
        worst = float(np.linalg.norm(gap, axis=(1, 2)).max(initial=worst))
    return worst


def default_coincidence_grid() -> np.ndarray:
    """Default evaluation grid: the origin, then radii 0.3, 0.6, 0.9 by 16 angles.

    Radius-major, so ``grid[1::2]`` is the radii by eight angles 2 pi k / 8,
    the witness search's samples.  Theta = N / det(I - z P*) with deg N <= n,
    so sigma_* Theta_A - Theta_B sigma has a numerator of degree <= 2n, and in
    exact arithmetic its vanishing at 2n + 1 points forces coincidence on the
    disc: these 49 points decide it for n <= 24.
    """
    radii = np.array([0.3, 0.6, 0.9])
    angles = np.exp(2j * np.pi * np.arange(16) / 16)
    return np.concatenate([[0j], np.outer(radii, angles).ravel()])


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
    with the flag cleared rather than an exception.  Theta = N / det(I - z P*)
    with deg N <= n, so the gap's numerator has degree <= 2n, and in exact
    arithmetic its vanishing at 2n + 1 points forces coincidence on the disc:
    the 49-point grid decides it for n <= 24.
    """
    r_a, rs_a = fp_a.defect_p.rank, fp_a.defect_p_star.rank
    r_b, rs_b = fp_b.defect_p.rank, fp_b.defect_p_star.rank
    if r_a != r_b or rs_a != rs_b:
        return CoincidenceResult(max_residual=float("inf"), ranks_match=False)
    sigma = matcore.as_cmatrix(sigma, name="sigma")
    sigma_star = matcore.as_cmatrix(sigma_star, name="sigma_star")
    if sigma.shape != (r_b, r_a) or sigma_star.shape != (rs_b, rs_a):
        return CoincidenceResult(max_residual=float("inf"), ranks_match=False)
    gaps = sigma_star @ fp_a.theta_grid - fp_b.theta_grid @ sigma
    worst = float(np.linalg.norm(gaps, 2, axis=(1, 2)).max()) if gaps.size else 0.0
    return CoincidenceResult(max_residual=worst, ranks_match=True)
