"""Fundamental operators of a commuting pair via its defect spaces.

For a contraction P the defect operator is D_P = (I - P*P)^(1/2).  The
fundamental operator F is the solution, represented on an orthonormal basis
of the range of D_P, of

    S - S* P = D_P X D_P,

and F_* is the analogous solution for the adjoint pair (S*, P*).  For pairs
genuinely attached to the domain the solution exists, is unique on the
defect space and has numerical radius at most one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import matcore
from .charfn import default_coincidence_grid, theta_at
from .exceptions import NotContraction, NumericalContractBreach
from .gamma_pair import GammaPair


@dataclass(frozen=True)
class DefectData:
    """Defect operator D_P = (I - P*P)^(1/2) or D_P* = (I - PP*)^(1/2) in spectral form.

    The orthonormal columns ``q`` are the eigenvectors of the Gramian with
    eigenvalues ``sv``^2 > 0, from one eigendecomposition in
    :func:`defect_pair`, so they span Ran D and D Q = Q diag(sv).  The
    ambient D is never formed: all else meets the defect space through
    ``q``, ``sv`` and ``dq``.  Rank 0 has an empty ``q``.
    """

    q: np.ndarray
    sv: np.ndarray

    @property
    def rank(self) -> int:
        return self.q.shape[1]

    @property
    def dq(self) -> np.ndarray:
        """Q diag(sv), which is D Q: the defect operator on its range basis."""
        return self.q * self.sv


def defect_pair(pair: GammaPair) -> tuple[DefectData, DefectData, np.ndarray]:
    """Defects D_P, D_P* of a validated pair in spectral form, and Theta_0.

    One ``psd_eigh`` per Gramian, clamped at DEFECT_EIG_CLAMP, gives the
    eigenbases V, V_* and eigenvalues w, w_*.  From M = V_*^adj P V, formed
    once, P D_P = D_P* P is checked as |M diag(sqrt w) - diag(sqrt w_*) M|_F
    (V, V_* are unitary) and Theta_0 = -Q_*^adj P Q is -M on w_* > 0, w > 0.
    """
    if pair.norm_p > 1.0 + matcore.CONTRACTION_TOL:
        raise NotContraction(f"|P| = {pair.norm_p:.12g} exceeds 1")
    p, p_h, eye = pair.p, matcore.dagger(pair.p), np.eye(pair.n)
    # each Gramian is Hermitian in exact arithmetic; symmetrize so roundoff in
    # a near-zero one (P close to unitary) cannot trip the relative check
    (w, v), (w_star, v_star) = eigs = [
        matcore.psd_eigh(0.5 * (gram + matcore.dagger(gram)),
                         matcore.DEFECT_EIG_CLAMP)
        for gram in (eye - p_h @ p, eye - p @ p_h)]
    m = matcore.dagger(v_star) @ p @ v
    resid = matcore.fro_norm(m * np.sqrt(w) - np.sqrt(w_star)[:, None] * m)
    if resid > matcore.DEFECT_INTERTWINE_TOL:
        raise NumericalContractBreach(
            f"|P D_P - D_P* P| = {resid:.3e} exceeds "
            f"{matcore.DEFECT_INTERTWINE_TOL:.1e}")
    dp, dps = (DefectData(q=vs[:, ws > 0], sv=np.sqrt(ws[ws > 0]))
               for ws, vs in eigs)
    return dp, dps, -m[np.ix_(w_star > 0, w > 0)]


@dataclass(frozen=True)
class FundamentalPair:
    """A pair with its fundamental operators, solve residuals and radii.

    This is the per-pair object everything downstream takes: ``pair`` is the
    validated pair it was solved for, ``f`` is r x r on the eigenbasis ``q``
    of ``defect_p``, ``f_star`` is r* x r* on that of ``defect_p_star``, and
    ``theta_0`` = -Q_*^adj P Q is the r* x r value of Theta at the origin.
    Residuals are |dq F dq^adj - (S - S*P)|_F and its adjoint twin, the
    defining equations reassembled; ``w_f`` and ``w_f_star`` are numerical
    radii.  ``theta_grid`` comes from one batched ``theta_at`` call.
    """

    pair: GammaPair
    f: np.ndarray
    f_star: np.ndarray
    residual_f: float
    residual_f_star: float
    w_f: float
    w_f_star: float
    defect_p: DefectData
    defect_p_star: DefectData
    theta_0: np.ndarray

    @functools.cached_property
    def norm_f_star(self) -> float:
        """|F_*|, the scale of its match tolerance; built on first read."""
        return matcore.op_norm(self.f_star)

    @functools.cached_property
    def theta_grid(self) -> np.ndarray:
        """Theta on ``default_coincidence_grid()``, stacked; built on first read."""
        return theta_at(self, default_coincidence_grid())


def _solve_side(s: np.ndarray, p: np.ndarray, dd: DefectData
                ) -> tuple[np.ndarray, float, float]:
    """Least-squares F = Q* (S - S*P) Q / (sv sv^T) of S - S*P = D Q F Q* D,
    its residual and its numerical radius; an overflowing solve gives an inf
    or NaN residual and radius inf, a breach written as null."""
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = s - matcore.dagger(s) @ p
        f = matcore.restrict(dd.q, rhs) / np.outer(dd.sv, dd.sv)
        resid = matcore.fro_norm(dd.dq @ f @ matcore.dagger(dd.dq) - rhs)
    radius = matcore.numerical_radius(f) if np.isfinite(f).all() else np.inf
    return f, resid, radius


def solve_fundamental(pair: GammaPair) -> FundamentalPair:
    """Both fundamental operators of a validated pair.

    Rank-zero defects (P unitary) yield empty operators; the recorded
    residual is then the full norm of the left side, which must be about
    zero exactly when the pair has unitary structure.
    """
    dp, dps, theta_0 = defect_pair(pair)
    f, res_f, w_f = _solve_side(pair.s, pair.p, dp)
    f_star, res_fs, w_fs = _solve_side(matcore.dagger(pair.s), matcore.dagger(pair.p), dps)
    return FundamentalPair(
        pair=pair, f=f, f_star=f_star,
        residual_f=res_f, residual_f_star=res_fs, w_f=w_f, w_f_star=w_fs,
        defect_p=dp, defect_p_star=dps, theta_0=theta_0,
    )


def check_pf_intertwining(fp: FundamentalPair) -> float:
    """Residual of P F = F_*^adj P on the defect space of P.

    Returns |P Q F + Q_* F_*^adj Theta_0|_F with the pair's ``theta_0``, the
    residual of the ambient lifts on Ran D_P without their right factor Q*.
    An F or F_* that overflowed gives an inf or NaN residual, a breach.
    """
    q, q_star, p = fp.defect_p.q, fp.defect_p_star.q, fp.pair.p
    with np.errstate(over="ignore", invalid="ignore"):
        return matcore.fro_norm(p @ q @ fp.f
                                + q_star @ matcore.dagger(fp.f_star) @ fp.theta_0)


def fstar_defect_identity_residual(fp: FundamentalPair) -> float:
    """Residual |A F_*^adj + P A F_* - S A|_F of D_P* F_*^adj + P D_P* F_* = S D_P*.

    A = dq_* = D_P* Q_*: the residual of the ambient lift of F_* without its
    right factor Q_*^adj, which leaves a Frobenius norm unchanged.
    """
    pair, a = fp.pair, fp.defect_p_star.dq
    return matcore.fro_norm(a @ matcore.dagger(fp.f_star) + pair.p @ a @ fp.f_star
                            - pair.s @ a)


def scalar_fundamental(s: complex, p: complex) -> complex:
    """Closed form (s - conj(s) p) / (1 - |p|^2) for scalar pairs, |p| < 1."""
    return (s - np.conj(s) * p) / (1.0 - abs(p) ** 2)
