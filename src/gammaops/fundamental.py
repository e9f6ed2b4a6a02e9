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
    """Defect operator with an orthonormal basis of its range.

    ``d`` is D_P = (I - P*P)^(1/2) or D_P* = (I - PP*)^(1/2), see :func:`defect`.
    """

    d: np.ndarray
    basis: matcore.RangeBasis

    @property
    def rank(self) -> int:
        return self.basis.rank


def defect(p, which: str = "for_P") -> DefectData:
    """Defect operator and range basis of a contraction on the side ``which``."""
    if which not in ("for_P", "for_P_star"):
        raise ValueError(f"which must be 'for_P' or 'for_P_star', got {which!r}")
    p = matcore.as_cmatrix(p, square=True, name="P")
    norm_p = matcore.op_norm(p)
    if norm_p > 1.0 + matcore.CONTRACTION_TOL:
        raise NotContraction(f"|P| = {norm_p:.12g} exceeds 1")
    gram = (np.eye(p.shape[0]) - matcore.dagger(p) @ p if which == "for_P"
            else np.eye(p.shape[0]) - p @ matcore.dagger(p))
    # exact-arithmetic Hermitian; symmetrize so roundoff in a near-zero
    # Gramian (P close to unitary) cannot trip the relative check
    gram = 0.5 * (gram + matcore.dagger(gram))
    d = matcore.herm_sqrt_psd(gram, eig_clamp=matcore.DEFECT_EIG_CLAMP)
    return DefectData(d=d, basis=matcore.range_onb(d))


def defect_pair(p) -> tuple[DefectData, DefectData]:
    """Both defect operators, verifying the lift identity P D_P = D_P* P."""
    dp = defect(p, "for_P")
    dps = defect(p, "for_P_star")
    p = matcore.as_cmatrix(p, square=True, name="P")
    resid = matcore.fro_norm(p @ dp.d - dps.d @ p)
    if resid > matcore.DEFECT_INTERTWINE_TOL:
        raise NumericalContractBreach(
            f"|P D_P - D_P* P| = {resid:.3e} exceeds "
            f"{matcore.DEFECT_INTERTWINE_TOL:.1e}")
    return dp, dps


@dataclass(frozen=True)
class FundamentalPair:
    """A pair with its fundamental operators, solve residuals and radii.

    This is the per-pair object everything downstream takes: ``pair`` is the
    validated pair it was solved for, ``f`` is r x r on the basis of Ran D_P,
    ``f_star`` is r* x r* on the basis of Ran D_P*.  Residuals are Frobenius
    norms of the defining equations after reassembly; ``w_f`` and
    ``w_f_star`` are numerical radii.
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

    @functools.cached_property
    def theta_grid(self) -> np.ndarray:
        """Theta on ``default_coincidence_grid()``, stacked; built on first read."""
        return np.stack([theta_at(self, z) for z in default_coincidence_grid()])


def _solve_side(s: np.ndarray, p: np.ndarray, dd: DefectData
                ) -> tuple[np.ndarray, float]:
    """Least-squares solution of S - S*P = A F A* with A = D restricted to its range."""
    rhs = s - matcore.dagger(s) @ p
    a = dd.d @ dd.basis.q
    if dd.rank == 0:
        return np.zeros((0, 0), dtype=complex), matcore.fro_norm(rhs)
    a_pinv = np.linalg.pinv(a)
    f = a_pinv @ rhs @ matcore.dagger(a_pinv)
    # an overflowing residual is reported as a breach, written as null
    with np.errstate(over="ignore", invalid="ignore"):
        resid = matcore.fro_norm(a @ f @ matcore.dagger(a) - rhs)
    return f, resid


def solve_fundamental(pair: GammaPair) -> FundamentalPair:
    """Both fundamental operators of a validated pair.

    Rank-zero defects (P unitary) yield empty operators; the recorded
    residual is then the full norm of the left side, which must be about
    zero exactly when the pair has unitary structure.
    """
    dp, dps = defect_pair(pair.p)
    f, res_f = _solve_side(pair.s, pair.p, dp)
    f_star, res_fs = _solve_side(matcore.dagger(pair.s), matcore.dagger(pair.p), dps)
    return FundamentalPair(
        pair=pair, f=f, f_star=f_star,
        residual_f=res_f, residual_f_star=res_fs,
        w_f=matcore.numerical_radius(f),
        w_f_star=matcore.numerical_radius(f_star),
        defect_p=dp, defect_p_star=dps,
    )


def check_pf_intertwining(fp: FundamentalPair) -> float:
    """Residual of P F = F_*^adj P on the defect space of P, ambient lifted.

    Returns |P F^ Pi - F_*^adj P Pi|_F where F^ and F_*^ are the ambient
    lifts and Pi projects onto Ran D_P.
    """
    f_amb = matcore.lift(fp.defect_p.basis, fp.f)
    fs_amb = matcore.lift(fp.defect_p_star.basis, fp.f_star)
    q = fp.defect_p.basis.q
    proj = q @ matcore.dagger(q)
    p = fp.pair.p
    left = p @ f_amb @ proj
    right = matcore.dagger(fs_amb) @ p @ proj
    return matcore.fro_norm(left - right)


def scalar_fundamental(s: complex, p: complex) -> complex:
    """Closed form (s - conj(s) p) / (1 - |p|^2) for scalar pairs, |p| < 1."""
    return (s - np.conj(s) * p) / (1.0 - abs(p) ** 2)
