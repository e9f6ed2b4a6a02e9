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

    The orthonormal columns ``q`` are the right (for D_P) or left (for D_P*)
    singular vectors of P with defect values ``sv`` > 0, from the one SVD in
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

    One SVD P = U diag(sigma) V^adj gives D_P = V diag(sv) V^adj and
    D_P* = U diag(sv) U^adj, sv = ((1 - sigma)(1 + sigma))^(1/2) zeroed where
    sv^2 <= DEFECT_EIG_CLAMP: one kept index set, so r = r*.  From
    M = U^adj P V, formed once, P D_P = D_P* P is checked as
    |M diag(sv) - diag(sv) M|_F, the SVD's off-diagonal backward error, and
    Theta_0 = -Q_*^adj P Q is -M on the kept indices.
    """
    if pair.norm_p > 1.0 + matcore.CONTRACTION_TOL:
        raise NotContraction(f"|P| = {pair.norm_p:.12g} exceeds 1")
    u, sigma, vh = np.linalg.svd(pair.p)
    w = (1.0 - sigma) * (1.0 + sigma)  # 1 - sigma^2, to relative accuracy
    sv = np.sqrt(np.where(w <= matcore.DEFECT_EIG_CLAMP, 0.0, w))
    v = matcore.dagger(vh)
    m = matcore.dagger(u) @ pair.p @ v
    resid = matcore.fro_norm(m * sv - sv[:, None] * m)
    if resid > matcore.DEFECT_INTERTWINE_TOL:
        raise NumericalContractBreach(
            f"|P D_P - D_P* P| = {resid:.3e} exceeds "
            f"{matcore.DEFECT_INTERTWINE_TOL:.1e}")
    dp, dps = (DefectData(q=b[:, sv > 0], sv=sv[sv > 0]) for b in (v, u))
    return dp, dps, -m[np.ix_(sv > 0, sv > 0)]


@dataclass(frozen=True)
class FundamentalPair:
    """A pair with its fundamental operators, solve residuals and radii.

    This is the per-pair object everything downstream takes: ``pair`` is the
    validated pair it was solved for, ``f`` is r x r on the singular-vector
    basis ``q`` of ``defect_p``, ``f_star`` is r* x r* on that of
    ``defect_p_star``, and ``theta_0`` = -Q_*^adj P Q is the r* x r value of
    Theta at the origin.  Residuals are |dq F dq^adj - (S - S*P)|_F and its
    adjoint twin, the defining equations reassembled.  ``w_f`` and
    ``w_f_star`` are the numerical radii of F and F_*, inf where one
    overflowed; on a pure pair that solves both equations w(F_*) = w(F) (see
    :func:`solve_fundamental`) and ``w_f_star`` is the computed ``w_f``
    itself.  ``theta_grid`` comes from one batched ``theta_at`` call.
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
                ) -> tuple[np.ndarray, float]:
    """Least-squares F = Q* (S - S*P) Q / (sv sv^T) of S - S*P = D Q F Q* D
    and its residual; an overflowing solve gives a non-finite F and an inf
    or NaN residual, a breach written as null."""
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = s - matcore.dagger(s) @ p
        f = matcore.restrict(dd.q, rhs) / np.outer(dd.sv, dd.sv)
        resid = matcore.fro_norm(dd.dq @ f @ matcore.dagger(dd.dq) - rhs)
    return f, resid


def residual_bound(pair: GammaPair) -> float:
    """RESIDUAL_BREACH_TOL (1 + |S|), the bound on both equation residuals."""
    return matcore.RESIDUAL_BREACH_TOL * (1.0 + pair.norm_s)


def _radius(f: np.ndarray) -> float:
    """Numerical radius of a solved operator; inf where the solve overflowed."""
    return matcore.numerical_radius(f) if np.isfinite(f).all() else np.inf


def solve_fundamental(pair: GammaPair) -> FundamentalPair:
    """Both fundamental operators of a validated pair, and their numerical radii.

    Rank-zero defects (P unitary) yield empty operators; the recorded
    residual is then the full norm of the left side, which must be about
    zero exactly when the pair has unitary structure.

    A pure pair takes one numerical radius for both operators: for
    commuting matrices S, P with P a pure contraction, w(F) = w(F_*).
    Write D_* = D_P*, with F_* acting on Ran D_*.

    1. From S* - S P* = D_* F_* D_* and SP = PS alone,
       D_* F_*^adj D_* + P D_* F_* D_* = (S - P S*) + (P S* - P S P*)
       = S - S P P* = S D_*^2, so S D_* = D_* F_*^adj + P D_* F_* on
       Ran D_*; on Ker D_* both sides vanish.
    2. Hence W S* = T_phi* W with phi(z) = F_*^adj + z F_*, where
       W h = sum_k z^k D_* P*^k h maps H into H^2(Ran D_*) with
       W P* = T_z* W, isometrically since P*^k -> 0 (P is pure): the
       adjoint of 1, D_* S* = F_* D_* + F_*^adj D_* P*, at each P*^k h.
    3. If t > 0 and w(t F_*) <= 1, then (T_{t phi}, T_z) is a Gamma-isometry
       (Agler and Young, J. Operator Theory 2003).  Its adjoint restricted
       to the invariant subspace W(H) is, through W, the pair (t S*, P*),
       so (t S*, P*) is a Gamma-contraction, and so is (t S, P).
    4. The fundamental operator of (t S, P) is t F, and a
       Gamma-contraction's has numerical radius at most one (Bhattacharyya,
       Pal and Shyam Roy, Adv. Math. 2012): w(t F) <= 1.  With
       t = 1 / w(F_*) (any t if F_* = 0), w(F) <= w(F_*).
    5. In finite dimensions P* is pure too, and (S*, P*) has the
       fundamental operator F_* and the adjoint-side one F, so the same
       argument with the roles swapped gives w(F_*) <= w(F).

    The radius of F is therefore taken for F_* where the hypotheses hold as
    the report checks them: the pair is pure, F and F_* are finite, and
    both residuals are at most :func:`residual_bound`.  Everywhere
    else (a pair that is not pure, a breached equation, an overflow), F_*
    gets its own radius.
    """
    dp, dps, theta_0 = defect_pair(pair)
    f, res_f = _solve_side(pair.s, pair.p, dp)
    f_star, res_fs = _solve_side(matcore.dagger(pair.s), matcore.dagger(pair.p), dps)
    w_f, bound = _radius(f), residual_bound(pair)
    shared = (pair.flags.pure and res_f <= bound and res_fs <= bound
              and np.isfinite(f).all() and np.isfinite(f_star).all())
    return FundamentalPair(
        pair=pair, f=f, f_star=f_star,
        residual_f=res_f, residual_f_star=res_fs,
        w_f=w_f, w_f_star=w_f if shared else _radius(f_star),
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
