"""Truncated functional model for pure pairs.

For pure P the map W h = sum_k z^k (x) D_P* P*^k h embeds the space
isometrically into a truncated vector-valued Hardy space.  The model space
is the orthocomplement of the range of the Theta multiplication operator,
and the pair is recovered by compressing

    T = I (x) F_*^adj + shift (x) F_*        and        V = shift (x) I

to the embedded copy.  Truncation at N leaves tails of order |P^N|.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import matcore
from .charfn import theta_coeffs, toeplitz_mult
from .exceptions import NotPure, TruncationCapExceeded
from .fundamental import FundamentalPair
from .gamma_pair import GammaPair, PURITY_TOL

#: Operator-norm target for |P^N| when choosing N automatically.
AUTO_TAIL_TARGET = 1e-12

#: Hard cap on the truncation order.
TRUNCATION_CAP = 4096

#: Dense complement-identity checks switch to power iteration above this size.
_DENSE_LIMIT = 600


@dataclass(frozen=True)
class ModelData:
    """Truncated model of one pure pair.

    ``w`` is the embedding, ``model_basis`` its orthonormalization (rank n),
    ``s1``/``p1`` the compressions of ``t``/``v`` to the model space, and
    ``residuals`` collects the verification ledger.
    """

    n_trunc: int
    w: np.ndarray
    model_basis: matcore.RangeBasis
    tail: float
    s1: np.ndarray | None = None
    p1: np.ndarray | None = None
    t: np.ndarray | None = None
    v: np.ndarray | None = None
    residuals: dict = None


def auto_truncation(p, cap: int = TRUNCATION_CAP) -> int:
    """Smallest N with |P^N| at most AUTO_TAIL_TARGET."""
    p = matcore.as_cmatrix(p, square=True, name="P")
    if matcore.spectral_radius(p) >= 1.0 - PURITY_TOL:
        raise NotPure("spectral radius of P is not strictly below 1")
    power = p.copy()
    for n in range(1, cap + 1):
        if matcore.op_norm(power) <= AUTO_TAIL_TARGET:
            return n
        power = power @ p
    raise TruncationCapExceeded(
        f"|P^N| did not reach {AUTO_TAIL_TARGET:.1e} for N <= {cap}")


def _resolve_trunc(pair: GammaPair, n_trunc) -> int:
    if isinstance(n_trunc, str):
        if n_trunc != "auto":
            raise ValueError(f"n_trunc must be an int or 'auto', got {n_trunc!r}")
        return auto_truncation(pair.p)
    n = int(n_trunc)
    if n < 1:
        raise ValueError("n_trunc must be at least 1")
    if n > TRUNCATION_CAP:
        raise TruncationCapExceeded(f"requested N = {n} exceeds cap {TRUNCATION_CAP}")
    if not pair.flags.pure:
        raise NotPure("the model requires a pure P")
    return n


def embed_w(fp: FundamentalPair, n_trunc) -> np.ndarray:
    """Stacked embedding blocks D_P* P*^k on the defect basis, k < N."""
    pair = fp.pair
    n_trunc = _resolve_trunc(pair, n_trunc)
    left = matcore.dagger(fp.defect_p_star.basis.q) @ fp.defect_p_star.d
    blocks, cur = [], np.eye(pair.n, dtype=complex)
    p_star = matcore.dagger(pair.p)
    for _ in range(n_trunc):
        blocks.append(left @ cur)
        cur = cur @ p_star
    return np.vstack(blocks)


def _polar_onb(w: np.ndarray) -> matcore.RangeBasis:
    """Symmetric (Loewdin) orthonormalization of the columns of W."""
    u, s, vh = np.linalg.svd(w, full_matrices=False)
    return matcore.RangeBasis(q=u @ vh, rank=w.shape[1],
                              sigma_min_kept=float(s[-1]) if s.size else 0.0,
                              sigma_max_dropped=0.0)


def _complement_identity_residual(b: np.ndarray, t_theta: np.ndarray) -> float:
    """Operator norm of B B* + T_Theta T_Theta* - I on the truncated space."""
    m = b.shape[0]
    if m <= _DENSE_LIMIT:
        full = b @ matcore.dagger(b) + t_theta @ matcore.dagger(t_theta)
        full -= np.eye(m, dtype=complex)
        return matcore.op_norm(full)

    def matvec(x):
        y = b @ (matcore.dagger(b) @ x)
        y += t_theta @ (matcore.dagger(t_theta) @ x)
        return y - x

    return matcore.op_norm_hermitian(matvec, m)


def model_space(fp: FundamentalPair, n_trunc="auto",
                complement: bool = True) -> ModelData:
    """Embedding, orthonormal model basis and space-level residuals.

    ``complement=False`` skips the block-Toeplitz complement check, whose
    cost dominates everything else; callers that only need the compressed
    operators (the equivalence confirmation) take that path.
    """
    pair = fp.pair
    n_val = _resolve_trunc(pair, n_trunc)
    w = embed_w(fp, n_val)
    basis = _polar_onb(w)
    tail = matcore.op_norm(np.linalg.matrix_power(pair.p, n_val))
    iso = matcore.op_norm(matcore.dagger(w) @ w - np.eye(pair.n, dtype=complex))
    residuals = {"isometry_defect": iso}
    if complement:
        residuals["complement_identity"] = _complement_identity_residual(
            basis.q, toeplitz_mult(theta_coeffs(fp, n_val), n_val))
    return ModelData(
        n_trunc=n_val, w=w, model_basis=basis, tail=tail,
        residuals=residuals,
    )


def model_operators(fp: FundamentalPair, md: ModelData) -> ModelData:
    """Complete a model with the shifted operators and their compressions."""
    pair = fp.pair
    n_val = md.n_trunc
    f_star = fp.f_star
    r_star = f_star.shape[0]
    m = n_val * r_star
    # I (x) F_*^adj + shift (x) F_* and shift (x) I, assembled blockwise to
    # keep one allocation per operator at large truncations.
    t = np.zeros((m, m), dtype=complex)
    f_star_adj = matcore.dagger(f_star)
    for i in range(n_val):
        t[i * r_star:(i + 1) * r_star, i * r_star:(i + 1) * r_star] = f_star_adj
        if i:
            t[i * r_star:(i + 1) * r_star, (i - 1) * r_star:i * r_star] = f_star
    v = np.eye(m, k=-r_star, dtype=complex)
    b = md.model_basis.q
    s1 = matcore.dagger(b) @ t @ b
    p1 = matcore.dagger(b) @ v @ b
    w = md.w
    residuals = dict(md.residuals)
    residuals["intertwine_s"] = matcore.fro_norm(
        w @ matcore.dagger(pair.s) - matcore.dagger(t) @ w)
    residuals["intertwine_p"] = matcore.fro_norm(
        w @ matcore.dagger(pair.p) - matcore.dagger(v) @ w)
    return replace(md, s1=s1, p1=p1, t=t, v=v, residuals=residuals)


def fstar_defect_identity_residual(fp: FundamentalPair) -> float:
    """Residual of D_P* F_*^adj + P D_P* F_* = S D_P* with ambient lifts."""
    pair = fp.pair
    fs_amb = matcore.lift(fp.defect_p_star.basis, fp.f_star)
    d_star = fp.defect_p_star.d
    h = (d_star @ matcore.dagger(fs_amb) + pair.p @ d_star @ fs_amb
         - pair.s @ d_star)
    return matcore.fro_norm(h)


def verify_model(fp: FundamentalPair, n_trunc="auto") -> ModelData:
    """Full pipeline returning a model whose residual ledger is complete.

    Ledger keys: isometry_defect, complement_identity, intertwine_s,
    intertwine_p, fstar_defect_identity.  For genuine pure pairs all of
    them sit at the truncation-tail or rounding level.
    """
    md = model_operators(fp, model_space(fp, n_trunc))
    residuals = dict(md.residuals)
    residuals["fstar_defect_identity"] = fstar_defect_identity_residual(fp)
    return replace(md, residuals=residuals)
