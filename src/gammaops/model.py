"""Truncated functional model for pure pairs.

For pure P the map W h = sum_k z^k (x) D_P* P*^k h embeds the space
isometrically into a truncated vector-valued Hardy space.  The model space
is the orthocomplement of the range of the Theta multiplication operator,
and the pair is recovered by compressing

    T = I (x) F_*^adj + shift (x) F_*        and        V = shift (x) I

to the embedded copy.  Truncation at N leaves tails of order |P^N|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .charfn import theta_coeffs, toeplitz_mult
from .exceptions import NotPure, TruncationCapExceeded
from .fundamental import FundamentalPair, fstar_defect_identity_residual
from .gamma_pair import GammaPair


@dataclass(frozen=True)
class ModelData:
    """Truncated model of one pure pair.

    ``w`` is the embedding, ``model_basis`` its orthonormalization (n columns)
    and ``s1``/``p1`` the compressions of T/V to the model space.  The
    residual ledger is not part of the model; ``verify_model`` computes it.
    """

    n_trunc: int
    w: np.ndarray
    model_basis: np.ndarray
    s1: np.ndarray
    p1: np.ndarray


def auto_truncation(pair: GammaPair) -> int:
    """Smallest N <= TRUNCATION_CAP with |P^N| <= AUTO_TAIL_TARGET; P pure by flag.

    By repeated squaring and a binary-digit search, about 2 log2 N products
    instead of N.  The squares P^(2^j) run until one meets the target, which
    puts N in (2^(j-1), 2^j]; then the digits of M = N - 1 below 2^(j-1) are
    set from the top, 2^i where P^M P^(2^i) still misses the target.  The N
    found meets the target and N - 1 does not.  It is the first such N, the
    one a scan over N finds, up to the rounding of the powers: |P^(N+k)| <=
    |P|^k |P^N| and a validated contraction has |P| <= 1 + CONTRACTION_TOL,
    so once |P^N| meets the target it can come back above it by at most the
    factor (1 + CONTRACTION_TOL)^TRUNCATION_CAP < 1 + 5e-7.
    """
    if not pair.flags.pure:
        raise NotPure("spectral radius of P is not strictly below 1")
    # |A| >= |A|_F / sqrt(n), so no SVD runs while |P^N|_F is above this
    fro_bound = np.sqrt(pair.n) * matcore.AUTO_TAIL_TARGET

    def meets(power):
        return (matcore.fro_norm(power) <= fro_bound
                and matcore.op_norm(power) <= matcore.AUTO_TAIL_TARGET)

    capped = (
        f"|P^N| did not reach {matcore.AUTO_TAIL_TARGET:.1e} "
        f"for N <= {matcore.TRUNCATION_CAP}")
    squares = [pair.p]  # squares[j] = P^(2^j)
    while not meets(squares[-1]):
        if 2 ** (len(squares) - 1) >= matcore.TRUNCATION_CAP:
            raise TruncationCapExceeded(capped)
        squares.append(squares[-1] @ squares[-1])
    if len(squares) == 1:
        return 1
    m, power = 2 ** (len(squares) - 2), squares[-2]  # P^m misses the target
    for j in range(len(squares) - 3, -1, -1):
        trial = power @ squares[j]
        if not meets(trial):
            m, power = m + 2 ** j, trial
    if m >= matcore.TRUNCATION_CAP:
        raise TruncationCapExceeded(capped)
    return m + 1


def _resolve_trunc(pair: GammaPair, n_trunc: int | None) -> int:
    if n_trunc is None:
        return auto_truncation(pair)
    n = int(n_trunc)
    if n < 1:
        raise ValueError("n_trunc must be at least 1")
    if n > matcore.TRUNCATION_CAP:
        raise TruncationCapExceeded(
            f"requested N = {n} exceeds cap {matcore.TRUNCATION_CAP}")
    if not pair.flags.pure:
        raise NotPure("the model requires a pure P")
    return n


def embed_w(fp: FundamentalPair, n_trunc: int) -> np.ndarray:
    """Stacked embedding blocks D_P* P*^k on the defect basis, k < N.

    The first block is dq_*^adj = Q_*^adj D_P*.  Built by doubling: the
    first k blocks times P*^k are the next k, so about log2 N products
    replace N of them.  Subnormal parts of the blocks are zeroed.
    """
    pair = fp.pair
    r_star = fp.defect_p_star.rank
    w = np.empty((n_trunc * r_star, pair.n), dtype=complex)
    w[:r_star] = matcore.dagger(fp.defect_p_star.dq)
    power, done = matcore.dagger(pair.p), 1
    while done < n_trunc:
        step = min(done, n_trunc - done)
        w[done * r_star:(done + step) * r_star] = w[:step * r_star] @ power
        done += step
        power = power @ power
    return matcore.flush_subnormals(w)


def _complement_identity_residual(b: np.ndarray, t_theta) -> float:
    """Operator norm of B B* + T_Theta T_Theta* - I on the truncated space."""
    b_adj = matcore.dagger(b)

    def matvec(x):
        return b @ (b_adj @ x) + t_theta.apply(t_theta.apply_adj(x)) - x

    return matcore.op_norm_hermitian(matvec, b.shape[0])


def model_space(fp: FundamentalPair, n_trunc: int | None = None) -> ModelData:
    """Embedding, orthonormal model basis and compressions of the model.

    Builds the model only; ``verify_model`` computes its residual ledger.
    ``n_trunc`` None takes the block count N from ``auto_truncation``.
    """
    n_val = _resolve_trunc(fp.pair, n_trunc)
    w = embed_w(fp, n_val)
    basis = matcore.flush_subnormals(matcore.polar_unitary(w))
    s1, p1 = model_operators(fp, basis)
    return ModelData(n_trunc=n_val, w=w, model_basis=basis, s1=s1, p1=p1)


def model_operators(fp: FundamentalPair, b: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Compressions s1 = B* T B and p1 = B* V B.

    T and V act on the N row blocks of B without being formed:
    (T B)_k = F_*^adj B_k + F_* B_{k-1} and (V B)_k = B_{k-1}.
    """
    f_star = fp.f_star
    r_star = f_star.shape[0]
    blocks = (b.shape[0] // r_star, r_star, b.shape[1])
    t_b = matcore.dagger(f_star) @ b.reshape(blocks)
    t_b[1:] += f_star @ b.reshape(blocks)[:-1]
    return (matcore.dagger(b) @ t_b.reshape(b.shape),
            matcore.dagger(b[r_star:]) @ b[:-r_star])


def _intertwining_residuals(fp: FundamentalPair, w: np.ndarray) -> dict:
    """|W S* - T* W|_F and |W P* - V* W|_F on the row blocks of W:
    (T* W)_k = F_* W_k + F_*^adj W_{k+1} and (V* W)_k = W_{k+1}, W_N = 0."""
    pair, f_star = fp.pair, fp.f_star
    r_star = f_star.shape[0]
    blocks = (w.shape[0] // r_star, r_star, pair.n)
    t_adj_w = f_star @ w.reshape(blocks)
    t_adj_w[:-1] += matcore.dagger(f_star) @ w.reshape(blocks)[1:]
    res_p = w @ matcore.dagger(pair.p)
    res_p[:-r_star] -= w[r_star:]
    return {"intertwine_s": matcore.fro_norm(
                w @ matcore.dagger(pair.s) - t_adj_w.reshape(w.shape)),
            "intertwine_p": matcore.fro_norm(res_p)}


def verify_model(fp: FundamentalPair, md: ModelData) -> tuple[float, dict]:
    """Truncation tail |P^N| and residual ledger of the model ``md`` of ``fp``.

    Each row is computed in ledger order, after the one before it: |W*W - I|,
    |B B* + T_Theta T_Theta* - I| from the Theta coefficients on W, the
    intertwining residuals and the F_* defect identity.  For genuine pure
    pairs every residual sits at the truncation-tail or rounding level.
    """
    w = md.w
    tail = matcore.op_norm(np.linalg.matrix_power(fp.pair.p, md.n_trunc))
    return tail, {
        "isometry_defect": matcore.op_norm(
            matcore.dagger(w) @ w - np.eye(w.shape[1], dtype=complex)),
        "complement_identity": _complement_identity_residual(
            md.model_basis, toeplitz_mult(theta_coeffs(fp, w))),
        **_intertwining_residuals(fp, w),
        "fstar_defect_identity": fstar_defect_identity_residual(fp)}
