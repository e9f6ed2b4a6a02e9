"""Transport of pairs and fundamental operators under disc automorphisms.

A disc automorphism m(z) = beta (z - a) / (1 - conj(a) z) acts on a pair
through the operator analogue of its symmetrized action.  The fundamental
operator transports by an explicit congruence-plus-unitary formula, which
is checked here against re-solving on the transported pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .exceptions import NotInvertible, NotPSD, SingularResolvent
from .fundamental import FundamentalPair, solve_fundamental
from .gamma_domain import DiscAutomorphism
from .gamma_pair import GammaPair, validate


def _transport(pair: GammaPair, m: DiscAutomorphism
               ) -> tuple[GammaPair, np.ndarray, np.ndarray]:
    """The image pair of :func:`transport_pair`, with R^(-1) and R's singular values.

    R = I - conj(a) S + conj(a)^2 P is factored once, by an SVD U diag(s) V*,
    and R^(-1) = V diag(1/s) U* is formed from it; a sigma_min below
    RESOLVENT_FLOOR is refused.
    """
    a, beta = complex(m.a), complex(m.beta)
    ac, eye = np.conj(a), np.eye(pair.n, dtype=complex)
    u, sv, vh = np.linalg.svd(eye - ac * pair.s + ac * ac * pair.p)
    if sv[-1] < matcore.RESOLVENT_FLOOR:
        raise SingularResolvent(
            f"sigma_min = {sv[-1]:.3e} below {matcore.RESOLVENT_FLOOR:.1e}")
    r_inv = (matcore.dagger(vh) / sv) @ matcore.dagger(u)
    num_s = beta * ((1.0 + abs(a) ** 2) * pair.s - 2.0 * ac * pair.p - 2.0 * a * eye)
    num_p = beta * beta * (pair.p - a * pair.s + a * a * eye)
    return validate(num_s @ r_inv, num_p @ r_inv), r_inv, sv


def transport_pair(pair: GammaPair, m: DiscAutomorphism) -> GammaPair:
    """Image pair (S_tau, P_tau) under the automorphism.

    S_tau = beta ((1+|a|^2) S - 2 conj(a) P - 2 a) (I - conj(a) S + conj(a)^2 P)^(-1)
    P_tau = beta^2 (P - a S + a^2) (the same inverse)
    """
    return _transport(pair, m)[0]


def _g_eigh(f: np.ndarray, a: complex) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of G = (1 + |a|^2) I - conj(a) F - a F* by ``psd_eigh``.

    An indefinite G, or one with an eigenvalue in EIG_CLAMP_TOL, is refused.
    """
    g = ((1.0 + abs(a) ** 2) * np.eye(f.shape[0], dtype=complex)
         - np.conj(a) * f - a * matcore.dagger(f))
    try:
        w, v = matcore.psd_eigh(g, matcore.EIG_CLAMP_TOL)
    except NotPSD as exc:
        raise NotInvertible(f"G is not positive definite: {exc}") from exc
    if not (w > 0).all():
        raise NotInvertible("G is singular, not positive definite")
    return w, v


def transport_fundamental(f: np.ndarray, m: DiscAutomorphism,
                          u_defect: np.ndarray) -> np.ndarray:
    """Closed-form transported fundamental operator.

    With G = (1 + |a|^2) I - conj(a) F - a F* (Hermitian, positive definite
    while the numerical radius of F is at most one, else NotInvertible) the
    transported operator is U* G^(-1/2) beta (F + a^2 F* - 2 a) G^(-1/2) U,
    where U is the defect-basis unitary from the transport crosscheck.
    """
    f = matcore.as_cmatrix(f, square=True, name="F")
    a, beta = complex(m.a), complex(m.beta)
    w, v = _g_eigh(f, a)
    g_inv_half = (v / np.sqrt(w)) @ matcore.dagger(v)
    core = beta * (f + a * a * matcore.dagger(f)
                   - 2.0 * a * np.eye(f.shape[0], dtype=complex))
    return matcore.dagger(u_defect) @ g_inv_half @ core @ g_inv_half @ u_defect


@dataclass(frozen=True)
class TransportResult:
    """Both routes to the transported fundamental operator.

    ``fp_tau`` solves the transported pair (S_tau, P_tau) directly; its ``f``
    is the direct route.  ``u_defect`` maps its defect coordinates to those
    of the input pair; ``crosscheck_residual`` is |f_tau_closed - fp_tau.f|_F
    and ``x_identity_residual`` is |X^adj X - dq_tau dq_tau^adj|_F.
    """

    fp_tau: FundamentalPair
    u_defect: np.ndarray
    f_tau_closed: np.ndarray
    crosscheck_residual: float
    cond_resolvent: float
    x_identity_residual: float
    u_unitarity_defect: float


def transport_crosscheck(fp: FundamentalPair, m: DiscAutomorphism
                         ) -> TransportResult:
    """Transport a solved pair both ways; only the transported pair is solved.

    The intertwining map X = (1-|a|^2)^(1/2) Q G^(1/2) dq^adj (I - conj(a) S
    + conj(a)^2 P)^(-1) satisfies X*X = D_{P_tau}^2 and induces the unitary
    U between the defect spaces that the closed form needs.
    """
    pair, q, a = fp.pair, fp.defect_p.q, complex(m.a)
    pair_tau, r_inv, sv = _transport(pair, m)
    fp_tau = solve_fundamental(pair_tau)

    w, v = _g_eigh(fp.f, a)
    g_half = (v * np.sqrt(w)) @ matcore.dagger(v)
    x = (np.sqrt(1.0 - abs(a) ** 2) * q @ g_half
         @ matcore.dagger(fp.defect_p.dq) @ r_inv)

    dt = fp_tau.defect_p
    x_resid = matcore.fro_norm(matcore.dagger(x) @ x - dt.dq @ matcore.dagger(dt.dq))

    # X*X = D_tau^2, D_tau Q_tau = Q_tau diag(sv_tau): Q* X Q_tau = U diag(sv_tau)
    u_defect = (matcore.dagger(q) @ x @ dt.q) / dt.sv     # r x r_tau
    u_unit = matcore.fro_norm(
        matcore.dagger(u_defect) @ u_defect - np.eye(dt.rank, dtype=complex))

    f_closed = transport_fundamental(fp.f, m, u_defect)
    return TransportResult(
        fp_tau=fp_tau,
        u_defect=u_defect,
        f_tau_closed=f_closed,
        crosscheck_residual=matcore.fro_norm(f_closed - fp_tau.f),
        cond_resolvent=float(sv[0] / sv[-1]),
        x_identity_residual=x_resid,
        u_unitarity_defect=u_unit,
    )
