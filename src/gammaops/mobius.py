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
from .exceptions import NotInvertible, SingularResolvent
from .fundamental import FundamentalPair, solve_fundamental
from .gamma_domain import DiscAutomorphism
from .gamma_pair import GammaPair, validate


def _resolvent_matrix(pair: GammaPair, m: DiscAutomorphism) -> np.ndarray:
    ac = np.conj(m.a)
    return (np.eye(pair.n, dtype=complex) - ac * pair.s + ac * ac * pair.p)


def transport_pair(pair: GammaPair, m: DiscAutomorphism) -> GammaPair:
    """Image pair (S_tau, P_tau) under the automorphism.

    S_tau = beta ((1+|a|^2) S - 2 conj(a) P - 2 a) (I - conj(a) S + conj(a)^2 P)^(-1)
    P_tau = beta^2 (P - a S + a^2) (the same inverse)
    """
    a, beta = complex(m.a), complex(m.beta)
    ac = np.conj(a)
    q = _resolvent_matrix(pair, m)
    smin = float(np.linalg.svd(q, compute_uv=False)[-1])
    if smin < matcore.RESOLVENT_FLOOR:
        raise SingularResolvent(
            f"sigma_min = {smin:.3e} below {matcore.RESOLVENT_FLOOR:.1e}")
    eye = np.eye(pair.n, dtype=complex)
    num_s = beta * ((1.0 + abs(a) ** 2) * pair.s - 2.0 * ac * pair.p - 2.0 * a * eye)
    num_p = beta * beta * (pair.p - a * pair.s + a * a * eye)
    # Right-division X Q^{-1} via a transposed solve.
    s_tau = np.linalg.solve(q.T, num_s.T).T
    p_tau = np.linalg.solve(q.T, num_p.T).T
    return validate(s_tau, p_tau)


def transport_fundamental(f: np.ndarray, m: DiscAutomorphism,
                          u_defect: np.ndarray) -> np.ndarray:
    """Closed-form transported fundamental operator.

    With G = (1 + |a|^2) I - conj(a) F - a F* (always Hermitian, positive
    definite while the numerical radius of F is at most one) the transported
    operator is U* G^(-1/2) beta (F + a^2 F* - 2 a) G^(-1/2) U, where U is
    the defect-basis unitary from the transport crosscheck.
    """
    f = matcore.as_cmatrix(f, square=True, name="F")
    a, beta = complex(m.a), complex(m.beta)
    r = f.shape[0]
    if r == 0:
        return np.zeros((u_defect.shape[1], u_defect.shape[1]), dtype=complex)
    fh = matcore.dagger(f)
    g = (1.0 + abs(a) ** 2) * np.eye(r, dtype=complex) - np.conj(a) * f - a * fh
    w, v = np.linalg.eigh(0.5 * (g + matcore.dagger(g)))
    if w.min() <= matcore.EIG_CLAMP_TOL * max(1.0, float(w.max())):
        raise NotInvertible(f"G has eigenvalue {w.min():.3e}, not positive definite")
    g_inv_half = (v / np.sqrt(w)) @ matcore.dagger(v)
    core = beta * (f + a * a * fh - 2.0 * a * np.eye(r, dtype=complex))
    return matcore.dagger(u_defect) @ g_inv_half @ core @ g_inv_half @ u_defect


@dataclass(frozen=True)
class TransportResult:
    """Both routes to the transported fundamental operator.

    ``u_defect`` maps defect coordinates of the transported pair to defect
    coordinates of the input pair; ``crosscheck_residual`` compares the
    closed form against solving on the transported pair directly.
    """

    pair_tau: GammaPair
    fp_tau: FundamentalPair
    u_defect: np.ndarray
    f_tau_closed: np.ndarray
    f_tau_direct: np.ndarray
    crosscheck_residual: float
    cond_resolvent: float
    x_identity_residual: float
    u_unitarity_defect: float


def transport_crosscheck(fp: FundamentalPair, m: DiscAutomorphism
                         ) -> TransportResult:
    """Transport a solved pair both ways; only the transported pair is solved.

    The intertwining map X = (1-|a|^2)^(1/2) G^(1/2) D_P (I - conj(a) S
    + conj(a)^2 P)^(-1) satisfies X*X = D_{P_tau}^2 and induces the unitary
    U between the defect spaces that the closed form needs.
    """
    pair = fp.pair
    a = complex(m.a)
    pair_tau = transport_pair(pair, m)
    fp_tau = solve_fundamental(pair_tau)

    q = fp.defect_p.q
    f = fp.f
    r = fp.defect_p.rank
    g = ((1.0 + abs(a) ** 2) * np.eye(r, dtype=complex)
         - np.conj(a) * f - a * matcore.dagger(f))
    g_half = matcore.herm_sqrt_psd(g)
    resolvent = _resolvent_matrix(pair, m)
    x = (np.sqrt(1.0 - abs(a) ** 2)
         * matcore.lift(q, g_half) @ fp.defect_p.d
         @ np.linalg.inv(resolvent))

    dt = fp_tau.defect_p
    x_resid = matcore.fro_norm(matcore.dagger(x) @ x - dt.d @ dt.d)

    # X*X = D_tau^2, D_tau Q_tau = Q_tau diag(sv_tau): Q* X Q_tau = U diag(sv_tau)
    u_defect = (matcore.dagger(q) @ x @ dt.q) / dt.sv     # r x r_tau
    u_unit = matcore.fro_norm(
        matcore.dagger(u_defect) @ u_defect - np.eye(dt.rank, dtype=complex))

    f_closed = transport_fundamental(f, m, u_defect)
    return TransportResult(
        pair_tau=pair_tau,
        fp_tau=fp_tau,
        u_defect=u_defect,
        f_tau_closed=f_closed,
        f_tau_direct=fp_tau.f,
        crosscheck_residual=matcore.fro_norm(f_closed - fp_tau.f),
        cond_resolvent=float(np.linalg.cond(resolvent)),
        x_identity_residual=x_resid,
        u_unitarity_defect=u_unit,
    )
