"""Complete unitary invariant for pure commuting pairs.

Two pure pairs are unitarily equivalent exactly when one unitary between
the adjoint-side defect spaces conjugates their adjoint-side fundamental
operators onto each other and realizes the coincidence of their
characteristic functions.  This module is verification-first: a Witness
carrying the defect unitaries is checked against both halves of the
invariant, and a model-level confirmation is reported on success.  The
witness search is a labeled heuristic whose only conclusive negative is the
trace-word screen; none of its candidates is iterated.  Its ambient family
is at most one candidate, read in O(n^3) off the eigenbases of a Hermitian
mix of each pair: the polar factor of a generic element of the nullspace,
on the pairs' scale, of the reduced system in the conjugator's diagonal,
and none where a spectral gap proves that the gate of witness_from_ambient
refuses every matrix or where that system has no nullspace.  The defect
family factors the gate's own rows in (eta1, sigma) once, with sigma
eliminated, and takes every pair that the ambient family leaves.  Its
candidates, each built only when the search reads it, are the polar
factors of the least right singular vector and, where the least singular
value does not prove that verify_equivalence refuses every pair of
unitaries and the right singular vectors that the gate admits span two or
more dimensions, of generic elements of that span, each eta1 with its
least-squares sigma.  No certificate yet decides the verdict.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import matcore
from .charfn import CoincidenceResult, coincide_check, theta_coeffs
from .exceptions import (DimensionMismatch, NotIntertwining, NotPure,
                         TruncationCapExceeded)
from .fundamental import FundamentalPair
from .gamma_pair import GammaPair
from .model import auto_truncation, model_space

VERDICT_EQUIVALENT = "EQUIVALENT"
VERDICT_NOT_EQUIVALENT = "NOT_EQUIVALENT"

SEARCH_FOUND = "FOUND"
SEARCH_NOT_FOUND = "NOT_FOUND"
SEARCH_DISTINCT = "DISTINCT"

_EPS = np.finfo(np.float64).eps

# The weights (a, b) = (e^i, 0.7 e^2i) of the Hermitian mix of the ambient
# route, h = Herm(a S + b P): real weights (Re a, -Im a, Re b, -Im b) on the
# Hermitian and skew-Hermitian parts of S and P.  Any fixed weights that
# give h a simple spectrum on a generic pair serve.
_MIX = (0.5403023058681398 + 0.8414709848078965j,
        -0.29130278558299966 + 0.6365081987779772j)


def unitarity_defect(u: np.ndarray) -> float:
    """|U*U - I| in operator norm, inf unless u is square; for square U it
    equals |UU* - I|, both max |s^2 - 1| over the singular values s; inf too
    where U*U overflows."""
    u = np.asarray(u, dtype=complex)
    if u.shape[0] != u.shape[1]:
        return float("inf")
    with np.errstate(over="ignore", invalid="ignore"):
        gap = matcore.dagger(u) @ u - np.eye(u.shape[0])
    return matcore.op_norm(gap) if np.isfinite(gap).all() else float("inf")


@dataclass(frozen=True)
class Witness:
    """Defect unitaries asserting equivalence of two pairs.

    ``eta1`` is the one adjoint-side unitary tau_*: it intertwines the
    adjoint-side fundamental operators and, with ``sigma`` on the defect
    space of P, realizes the coincidence eta1 Theta_A = Theta_B sigma of
    the characteristic functions.  Only :func:`witness_from_ambient`, which
    checks it, sets ``u_ambient``.  Every present matrix must be unitary.
    """

    eta1: np.ndarray
    sigma: np.ndarray
    u_ambient: np.ndarray | None = None

    def __post_init__(self):
        for field in ("eta1", "sigma", "u_ambient"):
            m = getattr(self, field)
            if m is None:
                continue
            m = matcore.as_cmatrix(m, name=field)
            defect = unitarity_defect(m)
            if defect > matcore.WITNESS_UNITARY_TOL:
                raise ValueError(
                    f"witness matrix {field} is not unitary "
                    f"(defect {defect:.3e} > {matcore.WITNESS_UNITARY_TOL:.1e})")
            m.flags.writeable = False
            object.__setattr__(self, field, m)


def witness_from_ambient(u, fp_a: FundamentalPair, fp_b: FundamentalPair
                         ) -> tuple[Witness, dict]:
    """Full witness induced by an ambient intertwining unitary.

    Given unitary u with u S_A = S_B u and u P_A = P_B u, the compression
    V = Q_B* u Q_A to the defect bases of either side is again unitary,
    intertwines the defect operators, and conjugates that side's
    fundamental operator of A onto that of B.  All three facts are returned
    as measured residuals per side, ``"for_P"`` and ``"for_P_star"``, rather
    than assumed.  The adjoint-side compression is eta1.
    """
    u = matcore.as_cmatrix(u, square=True, name="U")
    pair_a, pair_b = fp_a.pair, fp_b.pair
    tol = matcore.AMBIENT_INTERTWINE_TOL
    if pair_a.n != pair_b.n or u.shape[0] != pair_a.n:
        raise DimensionMismatch(
            f"ambient sizes disagree: U is {u.shape[0]}, pairs are "
            f"{pair_a.n} and {pair_b.n}")
    u_defect = unitarity_defect(u)
    if u_defect > matcore.WITNESS_UNITARY_TOL:
        raise ValueError(
            f"ambient map is not unitary (defect {u_defect:.3e} > "
            f"{matcore.WITNESS_UNITARY_TOL:.1e})")
    res_s = matcore.op_norm(u @ pair_a.s - pair_b.s @ u)
    res_p = matcore.op_norm(u @ pair_a.p - pair_b.p @ u)
    if (res_s > tol * (1.0 + pair_a.norm_s)
            or res_p > tol * (1.0 + pair_a.norm_p)):
        raise NotIntertwining(
            f"|US - S'U| = {res_s:.3e}, |UP - P'U| = {res_p:.3e} "
            f"exceed tolerance {tol:.1e}")
    blocks, residuals = [], {}
    for side, da, db, fa, fb in (
            ("for_P", fp_a.defect_p, fp_b.defect_p, fp_a.f, fp_b.f),
            ("for_P_star", fp_a.defect_p_star, fp_b.defect_p_star,
             fp_a.f_star, fp_b.f_star)):
        v = matcore.dagger(db.q) @ u @ da.q
        square = v.shape[0] == v.shape[1]
        blocks.append(v)
        residuals[side] = {
            "unitarity": unitarity_defect(v),
            "defect_intertwine": (matcore.fro_norm(v * da.sv
                                                   - db.sv[:, None] * v)
                                  if square else float("inf")),
            "conjugation": (matcore.fro_norm(v @ fa @ matcore.dagger(v) - fb)
                            if square else float("inf")),
        }
    sigma, eta1 = blocks
    return Witness(eta1=eta1, sigma=sigma, u_ambient=u), residuals


@dataclass(frozen=True)
class EquivalenceReport:
    """Verdict with the residual ledger behind it.

    A NOT_EQUIVALENT verdict is conclusive only for structural mismatches
    (ambient dimension or defect ranks); residual failures may reflect a
    wrong witness rather than genuinely inequivalent pairs.
    """

    verdict: str
    conclusive: bool
    reason: str
    fstar_residual: float
    coincidence: CoincidenceResult | None
    model_confirmation: dict | None = None

    @property
    def equivalent(self) -> bool:
        return self.verdict == VERDICT_EQUIVALENT


def _structural_report(reason: str) -> EquivalenceReport:
    return EquivalenceReport(
        verdict=VERDICT_NOT_EQUIVALENT, conclusive=True, reason=reason,
        fstar_residual=float("inf"), coincidence=None)


def _model_confirmation(fp_a: FundamentalPair, fp_b: FundamentalPair,
                        sigma: np.ndarray, eta1: np.ndarray) -> dict:
    """Compression of I (x) eta1 between the two model spaces.

    For a true witness this compression is the unitary conjugating the model
    operators of A onto those of B, so its unitarity defect and conjugation
    residual certify equivalence end to end, not only at the defect level.
    It reads what ``model_space`` builds and runs no ``verify_model`` row.
    ``theta_coefficients`` is the sum over k < N of
    |eta1 Theta_A,k - Theta_B,k sigma|_F; by the triangle inequality it
    bounds the gap between the two N-term Taylor polynomials of the
    characteristic functions everywhere on the closed disc |z| <= 1.  The
    tail k >= N is not included, and the number is reported, not gated.
    """
    n_common = max(auto_truncation(fp_a.pair), auto_truncation(fp_b.pair))
    md_a, md_b = (model_space(fp, n_common) for fp in (fp_a, fp_b))
    # (I (x) eta1) B_a applies eta1 to each of the N row blocks of B_a
    q_a = md_a.model_basis
    eta_q_a = eta1 @ q_a.reshape(n_common, eta1.shape[1], q_a.shape[1])
    u_hat = matcore.dagger(md_b.model_basis) @ eta_q_a.reshape(q_a.shape)
    conj = max(
        matcore.fro_norm(u_hat @ md_a.s1 @ matcore.dagger(u_hat) - md_b.s1),
        matcore.fro_norm(u_hat @ md_a.p1 @ matcore.dagger(u_hat) - md_b.p1))
    gaps = (eta1 @ theta_coeffs(fp_a, md_a.w)
            - theta_coeffs(fp_b, md_b.w) @ sigma)
    return {
        "n_trunc": float(n_common),
        "unitarity": unitarity_defect(u_hat),
        "conjugation": conj,
        "theta_coefficients": float(np.linalg.norm(gaps, axis=(1, 2)).sum()),
    }


def _require_pure(fp_a: FundamentalPair, fp_b: FundamentalPair) -> None:
    for label, fp in (("first", fp_a), ("second", fp_b)):
        if not fp.pair.flags.pure:
            raise NotPure(f"{label} pair is not pure; the invariant is "
                          "stated for pure pairs only")


def _fstar_bound(fp_a: FundamentalPair) -> float:
    """Bound on |eta1 F_*A - F_*B eta1|_F of the verdict and the miss."""
    return matcore.FSTAR_MATCH_TOL * (1.0 + fp_a.norm_f_star)


def verify_equivalence(fp_a: FundamentalPair, fp_b: FundamentalPair,
                       w: Witness) -> EquivalenceReport:
    """Check a witness against both halves of the complete invariant.

    Verdict is EQUIVALENT exactly when eta1 intertwines the adjoint-side
    fundamental operators to FSTAR_MATCH_TOL, the characteristic functions
    coincide under (sigma, eta1) to COINCIDE_TOL, and the model-level
    unitary induced by eta1 has unitarity defect and conjugation residual
    at most MODEL_CONFIRM_TOL.  A confirmation above that bound gives an
    inconclusive NOT_EQUIVALENT that still carries the confirmation; one
    that cannot run, because auto truncation reaches TRUNCATION_CAP, gives
    an inconclusive NOT_EQUIVALENT whose reason names the cap.  The
    confirmation's theta_coefficients, a bound on the N-term Taylor gap
    over the closed disc, is reported and gates nothing.
    Witness matrices that do not fit the defect ranks raise DimensionMismatch.
    """
    _require_pure(fp_a, fp_b)
    pair_a, pair_b = fp_a.pair, fp_b.pair
    if pair_a.n != pair_b.n:
        return _structural_report(
            f"ambient dimensions differ: {pair_a.n} vs {pair_b.n}")
    ranks_a = (fp_a.defect_p.rank, fp_a.defect_p_star.rank)
    ranks_b = (fp_b.defect_p.rank, fp_b.defect_p_star.rank)
    if ranks_a != ranks_b:
        return _structural_report(
            f"defect ranks differ: {ranks_a} vs {ranks_b}")
    for field, side in (("eta1", 1), ("sigma", 0)):
        shape = getattr(w, field).shape
        if shape != (ranks_b[side], ranks_a[side]):
            raise DimensionMismatch(
                f"{field} has shape {shape}, expected "
                f"{(ranks_b[side], ranks_a[side])}")
    fstar_residual = matcore.fro_norm(
        w.eta1 @ fp_a.f_star - fp_b.f_star @ w.eta1)
    fstar_ok = fstar_residual <= _fstar_bound(fp_a)
    coincidence = coincide_check(fp_a, fp_b, w.sigma, w.eta1)
    if fstar_ok and coincidence.coincide:
        confirmation, miss = None, ""
        try:
            confirmation = _model_confirmation(fp_a, fp_b, w.sigma, w.eta1)
        except TruncationCapExceeded as exc:
            miss = f", but the model confirmation cannot run: {exc}"
        else:
            worst = max(confirmation["unitarity"], confirmation["conjugation"])
            if not worst <= matcore.MODEL_CONFIRM_TOL:
                miss = (f", but the model confirmation {worst:.3e} exceeds "
                        f"MODEL_CONFIRM_TOL = {matcore.MODEL_CONFIRM_TOL:.1e}")
        return EquivalenceReport(
            verdict=VERDICT_NOT_EQUIVALENT if miss else VERDICT_EQUIVALENT,
            conclusive=not miss, reason="both invariant halves hold" + miss,
            fstar_residual=fstar_residual, coincidence=coincidence,
            model_confirmation=confirmation)
    if not fstar_ok and not coincidence.coincide:
        reason = "fundamental operators and characteristic functions both fail"
    elif not fstar_ok:
        reason = "adjoint-side fundamental operators are not intertwined"
    else:
        reason = "characteristic functions do not coincide"
    return EquivalenceReport(
        verdict=VERDICT_NOT_EQUIVALENT, conclusive=False,
        reason=reason + " under this witness",
        fstar_residual=fstar_residual, coincidence=coincidence)


def _trace_words(m: np.ndarray, max_len: int) -> np.ndarray:
    """Traces of all words in m and its adjoint up to max_len letters.

    Words run by length, then in ``itertools.product`` order over (m, m*).
    A word of length L + 1 is its prefix times one letter, so one stacked
    product per length builds them all.
    """
    r = m.shape[0]
    letters = np.stack([m, matcore.dagger(m)])
    prods, traces = letters, [np.trace(letters, axis1=1, axis2=2)]
    for length in range(2, max_len + 1):
        # explicit shape: a rank-zero m has no -1 to infer
        prods = (prods[:, None] @ letters[None]).reshape(2 ** length, r, r)
        traces.append(np.trace(prods, axis1=1, axis2=2))
    return np.concatenate(traces)


@dataclass(frozen=True)
class ScreenResult:
    """Outcome of the trace-word screen.

    ``mismatch`` True is conclusive: no unitary can relate the two pairs.
    ``worst_word`` spells the offending word, letter a for the operator and
    b for its adjoint, prefixed by which fundamental operator it is over.
    """

    max_gap: float
    mismatch: bool
    worst_word: str


def trace_word_screen(fp_a: FundamentalPair, fp_b: FundamentalPair
                      ) -> ScreenResult:
    """Compare unitary-invariant trace words of the fundamental operators.

    Words in each operator and its adjoint up to SCREEN_MAX_LEN letters are
    invariant under unitary conjugation, so any gap beyond tolerance rules
    out equivalence conclusively.  Agreement proves nothing.
    """
    if (fp_a.f.shape != fp_b.f.shape
            or fp_a.f_star.shape != fp_b.f_star.shape):
        return ScreenResult(max_gap=float("inf"), mismatch=True,
                            worst_word="rank")
    max_len = matcore.SCREEN_MAX_LEN
    words = [tag + "".join(w) for tag in ("f:", "f_star:")
             for length in range(1, max_len + 1)
             for w in itertools.product("ab", repeat=length)]
    ta, tb = (np.concatenate([_trace_words(fp.f, max_len),
                              _trace_words(fp.f_star, max_len)])
              for fp in (fp_a, fp_b))
    # hypot is Python's complex abs to the last bit; np.abs is not
    mod_a, mod_b, mod_d = (np.hypot(t.real, t.imag) for t in (ta, tb, ta - tb))
    gaps = mod_d / np.maximum(1.0, np.maximum(mod_a, mod_b))
    k = int(np.argmax(gaps))  # the first largest gap, in word order
    max_gap = float(gaps[k])
    return ScreenResult(max_gap=max_gap, mismatch=max_gap > matcore.SCREEN_TOL,
                        worst_word=words[k] if max_gap > 0.0 else "")


def _reduced_system(pair_a: GammaPair, pair_b: GammaPair, v_a: np.ndarray,
                    v_b: np.ndarray) -> np.ndarray:
    """The 4n^2 x n system R d = 0 of D X~_A = X~_B D for X in {S, P, S*, P*},
    with D = diag(d) and X~ = V* X V on the columns of ``v_a`` and ``v_b``:
    row (k, l) of each block is d_k X~_A[k, l] - X~_B[k, l] d_l."""
    eye = np.eye(pair_a.n)
    t_a, t_b = ([matcore.restrict(v, pair.s), matcore.restrict(v, pair.p)]
                for v, pair in ((v_a, pair_a), (v_b, pair_b)))
    t_a, t_b = (np.stack(t + [matcore.dagger(m) for m in t]) for t in (t_a, t_b))
    return (t_a[..., None] * eye[:, None]
            - t_b[..., None] * eye).reshape(-1, pair_a.n)


def _hermitian_mix(pair: GammaPair) -> np.ndarray:
    """h = (M + M*) / 2 with M = a S + b P, (a, b) = _MIX."""
    m = _MIX[0] * pair.s + _MIX[1] * pair.p
    return 0.5 * (m + matcore.dagger(m))


def _tau(n: int) -> float:
    """WITNESS_UNITARY_TOL + 2 n eps: the gate's bound on the computed
    unitarity defect of an n x n matrix plus its rounding.  A matrix X that
    the gate passes has |X*X - I| <= tau, so |X| <= sqrt(1 + tau), its
    singular values are at least 1 - tau and |X|_F >= sqrt(n) (1 - tau)."""
    return matcore.WITNESS_UNITARY_TOL + 2 * n * _EPS


def _gate_terms(pair_a: GammaPair, pair_b: GammaPair) -> list[float]:
    """[g_S, g'_S, g_P, g'_P]: bounds on |X_B U - U X_A| (g_X) and on
    |X_B* U - U X_A*| (g'_X), spectral norms, for X in {S, P} and every U
    that passes the gate of witness_from_ambient.

    g_X = t (1 + |X_A|)(1 + 8 n eps) + n (n + 1) eps sqrt(1 + tau)
    (|X_A| + |X_B|), t = AMBIENT_INTERTWINE_TOL and tau = _tau(n): the
    gate's bound on its computed residual plus the rounding of the two
    products, of their difference and of the spectral norm.  Since
    U*(X_B U - U X_A) U* = (U* X_B - X_A U*) + U* X_B (U U* - I)
    - (U*U - I) X_A U*, the adjoint residual is at most
    g'_X = (1 + tau) g_X + sqrt(1 + tau) tau (|X_A| + |X_B|).
    """
    n, tau = pair_a.n, _tau(pair_a.n)
    terms = []
    for a, b in ((pair_a.norm_s, pair_b.norm_s), (pair_a.norm_p, pair_b.norm_p)):
        g = (matcore.AMBIENT_INTERTWINE_TOL * (1.0 + a) * (1.0 + 8 * n * _EPS)
             + n * (n + 1) * _EPS * np.sqrt(1.0 + tau) * (a + b))
        terms += [g, (1.0 + tau) * g + np.sqrt(1.0 + tau) * tau * (a + b)]
    return terms


def _generic(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """basis z for a complex Gaussian z drawn from ``rng``: a generic element
    of the span of the columns of ``basis``, of the largest rank in that
    span with probability 1 (Schwartz-Zippel)."""
    k = basis.shape[1]
    return basis @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))


def _ambient_candidate(pair_a: GammaPair, pair_b: GammaPair,
                       rng: np.random.Generator
                       ) -> tuple[np.ndarray | None, dict]:
    """The search's one ambient candidate, or None, and the SearchResult
    fields of its spectral gap: ``ambient_gap`` and ``ambient_gap_bound``.

    A unitary conjugator solves M X_A = X_B M for X in {S, P, S*, P*}; for
    any invertible M satisfying all four, M M* commutes with the second
    pair, so the polar factor of M is itself a conjugator.  Let h = (M + M*)
    / 2, M = a S + b P (_MIX), with eigenvalues lam ascending and
    eigenvectors V from one eigh per pair.  A U that passes the gate has
    |U h_A - h_B U| <= delta = (|a| (g_S + g'_S) + |b| (g_P + g'_P)) / 2
    (_gate_terms), and its polar factor W, |W - U| <= tau (_tau), has
    |W h_A W* - h_B| <= delta + tau (|h_A| + |h_B|).  So by Weyl's
    inequality a gap max_k |lam_A,k - lam_B,k| above delta + tau m + rho,
    m = |a| (|S_A| + |S_B|) + |b| (|P_A| + |P_B|) >= |h_A| + |h_B| and
    rho = 2 n^2 eps m the rounding of h and of eigh (the symmetric QR
    algorithm is backward stable: Golub & Van Loan, Matrix Computations,
    ch. 8), refuses every U, and no system is formed.  Otherwise the
    candidate is diagonal in the two eigenbases, as a conjugator is where h
    has a simple spectrum (it maps each eigenspace of h_A onto that of h_B):
    its diagonal d solves the 4n^2 x n system R of _reduced_system, whose
    nullspace is taken at REL_RANK_TOL m, on the pairs' scale, so that the
    R of a normal pair or of n = 1, rounding alone, keeps its nullspace.
    M is V_B diag(d) V_A* for a generic d in it, drawn from ``rng``
    (_generic): invertible if any element is.  Repeated eigenvalues need no
    test of their own, since the gate of witness_from_ambient judges the
    candidate.  There is no candidate where the gap refuses or where R has
    no nullspace at that cut: near conjugates, whose passing U may need the
    part of V_B* U V_A off its diagonal that R leaves out, and sums of equal
    summands whose eigenbases mix them.  The defect family decides those.
    """
    n, tau = pair_a.n, _tau(pair_a.n)
    terms = _gate_terms(pair_a, pair_b)
    (lam_a, v_a), (lam_b, v_b) = (np.linalg.eigh(_hermitian_mix(pair))
                                  for pair in (pair_a, pair_b))
    a, b = np.abs(_MIX)
    m = (a * (pair_a.norm_s + pair_b.norm_s)
         + b * (pair_a.norm_p + pair_b.norm_p))
    rho = 2 * n * n * _EPS * m
    delta = 0.5 * (a * (terms[0] + terms[1]) + b * (terms[2] + terms[3]))
    fields = {"ambient_gap": float(np.max(np.abs(lam_a - lam_b))),
              "ambient_gap_bound": float(delta + tau * m + rho)}
    if fields["ambient_gap"] > fields["ambient_gap_bound"]:
        return None, fields
    basis = matcore.null_onb(_reduced_system(pair_a, pair_b, v_a, v_b),
                             matcore.REL_RANK_TOL * m)[0]
    if not basis.size:
        return None, fields
    return matcore.polar_unitary(
        (v_b * _generic(basis, rng)) @ matcore.dagger(v_a)), fields


def _defect_family(fp_a: FundamentalPair, fp_b: FundamentalPair,
                   count: int, rng: np.random.Generator
                   ) -> tuple[float, float, Iterator]:
    """sigma_min of the defect system M with sigma eliminated, the bound
    above which no (eta1, sigma) passes verify_equivalence
    (:func:`_defect_bound`), and the defect family: its candidates, pairs
    of unitaries (eta1, sigma), each built only when the search reads it.

    Column k of the stacked coincidence gaps is H e_k - T_B sigma e_k, with
    H = [eta1 Theta_A(z_j)]_j and T_B = [Theta_B(z_j)]_j, so with Q_perp the
    columns past r of the full QR of T_B, min over sigma of the gaps is
    |Q_perp* H|_F.  M holds the F_* rows over the rows of Q_perp* H, one
    (J r* - r) x r*^2 block per column k, written in place.

    The first eta is the least right singular vector of M.  Where the gate
    subspace, the span of the right singular vectors whose singular values
    are at most the bound, has two or more dimensions, ``count`` - 1 more
    follow: generic elements (_generic) of it, the directions x in which
    |M x| / |x| is as small as a passing vec eta1 keeps it.  Otherwise the
    family is its first point alone: above the bound the subspace is empty,
    and on one dimension every draw is a phase multiple of the first point,
    which verify_equivalence judges alike.  Each candidate is the pair of
    polar factors of eta and of its least-squares sigma against T_B.
    """
    r, r_star = fp_a.f.shape[0], fp_a.f_star.shape[0]
    # theta_grid[1] = 0.3 and theta_grid[25] = -0.6: one point per inner circle
    ta, tb = (fp.theta_grid[[1, 25]] for fp in (fp_a, fp_b))
    weight = 1.0 / (np.sqrt(min(r, r_star)) * matcore.COINCIDE_TOL)
    t_b = tb.reshape(-1, r)
    q_perp = np.linalg.qr(t_b, mode="complete")[0][:, r:]
    c = q_perp.shape[1]
    system = np.zeros((r_star * r_star + r * c, r_star * r_star),
                      dtype=complex)
    top = system[:r_star * r_star]
    # row (i, l), column (i', h): delta_ii' F_*A[h, l] - F_*B[i, i'] delta_lh
    idx, blocks = np.arange(r_star), top.reshape((r_star,) * 4)
    blocks[:, idx, :, idx] = -fp_b.f_star
    blocks[idx, :, idx, :] += fp_a.f_star.T
    top /= _fstar_bound(fp_a)
    # row (k, c), column (i, h): sum_j conj Q_perp[j, i, c] Theta_A(z_j)[h, k]
    np.einsum("jic,jhk->kcih", q_perp.conj().reshape(len(tb), r_star, c),
              weight * ta,
              out=system[r_star * r_star:].reshape(r, c, r_star, r_star))
    k_norm = np.sqrt(np.linalg.norm(top) ** 2 + weight ** 2 * (
        r_star * np.linalg.norm(ta) ** 2 + r * np.linalg.norm(tb) ** 2))
    bound = _defect_bound(fp_a, fp_b, ta, tb, len(system), k_norm)
    gate, sv, v = matcore.null_onb(system, bound)

    def points():
        for k in range(count if gate.shape[1] > 1 else 1):
            eta = _generic(gate, rng) if k else v[:, -1]
            eta = eta.reshape(r_star, r_star)
            sigma = np.linalg.lstsq(t_b, (eta @ ta).reshape(-1, r),
                                    rcond=None)[0]
            yield matcore.polar_unitary(eta), matcore.polar_unitary(sigma)

    return float(sv[-1]), bound, points()


def _defect_bound(fp_a: FundamentalPair, fp_b: FundamentalPair,
                  ta: np.ndarray, tb: np.ndarray, rows: int, k_norm: float
                  ) -> float:
    """The bound above which sigma_min of the defect system, ``rows`` high
    and of Frobenius norm ``k_norm`` before sigma is eliminated, refuses
    every (eta1, sigma).

    K is the weighted system in x = (vec eta1, vec sigma) with the rows of
    (eta1 F_*A - F_*B eta1) / f, f = _fstar_bound, and, at J = 2 points z_j
    of the coincidence grid, of (eta1 Theta_A(z_j) - Theta_B(z_j) sigma)
    / (sqrt(rho) c), rho = min(r, r*) and c = COINCIDE_TOL; Theta_A(z_j),
    Theta_B(z_j) and F_* are the very arrays verify_equivalence reads.  A
    witness it accepts has unitary eta1 and sigma to tau = _tau(max(r, r*)),
    so |vec eta1|_F >= sqrt(r*) (1 - tau), the floor, and |x| <=
    sqrt((r + r*)(1 + tau)), the reach.  Its computed F_* residual is at
    most f, so the exact one is at most f (1 + 2 r*^2 eps)
    + 2 r* sqrt(r* (1 + tau)) eps (|F_*A|_F + |F_*B|_F), with the rounding
    of the Frobenius norm and of the two products (|fl(A B) - A B| <=
    gamma_k |A||B| entrywise, Higham, section 3.5).  Each coincidence gap
    has computed spectral norm at most c, so the exact one is at most
    c (1 + 2 n eps) + 2 n sqrt(n (1 + tau)) eps (|Theta_A(z_j)|_F
    + |Theta_B(z_j)|_F), n = max(r, r*), and its Frobenius norm at most
    sqrt(rho) times that, the gap having rank at most rho.  Over their
    weights these are J + 1 terms whose 2-norm beta, sqrt(1 + J) without
    rounding, bounds |K x|.  Eliminating sigma (variable projection, Golub
    & Pereyra, SIAM J. Numer. Anal. 10, 1973) leaves min over sigma of
    |K x| = |M vec eta1|, M the (r*^2 + r (J r* - r)) x r*^2 system of
    _defect_family, 288 x 144 at r = r* = 12, so sigma_min(M) <=
    beta / floor.  Where T_B is rank-deficient, Q_perp spans less than the
    complement of its range, which only lowers sigma_min(M): the bound
    holds.  To first order the computed sigma_min is exact for the M of
    some K + dK: the QR of T_B and of M, the products with Q_perp and the
    SVD of R are backward stable, and an error E in the rows Q_perp* H is
    the error Q_perp E in K.  Householder QR of K, m = ``rows`` x k = r*^2,
    has |dK|_F <= c m k u |K|_F to first order, c a small constant and
    u = eps / 2 (Higham, Accuracy and Stability of Numerical Algorithms,
    Thm. 19.4), and the SVD of R adds a backward error of order k u |K|
    (Golub & Van Loan, Matrix Computations, 8.6).  The slack 2 m k eps |K|_F
    = 4 m k u |K|_F covers both, and the rounding of K's entries, of lower
    order.  dK lies in the system before sigma is eliminated, so the
    argument runs through x: |(K + dK) x| <= beta + |dK|_F reach, and by
    Weyl's inequality the bound is (beta + slack reach) / floor.  The points
    are theta_grid[1] = 0.3 and theta_grid[25] = -0.6, one per inner circle:
    on the benchmark's near pairs sigma_min clears sqrt(1 + J) / sqrt(r*) by
    1.13 or more.
    """
    r, r_star = fp_a.f.shape[0], fp_a.f_star.shape[0]
    n, eps = max(r, r_star), _EPS
    tau = _tau(n)
    fro = np.linalg.norm
    # each block's gap over its weight, with the rounding of the gate
    terms = [1.0 + 2 * r_star * r_star * eps
             + 2 * r_star * np.sqrt(r_star * (1.0 + tau)) * eps
             * (fro(fp_a.f_star) + fro(fp_b.f_star)) / _fstar_bound(fp_a)]
    for a, b in zip(ta, tb):
        terms.append(1.0 + 2 * n * eps + 2 * n * np.sqrt(n * (1.0 + tau)) * eps
                     * (fro(a) + fro(b)) / matcore.COINCIDE_TOL)
    slack = 2 * rows * r_star * r_star * eps * k_norm
    return float((np.linalg.norm(terms)
                  + slack * np.sqrt((r + r_star) * (1.0 + tau)))
                 / (np.sqrt(r_star) * (1.0 - tau)))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the heuristic witness search.

    FOUND carries a witness that passed full verification.  DISTINCT means
    the trace screen or a structural mismatch ruled equivalence out, which
    is conclusive.  NOT_FOUND is inconclusive by design.  ``screen`` is
    always the trace-word screen of the two pairs.  ``ambient_gap`` is the
    largest gap between the eigenvalues of the two pairs' Hermitian mixes
    and ``ambient_gap_bound`` the bound above which it refuses every ambient
    candidate, both None for DISTINCT, which is decided before them; below
    it only a reduced system without nullspace on the pairs' scale leaves
    the ambient family empty.  ``defect_sigma_min`` and ``defect_bound`` are
    the same pair for the defect system in (eta1, sigma), built only once
    the ambient family has failed: None where the screen, differing
    dimensions or the ambient candidate decide.
    """

    status: str
    witness: Witness | None
    report: EquivalenceReport | None
    screen: ScreenResult
    restarts_used: int
    ambient_gap: float | None = None
    ambient_gap_bound: float | None = None
    defect_sigma_min: float | None = None
    defect_bound: float | None = None

    @property
    def refusals(self) -> list[tuple[str, float, float]]:
        """(test, value, bound) of each certificate that fired, in the
        order the search reads them: "ambient_gap", "defect_sigma_min"."""
        return [(test, value, bound) for test, value, bound in (
            ("ambient_gap", self.ambient_gap, self.ambient_gap_bound),
            ("defect_sigma_min", self.defect_sigma_min, self.defect_bound))
            if value is not None and value > bound]


def search_witness(fp_a: FundamentalPair, fp_b: FundamentalPair,
                   restarts: int = matcore.SEARCH_RESTARTS, seed: int = 0
                   ) -> SearchResult:
    """Heuristic search for an equivalence witness.

    The conclusive trace screen runs first.  Candidates then come from two
    families: at most one ambient candidate, compressed to the defect spaces
    by witness_from_ambient, and the defect family on (eta1, sigma)
    directly.  Every candidate must pass verify_equivalence before it is
    returned, and a refused one still counts as used.  NOT_FOUND reports
    the candidate with the smallest miss, the larger of its two residuals
    over their tolerances.  A candidate that passes both invariant halves
    but whose model confirmation meets the truncation cap ends the search:
    the cap depends only on the two pairs, so every later candidate would
    meet it.

    The ambient candidate (_ambient_candidate) is read off the eigenbases of
    a Hermitian mix of each pair in O(n^3): the polar factor of a generic
    element of the reduced system's nullspace on the pairs' scale, a
    conjugator whenever one exists and the mix has a simple spectrum, drawn
    first from the search's generator.  There is none where the spectral gap
    of the mixes proves that no matrix passes the gate of
    witness_from_ambient, and none where the reduced system has no
    nullspace.  Once the ambient family has failed, the defect system is
    factored once (_defect_family).  Its candidates, each built when the
    search reads it, are the polar factors of the least right singular
    vector, with its least-squares sigma, and then, where its gate subspace
    has two or more dimensions, up to restarts - 1 generic elements of it
    drawn from the generator, each with its sigma; the subspace is empty
    where sigma_min exceeds ``defect_bound`` (_defect_bound) and so proves
    that no pair of unitaries passes verify_equivalence.  The ambient family
    counts as ``restarts`` used candidates unless it is the witness, and so
    does the defect family, however few candidates it has, so
    ``restarts_used`` is 1 for an ambient find, restarts + k + 1 for the
    defect family's k-th candidate and 2 restarts for NOT_FOUND, except
    where the truncation cap ends the search: there it counts the candidates
    up to the one that met the cap.  Where the certificate fires, NOT_FOUND
    still reports a real nearest miss, the family's one candidate.

    No certificate yet decides the verdict: without a witness the search
    still ends NOT_FOUND, inconclusive (ROADMAP.md, items 1 and 2).
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    _require_pure(fp_a, fp_b)
    pair_a, pair_b = fp_a.pair, fp_b.pair
    # a mismatch includes any difference in defect ranks
    screen = trace_word_screen(fp_a, fp_b)
    if screen.mismatch or pair_a.n != pair_b.n:
        return SearchResult(status=SEARCH_DISTINCT, witness=None, report=None,
                            screen=screen, restarts_used=0)

    rng = np.random.default_rng(seed)
    u, ambient = _ambient_candidate(pair_a, pair_b, rng)

    certificate = {}  # sigma_min and bound, once the ambient family fails

    def candidates():
        """(restarts used, end point -> witness, end point) in restart order;
        the defect family is built only once the ambient candidate is
        refused."""
        if u is not None:
            yield 1, lambda m: witness_from_ambient(m, fp_a, fp_b)[0], (u,)
        defect_sigma_min, defect_bound, points = _defect_family(
            fp_a, fp_b, restarts, rng)
        certificate.update(defect_sigma_min=defect_sigma_min,
                           defect_bound=defect_bound)
        yield from ((restarts + k + 1, Witness, point)
                    for k, point in enumerate(points))

    def miss(rep: EquivalenceReport) -> float:
        return max(rep.fstar_residual / _fstar_bound(fp_a),
                   rep.coincidence.max_residual / matcore.COINCIDE_TOL)

    nearest = None  # the first refused report of the smallest miss
    for used, end, point in candidates():
        try:
            witness = end(*point)
        except (NotIntertwining, ValueError):
            continue
        report = verify_equivalence(fp_a, fp_b, witness)
        if report.equivalent:
            return SearchResult(status=SEARCH_FOUND, witness=witness,
                                report=report, screen=screen,
                                restarts_used=used, **ambient,
                                **certificate)
        if nearest is None or miss(report) < miss(nearest):
            nearest = report
        if (report.model_confirmation is None and report.coincidence.coincide
                and report.fstar_residual <= _fstar_bound(fp_a)):
            break  # the truncation cap: it holds for every later candidate
    else:
        used = 2 * restarts
    return SearchResult(status=SEARCH_NOT_FOUND, witness=None, report=nearest,
                        screen=screen, restarts_used=used, **ambient,
                        **certificate)
