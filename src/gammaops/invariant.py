"""Complete unitary invariant for pure commuting pairs.

Two pure pairs are unitarily equivalent exactly when their adjoint-side
fundamental operators are unitarily equivalent and their characteristic
functions coincide.  This module is verification-first: a Witness carrying
the defect unitaries is checked against both halves of the invariant, and a
model-level confirmation is reported on success.  The witness search is a
labeled heuristic whose only conclusive negative is the trace-word screen;
its restarts run as stacks, one batched polar step per iteration for a
whole block of starts.  Each half-step applies one linear map, built once
per block with row-major vectorization (A X B).ravel() = kron(A, B.T) x,
to every start of the block, one product per start.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import matcore
from .charfn import CoincidenceResult, coincide_check
from .exceptions import DimensionMismatch, NotIntertwining, NotPure
from .fundamental import FundamentalPair
from .gamma_pair import GammaPair
from .model import auto_truncation, model_space

VERDICT_EQUIVALENT = "EQUIVALENT"
VERDICT_NOT_EQUIVALENT = "NOT_EQUIVALENT"

SEARCH_FOUND = "FOUND"
SEARCH_NOT_FOUND = "NOT_FOUND"
SEARCH_DISTINCT = "DISTINCT"


def unitarity_defect(u: np.ndarray) -> float:
    """|U*U - I| in operator norm, inf unless u is square; for square U it
    equals |UU* - I|, both being max |s^2 - 1| over the singular values s."""
    u = np.asarray(u, dtype=complex)
    if u.shape[0] != u.shape[1]:
        return float("inf")
    return matcore.op_norm(matcore.dagger(u) @ u - np.eye(u.shape[0]))


@dataclass(frozen=True)
class Witness:
    """Defect unitaries asserting equivalence of two pairs.

    ``eta1`` intertwines the adjoint-side fundamental operators, ``sigma``
    and ``sigma_star`` realize the coincidence of characteristic functions.
    For witnesses induced by an ambient unitary the two adjoint-side maps
    agree, so ``sigma_star`` is ``eta1``; independently supplied witnesses
    may keep them distinct.  Only :func:`witness_from_ambient`, which checks
    it, sets ``u_ambient``.  Every present matrix must be unitary.
    """

    eta1: np.ndarray
    sigma: np.ndarray
    sigma_star: np.ndarray
    u_ambient: np.ndarray | None = None

    def __post_init__(self):
        tied = self.sigma_star is self.eta1
        for field in ("eta1", "sigma", "sigma_star", "u_ambient"):
            m = getattr(self, field)
            if m is None:
                continue
            if field == "sigma_star" and tied:
                object.__setattr__(self, field, self.eta1)
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
    than assumed.  The adjoint-side compression serves both as eta1 and as
    sigma_star; for ambient-induced witnesses these coincide exactly.
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
    return (Witness(eta1=eta1, sigma=sigma, sigma_star=eta1, u_ambient=u),
            residuals)


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
                        eta1: np.ndarray) -> dict:
    """Compression of I (x) eta1 between the two model spaces.

    For a true witness this compression is the unitary conjugating the model
    operators of A onto those of B, so its unitarity defect and conjugation
    residual certify equivalence end to end, not only at the defect level.
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
    return {
        "n_trunc": float(n_common),
        "unitarity": unitarity_defect(u_hat),
        "conjugation": conj,
    }


def _require_pure(fp_a: FundamentalPair, fp_b: FundamentalPair) -> None:
    for label, fp in (("first", fp_a), ("second", fp_b)):
        if not fp.pair.flags.pure:
            raise NotPure(f"{label} pair is not pure; the invariant is "
                          "stated for pure pairs only")


def verify_equivalence(fp_a: FundamentalPair, fp_b: FundamentalPair,
                       w: Witness) -> EquivalenceReport:
    """Check a witness against both halves of the complete invariant.

    Verdict is EQUIVALENT exactly when eta1 intertwines the adjoint-side
    fundamental operators to FSTAR_MATCH_TOL, the characteristic functions
    coincide under (sigma, sigma_star) to COINCIDE_TOL, and the model-level
    unitary induced by eta1 has unitarity defect and conjugation residual
    at most MODEL_CONFIRM_TOL.  A confirmation above that bound gives an
    inconclusive NOT_EQUIVALENT that still carries the confirmation.
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
    for field, side in (("eta1", 1), ("sigma", 0), ("sigma_star", 1)):
        shape = getattr(w, field).shape
        if shape != (ranks_b[side], ranks_a[side]):
            raise DimensionMismatch(
                f"{field} has shape {shape}, expected "
                f"{(ranks_b[side], ranks_a[side])}")
    fstar_residual = matcore.fro_norm(
        w.eta1 @ fp_a.f_star - fp_b.f_star @ w.eta1)
    fstar_ok = fstar_residual <= matcore.FSTAR_MATCH_TOL * (1.0 + fp_a.norm_f_star)
    coincidence = coincide_check(fp_a, fp_b, w.sigma, w.sigma_star)
    if fstar_ok and coincidence.coincide:
        confirmation = _model_confirmation(fp_a, fp_b, w.eta1)
        worst = max(confirmation["unitarity"], confirmation["conjugation"])
        confirmed = worst <= matcore.MODEL_CONFIRM_TOL
        return EquivalenceReport(
            verdict=VERDICT_EQUIVALENT if confirmed else VERDICT_NOT_EQUIVALENT,
            conclusive=confirmed,
            reason=("both invariant halves hold" if confirmed else
                    f"both invariant halves hold, but the model confirmation "
                    f"{worst:.3e} exceeds MODEL_CONFIRM_TOL = "
                    f"{matcore.MODEL_CONFIRM_TOL:.1e}"),
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


def _intertwiner_system(pair_a: GammaPair, pair_b: GammaPair) -> np.ndarray:
    """The 4n^2 x n^2 system K x = 0 of K X_A = X_B K for X in {S, P, S*, P*}.

    Row-major vectorization: (A X).ravel() = kron(A, I) x and
    (X B).ravel() = kron(I, B.T) x.
    """
    eye = np.eye(pair_a.n, dtype=complex)
    return np.vstack([np.kron(x_b, eye) - np.kron(eye, x_a.T)
                      for x_a, x_b in (
                          (pair_a.s, pair_b.s), (pair_a.p, pair_b.p),
                          (matcore.dagger(pair_a.s), matcore.dagger(pair_b.s)),
                          (matcore.dagger(pair_a.p), matcore.dagger(pair_b.p)))])


def _intertwiner_start(pair_a: GammaPair, pair_b: GammaPair,
                       rng: np.random.Generator) -> np.ndarray | None:
    """Unitary polar factor of a generic joint *-intertwiner, or None.

    A unitary conjugator solves K X_A = X_B K for X in {S, P, S*, P*}; for
    any invertible K satisfying all four, K K* commutes with the second
    pair, so the polar factor is itself a conjugator.  K is a random
    combination of a nullspace basis: invertible if any element is
    (Schwartz-Zippel), and a unitary start anyway.
    """
    basis = matcore.null_onb(_intertwiner_system(pair_a, pair_b))
    if basis.size == 0:
        return None
    dim = basis.shape[1]
    vec = basis @ (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    return matcore.polar_unitary(vec.reshape(pair_a.n, pair_a.n))


def _conj_map(*pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Row-major matrix of x -> sum over (b, a) in pairs of b x a* + b* x a.

    (B X C).ravel() = kron(B, C.T) x; the terms are added left to right.
    """
    return sum(term for b, a in pairs
               for term in (np.kron(b, a.conj()), np.kron(matcore.dagger(b), a.T)))


def _apply(op: np.ndarray, x: np.ndarray) -> np.ndarray:
    """op @ x_k.ravel() for each matrix x_k of the stack x, as rows.

    One product per start, so a start gets bitwise the same row in any stack.
    """
    return (x.reshape(len(x), 1, -1) @ op.T).reshape(len(x), -1)


def _ambient_procrustes(pair_a: GammaPair, pair_b: GammaPair,
                        u0: np.ndarray) -> np.ndarray:
    """Alternating polar iteration toward u S_A = S_B u, u P_A = P_B u.

    Each step is the polar factor of S_B u S_A* + S_B* u S_A + P_B u P_A*
    + P_B* u P_A, applied as one n^2 x n^2 map built once per call.
    ``u0`` is a stack (s, n, n) of starts, iterated together by one batched
    polar step per iteration.  Each start stops on its own step size, so it
    follows exactly the iterates it follows alone.
    """
    op = _conj_map((pair_b.s, pair_a.s), (pair_b.p, pair_a.p))
    stop = matcore.PROCRUSTES_STOP_TOL * (
        1.0 + pair_a.norm_s + pair_a.norm_p)
    u = u0.copy()
    live = np.arange(len(u))
    for _ in range(matcore.SEARCH_ITERS):
        cur = u[live]
        u_next = matcore.polar_unitary(_apply(op, cur).reshape(cur.shape))
        u[live] = u_next
        step = np.linalg.norm((u_next - cur).reshape(len(cur), -1), axis=1)
        live = live[step > stop]
        if not live.size:
            break
    return u


def _defect_alternation(fp_a: FundamentalPair, fp_b: FundamentalPair,
                        samples: tuple[np.ndarray, np.ndarray],
                        sigma0: np.ndarray, eta0: np.ndarray,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Alternating polar updates for (sigma, eta1) with sigma_star tied to eta1.

    Each step maximizes alignment of the fundamental-operator conjugation
    and of the characteristic-function samples, holding the other unknown
    fixed; both updates keep the iterates exactly unitary.  ``samples`` is
    the pair of stacks (Theta_A(z_j), Theta_B(z_j)), and ``sigma0``, ``eta0``
    are stacks of starts, iterated together by one batched polar step per
    update.  The samples enter through K = sum_j kron(Theta_B(z_j),
    conj Theta_A(z_j)), the map of sigma -> sum_j Theta_B sigma Theta_A*;
    the eta step applies [map of F_*B, F_*A | K] to (eta, sigma) and the
    sigma step [map of F_B, F_A | K*] to (sigma, eta), both built once per
    call.
    """
    ta, tb = samples
    r, r_star = sigma0.shape[-1], eta0.shape[-1]
    k_theta = np.tensordot(tb, ta.conj(), axes=(0, 0)).transpose(
        0, 2, 1, 3).reshape(r_star * r_star, r * r)
    eta_op = np.hstack([_conj_map((fp_b.f_star, fp_a.f_star)), k_theta])
    sigma_op = np.hstack([_conj_map((fp_b.f, fp_a.f)),
                          matcore.dagger(k_theta)])
    sigma, eta = sigma0, eta0
    count = len(sigma0)
    for _ in range(matcore.SEARCH_ITERS):
        x = np.hstack([eta.reshape(count, -1), sigma.reshape(count, -1)])
        eta = matcore.polar_unitary(_apply(eta_op, x).reshape(eta.shape))
        x = np.hstack([sigma.reshape(count, -1), eta.reshape(count, -1)])
        sigma = matcore.polar_unitary(_apply(sigma_op, x).reshape(sigma.shape))
    return sigma, eta


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the heuristic witness search.

    FOUND carries a witness that passed full verification.  DISTINCT means
    the trace screen or a structural mismatch ruled equivalence out, which
    is conclusive.  NOT_FOUND is inconclusive by design.  ``screen`` is
    always the trace-word screen of the two pairs.
    """

    status: str
    witness: Witness | None
    report: EquivalenceReport | None
    screen: ScreenResult
    restarts_used: int


def search_witness(fp_a: FundamentalPair, fp_b: FundamentalPair,
                   restarts: int = matcore.SEARCH_RESTARTS, seed: int = 0
                   ) -> SearchResult:
    """Heuristic search for an equivalence witness.

    The conclusive trace screen runs first.  Candidates then come from two
    families: ambient alternating Procrustes iterations compressed to the
    defect spaces, and defect-level alternation on (sigma, eta1) directly.
    Every candidate must pass verify_equivalence before it is returned;
    restart order is deterministic for a given seed.  NOT_FOUND reports the
    candidate with the smallest miss, the larger of its two residuals over
    their tolerances.

    In each family the first start runs alone, since a conjugate is usually
    found there; the remaining starts run as stacks, in blocks of at most
    BATCH_BYTES of iterates, so memory stays bounded for any ``restarts``.
    Each start follows exactly the iterates it follows alone, Haar starts
    are drawn block by block in restart order, and candidates are verified
    in restart order, so the result does not depend on the blocks.
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
    n = pair_a.n
    r, r_star = fp_a.f.shape[0], fp_a.f_star.shape[0]

    def blocks(item_bytes: int) -> list[range]:
        # the first start alone, then the rest in blocks of BATCH_BYTES
        return [range(1)] + [range(b.start + 1, b.stop + 1) for b in
                             matcore.batches(restarts - 1, item_bytes)]

    def ambient_candidates():
        # one restart leaves no room for a warm start: skip the nullspace
        warm = _intertwiner_start(pair_a, pair_b, rng) if restarts > 1 else None
        starts = [s for s in (warm, np.eye(n, dtype=complex)) if s is not None]
        for block in blocks(16 * n * n):
            u0 = np.stack([starts[k] if k < len(starts)
                           else matcore.haar_unitary(n, rng) for k in block])
            for u in _ambient_procrustes(pair_a, pair_b, u0):
                try:
                    witness, _ = witness_from_ambient(u, fp_a, fp_b)
                except (NotIntertwining, ValueError):
                    witness = None
                yield witness

    def defect_candidates():
        # every other point of the coincidence grid: radii 0.3, 0.6, 0.9
        # by eight angles
        samples = (fp_a.theta_grid[1::2], fp_b.theta_grid[1::2])
        for block in blocks(16 * (r * r + r_star * r_star)):
            pairs = [(np.eye(r, dtype=complex), np.eye(r_star, dtype=complex))
                     if k == 0 else (matcore.haar_unitary(r, rng),
                                     matcore.haar_unitary(r_star, rng))
                     for k in block]
            sigmas, etas = _defect_alternation(
                fp_a, fp_b, samples, np.stack([s for s, _ in pairs]),
                np.stack([e for _, e in pairs]))
            for sigma, eta in zip(sigmas, etas):
                try:
                    witness = Witness(eta1=eta, sigma=sigma, sigma_star=eta)
                except ValueError:
                    witness = None
                yield witness

    misses: list[EquivalenceReport] = []
    used = 0
    for witness in itertools.chain(ambient_candidates(), defect_candidates()):
        used += 1
        if witness is None:
            continue
        report = verify_equivalence(fp_a, fp_b, witness)
        if report.equivalent:
            return SearchResult(status=SEARCH_FOUND, witness=witness,
                                report=report, screen=screen,
                                restarts_used=used)
        misses.append(report)

    fstar_bound = matcore.FSTAR_MATCH_TOL * (1.0 + fp_a.norm_f_star)

    def miss(rep: EquivalenceReport) -> float:
        return max(rep.fstar_residual / fstar_bound,
                   rep.coincidence.max_residual / matcore.COINCIDE_TOL)

    return SearchResult(status=SEARCH_NOT_FOUND, witness=None,
                        report=min(misses, key=miss, default=None),
                        screen=screen, restarts_used=used)
