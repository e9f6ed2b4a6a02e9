"""Complete unitary invariant for pure commuting pairs.

Two pure pairs are unitarily equivalent exactly when one unitary between
the adjoint-side defect spaces conjugates their adjoint-side fundamental
operators onto each other and realizes the coincidence of their
characteristic functions.  This module is verification-first: a Witness
carrying the defect unitaries is checked against both halves of the
invariant, and a model-level confirmation is reported on success.  The
witness search is a labeled heuristic whose only conclusive negative is the
trace-word screen.  Both of its candidate families run through one polar
ascent, one batched polar step per update for a whole block of starts;
each update applies one linear map, built once per search with row-major
vectorization (A X B).ravel() = kron(A, B.T) x, one product per start.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import matcore
from .charfn import CoincidenceResult, coincide_check
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
    an inconclusive NOT_EQUIVALENT whose reason names the cap.
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
            confirmation = _model_confirmation(fp_a, fp_b, w.eta1)
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


def _polar_ascent(ops: tuple[np.ndarray, ...], starts: tuple[np.ndarray, ...]
                  ) -> list[np.ndarray]:
    """SEARCH_ITERS sweeps of polar updates over the unknowns x_0, ..., x_m-1.

    ``starts`` holds one stack per unknown.  Unknown i becomes polar(ops[i]
    (x_i, x_i+1, ..., x_i-1)) from the others' latest values.  Every start
    runs every sweep, one batched polar step per unknown, so each follows
    bitwise the iterates it follows alone.
    """
    cur = list(starts)
    for _ in range(matcore.SEARCH_ITERS):
        for i, op in enumerate(ops):
            x = np.concatenate([c.reshape(len(c), -1) for c in cur[i:] + cur[:i]], 1)
            cur[i] = matcore.polar_unitary(_apply(op, x).reshape(cur[i].shape))
    return cur


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
    defect spaces, and defect-level alternation on (eta1, sigma) directly.
    Every candidate must pass verify_equivalence before it is returned, and
    a refused one still counts as used.  NOT_FOUND reports the candidate
    with the smallest miss, the larger of its two residuals over their
    tolerances.

    The first ambient candidate is the warm start of _intertwiner_start,
    checked as drawn: the polar factor of a generic joint intertwiner, which
    is a conjugator whenever one exists.  Each family then runs its
    remaining starts in blocks of at most BATCH_BYTES of iterates, every
    start for all SEARCH_ITERS sweeps.  Each start follows exactly its own
    iterates, and starts are drawn and verified in restart order, so the
    result does not depend on the blocks.
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
    n, r, r_star = pair_a.n, fp_a.f.shape[0], fp_a.f_star.shape[0]
    warm = _intertwiner_start(pair_a, pair_b, rng)

    def defect_maps():
        # K = sum_j kron(Theta_B(z_j), conj Theta_A(z_j)), the map of sigma ->
        # sum_j Theta_B sigma Theta_A*, over every other coincidence grid point
        ta, tb = fp_a.theta_grid[1::2], fp_b.theta_grid[1::2]
        k_theta = np.tensordot(tb, ta.conj(), axes=(0, 0)).transpose(
            0, 2, 1, 3).reshape(r_star * r_star, r * r)
        return (np.hstack([_conj_map((fp_b.f_star, fp_a.f_star)), k_theta]),
                np.hstack([_conj_map((fp_b.f, fp_a.f)),
                           matcore.dagger(k_theta)]))

    def defect_start(k):
        if k == 0:
            return np.eye(r_star, dtype=complex), np.eye(r, dtype=complex)
        sigma = matcore.haar_unitary(r, rng)
        return matcore.haar_unitary(r_star, rng), sigma

    def ambient_witness(u):
        return witness_from_ambient(u, fp_a, fp_b)[0]

    def candidates():
        """(end point -> witness, end point) in restart order; a block's
        ascent runs only once the candidates before it are refused."""
        if warm is not None:
            yield ambient_witness, (warm,)
        # maps, starts, bytes per start, start k, end point -> witness
        for maps, count, item_bytes, start, end in (
                (lambda: (_conj_map((pair_b.s, pair_a.s), (pair_b.p, pair_a.p)),),
                 restarts - (warm is not None), 16 * n * n,
                 lambda k: (np.eye(n, dtype=complex) if k == 0
                            else matcore.haar_unitary(n, rng),),
                 ambient_witness),
                (defect_maps, restarts, 16 * (r * r + r_star * r_star),
                 defect_start, Witness)):
            blocks = matcore.batches(count, item_bytes)
            ops = maps() if blocks else None
            for block in blocks:
                starts = [start(k) for k in range(block.start, block.stop)]
                ends = _polar_ascent(ops, tuple(map(np.stack, zip(*starts))))
                yield from ((end, point) for point in zip(*ends))

    misses, used = [], 0
    for end, point in candidates():
        used += 1
        try:
            witness = end(*point)
        except (NotIntertwining, ValueError):
            continue
        report = verify_equivalence(fp_a, fp_b, witness)
        if report.equivalent:
            return SearchResult(status=SEARCH_FOUND, witness=witness,
                                report=report, screen=screen,
                                restarts_used=used)
        misses.append(report)

    def miss(rep: EquivalenceReport) -> float:
        return max(rep.fstar_residual / _fstar_bound(fp_a),
                   rep.coincidence.max_residual / matcore.COINCIDE_TOL)

    return SearchResult(status=SEARCH_NOT_FOUND, witness=None,
                        report=min(misses, key=miss, default=None),
                        screen=screen, restarts_used=used)
