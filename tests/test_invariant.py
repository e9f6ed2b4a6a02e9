import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import gammaops as g
from gammaops import matcore
from gammaops.exceptions import DimensionMismatch, NotIntertwining, NotPure
from gammaops import invariant
from gammaops.invariant import (SEARCH_DISTINCT, SEARCH_FOUND,
                                SEARCH_NOT_FOUND, VERDICT_EQUIVALENT,
                                VERDICT_NOT_EQUIVALENT)
from gammaops.matcore import (COINCIDE_TOL, FSTAR_MATCH_TOL,
                              MODEL_CONFIRM_TOL, SCREEN_TOL)


def _planted(n, seed, haar_seed, max_norm=0.75):
    """Fundamental pairs of a random pure pair and of a Haar conjugate."""
    pair_a = g.random_pure_gamma(n, seed=seed, max_norm=max_norm)
    rng = np.random.default_rng(haar_seed)
    u = matcore.haar_unitary(n, rng)
    ud = matcore.dagger(u)
    pair_b = g.validate(u @ pair_a.s @ ud, u @ pair_a.p @ ud)
    return g.solve_fundamental(pair_a), g.solve_fundamental(pair_b), u


def _solved(*pairs):
    return [g.solve_fundamental(pair) for pair in pairs]


def _two_sided_unitarity_defect(u):
    """Oracle: max(|U*U - I|, |UU* - I|), 0 for 0 x 0 and inf unless square."""
    if u.shape[0] != u.shape[1]:
        return float("inf")
    eye = np.eye(u.shape[0])
    return max(matcore.op_norm(matcore.dagger(u) @ u - eye),
               matcore.op_norm(u @ matcore.dagger(u) - eye))


def test_unitarity_defect_is_the_two_sided_defect():
    # one Gram product suffices: both sides are max |s^2 - 1| over the
    # singular values s of a square U
    rng = np.random.default_rng(21)
    cases = [np.zeros((0, 0)), np.zeros((2, 3))]
    for n in (1, 2, 5, 9):
        cases.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        cases.append(matcore.haar_unitary(n, rng) * (1.0 + 5e-9))
    for u in cases:
        want = _two_sided_unitarity_defect(u)
        got = invariant.unitarity_defect(u)
        assert got == want if not np.isfinite(want) else (
            abs(got - want) <= 1e-14 * max(1.0, want))
    assert invariant.unitarity_defect(np.zeros((0, 0))) == 0.0
    assert invariant.unitarity_defect(np.zeros((2, 3))) == float("inf")


def test_witness_rejects_non_unitary_blocks():
    with pytest.raises(ValueError):
        g.Witness(eta1=np.array([[1.1]]), sigma=np.eye(1))
    w = g.Witness(eta1=np.eye(2), sigma=np.eye(2))
    with pytest.raises(ValueError):
        w.eta1[0, 0] = 3.0


def test_witness_from_ambient_residuals_planted():
    for k in range(25):
        fp_a, fp_b, u = _planted(1 + k % 5, 4000 + k, 5000 + k)
        _, residuals = g.witness_from_ambient(u, fp_a, fp_b)
        assert set(residuals) == {"for_P", "for_P_star"}
        for res in residuals.values():
            assert res["unitarity"] <= 1e-10
            assert res["defect_intertwine"] <= 1e-8
            assert res["conjugation"] <= 1e-8


def test_defect_intertwine_matches_the_compressed_defects(ambient_oracles):
    # |V Q_A* D_A Q_A - Q_B* D_B Q_B V|, with each defect compressed to its basis
    defect = ambient_oracles["defect"]
    for k in range(10):
        fp_a, fp_b, u = _planted(1 + k % 5, 4130 + k, 4131 + k)
        _, residuals = g.witness_from_ambient(u, fp_a, fp_b)
        p_a, p_b = fp_a.pair.p, fp_b.pair.p
        for side, da, db, d_a, d_b in (
                ("for_P", fp_a.defect_p, fp_b.defect_p, defect(p_a), defect(p_b)),
                ("for_P_star", fp_a.defect_p_star, fp_b.defect_p_star,
                 defect(matcore.dagger(p_a)), defect(matcore.dagger(p_b)))):
            v = matcore.dagger(db.q) @ u @ da.q
            ref = matcore.fro_norm(v @ matcore.restrict(da.q, d_a)
                                   - matcore.restrict(db.q, d_b) @ v)
            assert abs(residuals[side]["defect_intertwine"] - ref) <= 1e-14


def test_witness_from_ambient_checks_unitarity_up_front():
    # a unitarity defect of 1e-8 is refused before any residual is computed
    fp_a, fp_b, u = _planted(3, 4140, 4141)
    with pytest.raises(ValueError, match="ambient map is not unitary"):
        g.witness_from_ambient(u * (1.0 + 5e-9), fp_a, fp_b)
    witness, _ = g.witness_from_ambient(u, fp_a, fp_b)
    assert np.array_equal(witness.u_ambient, u)


def test_witness_from_ambient_rejects_wrong_map():
    fp_a, fp_b, _ = _planted(3, 4100, 5100)
    rogue = matcore.haar_unitary(3, np.random.default_rng(99))
    with pytest.raises(NotIntertwining):
        g.witness_from_ambient(rogue, fp_a, fp_b)
    with pytest.raises(DimensionMismatch):
        g.witness_from_ambient(np.eye(2), fp_a, fp_b)
    with pytest.raises(ValueError):
        g.witness_from_ambient(1.5 * np.eye(3), fp_a, fp_b)


def test_witness_from_ambient_coherent():
    fp_a, fp_b, u = _planted(4, 4200, 5200)
    w, res = g.witness_from_ambient(u, fp_a, fp_b)
    # the adjoint-side block doubles as the coincidence unitary
    assert g.coincide_check(fp_a, fp_b, w.sigma, w.eta1).coincide
    assert res["for_P"]["conjugation"] <= 1e-8
    assert res["for_P_star"]["conjugation"] <= 1e-8


def test_verify_equivalence_planted():
    for k in range(10):
        fp_a, fp_b, u = _planted(1 + k % 4, 4300 + k, 5300 + k)
        w, _ = g.witness_from_ambient(u, fp_a, fp_b)
        rep = g.verify_equivalence(fp_a, fp_b, w)
        assert rep.verdict == VERDICT_EQUIVALENT
        assert rep.equivalent and rep.conclusive
        assert rep.fstar_residual <= 1e-8 * (1.0 + fp_a.pair.norm_s)
        assert rep.coincidence.coincide
        assert rep.coincidence.max_residual <= 1e-8
        assert rep.model_confirmation is not None
        assert rep.model_confirmation["conjugation"] <= MODEL_CONFIRM_TOL
        assert rep.model_confirmation["unitarity"] <= 1e-10


def test_verify_equivalence_gates_on_model_confirmation(monkeypatch):
    # both invariant halves hold, but a confirmation above its bound (here
    # zero) makes the verdict inconclusive, with the bound named
    fp_a, fp_b, u = _planted(3, 4310, 5310)
    w, _ = g.witness_from_ambient(u, fp_a, fp_b)
    monkeypatch.setattr(matcore, "MODEL_CONFIRM_TOL", 0.0)
    rep = g.verify_equivalence(fp_a, fp_b, w)
    assert rep.fstar_residual <= 1e-8 and rep.coincidence.coincide
    assert rep.verdict == VERDICT_NOT_EQUIVALENT
    assert not rep.equivalent and not rep.conclusive
    assert "MODEL_CONFIRM_TOL" in rep.reason
    assert max(rep.model_confirmation["unitarity"],
               rep.model_confirmation["conjugation"]) > 0.0


def test_verify_equivalence_rejects_bad_witness():
    fp_a, fp_b, _ = _planted(3, 4400, 5400)
    r_star = fp_a.f_star.shape[0]
    r = fp_a.f.shape[0]
    wrong = g.Witness(eta1=np.eye(r_star), sigma=np.eye(r))
    rep = g.verify_equivalence(fp_a, fp_b, wrong)
    # identity blocks almost surely fail for a haar-rotated copy
    assert rep.verdict == VERDICT_NOT_EQUIVALENT
    assert not rep.conclusive


def test_verify_equivalence_structural_rank_mismatch():
    # a gamma-unitary direct summand changes the defect rank
    pure = g.random_pure_gamma(2, seed=4500, max_norm=0.75)
    s = np.block([[pure.s, np.zeros((2, 1))], [np.zeros((1, 2)), 0.9 * np.eye(1)]])
    p = np.block([[pure.p, np.zeros((2, 1))], [np.zeros((1, 2)), 0.2 * np.eye(1)]])
    other = g.validate(s, p)
    probe = g.random_pure_gamma(3, seed=4501, max_norm=0.75)
    fp_o, fp_p = g.solve_fundamental(other), g.solve_fundamental(probe)
    if fp_o.f_star.shape != fp_p.f_star.shape:
        w = g.Witness(eta1=np.eye(fp_p.f_star.shape[0]),
                      sigma=np.eye(fp_p.f.shape[0]))
        rep = g.verify_equivalence(fp_p, fp_o, w)
        assert rep.verdict == VERDICT_NOT_EQUIVALENT
        assert rep.conclusive


def test_verify_equivalence_requires_purity():
    gu = g.random_gamma_unitary(2, seed=4600)
    pure = g.random_pure_gamma(2, seed=4601)
    w = g.Witness(eta1=np.eye(2), sigma=np.eye(2))
    with pytest.raises(NotPure):
        g.verify_equivalence(*_solved(gu, pure), w)


def test_trace_screen_scalar_frozen_gap():
    pair_a = g.validate(np.array([[1.0]]), np.array([[0.25]]))
    pair_b = g.validate(np.array([[1.0]]), np.array([[0.5]]))
    res = g.trace_word_screen(*_solved(pair_a, pair_b))
    assert res.mismatch
    # fundamental operators are 0.8 and 2/3; the gap peaks at word length 3
    assert res.max_gap == pytest.approx(0.8 ** 3 - (2.0 / 3.0) ** 3, abs=1e-12)


def test_trace_screen_unitary_invariant():
    rng = np.random.default_rng(20)
    for k in range(10):
        fp_a, fp_b, _ = _planted(1 + k % 5, 4700 + k, 5700 + k)
        res = g.trace_word_screen(fp_a, fp_b)
        assert not res.mismatch
        assert res.max_gap <= 1e-10


def test_trace_screen_rank_mismatch():
    fp_a = g.solve_fundamental(g.random_pure_gamma(1, seed=4800))
    fp_b = g.solve_fundamental(g.random_pure_gamma(3, seed=4801))
    res = g.trace_word_screen(fp_a, fp_b)
    assert res.mismatch and res.max_gap == float("inf")
    assert res.worst_word == "rank"


def test_trace_screen_matches_the_per_word_oracle(screen_oracle):
    # planted, independent, identical, near and rank-zero pairs: the
    # screen's gap and worst word are exactly those of the word-by-word loop
    for n in range(1, 13):
        fp = g.solve_fundamental(g.random_pure_gamma(n, seed=7000 + n))
        other = g.solve_fundamental(g.random_pure_gamma(n, seed=7100 + n))
        unitary = _solved(g.random_gamma_unitary(n, seed=7200 + n),
                          g.random_gamma_unitary(n, seed=7300 + n))
        cases = [_planted(n, 7400 + n, 7500 + n)[:2], (fp, other), (fp, fp),
                 _near(n, 7600 + n), unitary]
        for fp_a, fp_b in cases:
            assert g.trace_word_screen(fp_a, fp_b) == screen_oracle(fp_a, fp_b)
        assert g.trace_word_screen(fp, fp).worst_word == ""
        assert unitary[0].f.shape == (0, 0)
        assert g.trace_word_screen(*unitary).worst_word == ""


def test_search_witness_planted_and_self():
    for k, n in enumerate((1, 2, 3)):
        fp_a, fp_b, _ = _planted(n, 4900 + k, 5900 + k)
        out = g.search_witness(fp_a, fp_b, restarts=8, seed=k)
        assert out.status == SEARCH_FOUND
        assert out.report is not None and out.report.equivalent
        assert out.witness is not None
        assert g.unitarity_defect(out.witness.eta1) <= 1e-10
    fp = g.solve_fundamental(g.random_pure_gamma(3, seed=4950))
    self_out = g.search_witness(fp, fp, restarts=4, seed=0)
    assert self_out.status == SEARCH_FOUND
    assert self_out.restarts_used <= 1


def test_search_witness_distinct_scalars():
    pair_a = g.validate(np.array([[1.0]]), np.array([[0.25]]))
    pair_b = g.validate(np.array([[1.0]]), np.array([[0.5]]))
    out = g.search_witness(*_solved(pair_a, pair_b), restarts=4, seed=0)
    assert out.status == SEARCH_DISTINCT
    assert out.screen is not None and out.screen.mismatch


def test_search_witness_dim_mismatch_distinct():
    out = g.search_witness(*_solved(g.random_pure_gamma(2, seed=4960),
                                    g.random_pure_gamma(3, seed=4961)),
                           restarts=2, seed=0)
    assert out.status == SEARCH_DISTINCT


def test_search_witness_screen_blind_pair_not_found():
    # same Blaschke data for P but different S: screen passes on the F side
    # only if traces agree; build a pair where they do not certify distinct
    pair_a = g.validate(np.array([[1.2]]), np.array([[0.3]]))
    pair_b = g.validate(np.array([[1.2j]]), np.array([[0.3j]]))
    out = g.search_witness(*_solved(pair_a, pair_b), restarts=3, seed=1)
    assert out.status in (SEARCH_DISTINCT, SEARCH_NOT_FOUND)
    assert out.report is None or not out.report.equivalent


def _near(n, seed):
    """Conjugate of (S + eps P, P): the screen passes, no witness exists."""
    pair = g.random_pure_gamma(n, seed=seed, max_norm=0.8)
    u = matcore.haar_unitary(n, np.random.default_rng(seed + 1))
    ud = matcore.dagger(u)
    fp_a = g.solve_fundamental(pair)

    def near(eps):
        return g.solve_fundamental(
            g.validate(u @ (pair.s + eps * pair.p) @ ud, u @ pair.p @ ud))

    gap = g.trace_word_screen(fp_a, near(1e-6)).max_gap
    return fp_a, near(1e-6 * 0.4 * SCREEN_TOL / gap)


def test_search_not_found_reports_closest_candidate(monkeypatch):
    fp_a, fp_b = _near(3, 5102)
    reports = []

    def recorded(*args):
        rep = verify(*args)
        reports.append(rep)
        return rep

    verify = invariant.verify_equivalence
    monkeypatch.setattr(invariant, "verify_equivalence", recorded)
    out = g.search_witness(fp_a, fp_b, restarts=4, seed=0)
    assert out.status == SEARCH_NOT_FOUND
    fstar_bound = FSTAR_MATCH_TOL * (1.0 + matcore.op_norm(fp_a.f_star))

    def miss(rep):
        return max(rep.fstar_residual / fstar_bound,
                   rep.coincidence.max_residual / COINCIDE_TOL)

    assert len(reports) > 1
    assert miss(out.report) == min(miss(rep) for rep in reports)


def test_search_witness_rejects_restarts_below_one():
    fp = g.solve_fundamental(g.random_pure_gamma(2, seed=4103))
    for restarts in (0, -3):
        with pytest.raises(ValueError):
            g.search_witness(fp, fp, restarts=restarts, seed=0)


def _record_stacks(monkeypatch, maps=None):
    """Record the stack size each search family's polar ascent receives,
    the ambient family having one unknown and the defect family two; the
    maps of each call are appended to ``maps`` when it is given."""
    sizes = {"ambient": [], "defect": []}
    kernel = invariant._polar_ascent

    def recorded(ops, starts):
        family = "ambient" if len(ops) == 1 else "defect"
        sizes[family].append(len(starts[0]))
        if maps is not None:
            maps.append((family, ops))
        return kernel(ops, starts)

    monkeypatch.setattr(invariant, "_polar_ascent", recorded)
    return sizes


def _search_maps(monkeypatch, fp_a, fp_b):
    """The maps of the ambient and the defect family of one search in which
    every candidate is turned away; two restarts leave the ambient family a
    start of its own after a warm start."""
    maps = []
    verify = invariant.verify_equivalence
    with monkeypatch.context() as patch:
        _record_stacks(patch, maps)
        patch.setattr(invariant, "verify_equivalence", lambda *args: (
            dataclasses.replace(verify(*args), verdict=VERDICT_NOT_EQUIVALENT)))
        g.search_witness(fp_a, fp_b, restarts=2, seed=0)
    assert [family for family, _ in maps] == ["ambient", "defect"]
    return [ops for _, ops in maps]


def _starts(n, count, rng):
    return np.stack([np.eye(n, dtype=complex)]
                    + [matcore.haar_unitary(n, rng) for _ in range(count - 1)])


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_stacked_iterations_match_the_per_start_oracle(
        n, monkeypatch, procrustes_oracle, alternation_oracle):
    # a stacked start follows bitwise the iterates it follows alone; the
    # per-start oracles sum the same terms in another order, so they agree
    # to rounding
    planted = _planted(n, 6000 + n, 6100 + n)[:2]
    for fp_a, fp_b in (planted, _near(n, 6200 + n)):
        ambient, defect = _search_maps(monkeypatch, fp_a, fp_b)
        rng = np.random.default_rng(n)
        u0 = _starts(n, 4, rng)
        stacked, = invariant._polar_ascent(ambient, (u0,))
        for k in range(len(u0)):
            assert np.array_equal(stacked[k], invariant._polar_ascent(
                ambient, (u0[k:k + 1],))[0][0])
            assert matcore.fro_norm(stacked[k] - procrustes_oracle(
                fp_a.pair, fp_b.pair, u0[k])) <= 1e-13
        r, r_star = fp_a.f.shape[0], fp_a.f_star.shape[0]
        sigma0, eta0 = _starts(r, 3, rng), _starts(r_star, 3, rng)
        samples = [(g.theta_at(fp_a, z), g.theta_at(fp_b, z))
                   for z in g.default_coincidence_grid()[1::2]]
        etas, sigmas = invariant._polar_ascent(defect, (eta0, sigma0))
        for k in range(len(sigma0)):
            eta, sigma = invariant._polar_ascent(
                defect, (eta0[k:k + 1], sigma0[k:k + 1]))
            assert np.array_equal(sigmas[k], sigma[0])
            assert np.array_equal(etas[k], eta[0])
            sigma, eta = alternation_oracle(fp_a, fp_b, samples,
                                            sigma0[k], eta0[k])
            assert matcore.fro_norm(sigmas[k] - sigma) <= 1e-13
            assert matcore.fro_norm(etas[k] - eta) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
def test_intertwiner_nullspace_matches_scipy(n):
    # QR then an SVD of R gives the nullspace of the full SVD, rank rule
    # included: the same dimension and the same projector
    dims = []
    for fp_a, fp_b in (_planted(n, 6700 + n, 6710 + n)[:2],
                       _near(n, 6720 + n)):
        k = invariant._intertwiner_system(fp_a.pair, fp_b.pair)
        basis = matcore.null_onb(k)
        want = scipy.linalg.null_space(k, rcond=matcore.REL_RANK_TOL)
        assert basis.shape == want.shape
        assert matcore.fro_norm(basis @ matcore.dagger(basis)
                                - want @ matcore.dagger(want)) <= 1e-12
        dims.append(basis.shape[1])
    # at n = 1, K is pure rounding for the conjugate, so its rank is 1
    assert dims == ([0, 0] if n == 1 else [1, 0])


def _outcome(out):
    rep, wit = out.report, out.witness
    return (out.status, out.restarts_used,
            None if wit is None else (wit.eta1.tobytes(), wit.sigma.tobytes()),
            None if rep is None else (rep.verdict, rep.reason, rep.fstar_residual,
                                      rep.coincidence.max_residual))


def test_search_result_does_not_depend_on_the_blocks(monkeypatch):
    # blocks of 1 to 3 starts give bitwise the default result, on a
    # NOT_FOUND search and on a FOUND one whose first two candidates are
    # turned away, so the witness comes from a later restart
    fp_near = _near(3, 6300)
    fp_planted = _planted(3, 6311, 6321)[:2]
    verify = invariant.verify_equivalence
    calls = []

    def late_verify(fp_a, fp_b, w):
        calls.append(1)
        rep = verify(fp_a, fp_b, w)
        if len(calls) > 2:
            return rep
        return dataclasses.replace(rep, verdict=VERDICT_NOT_EQUIVALENT)

    def run():
        out = [_outcome(g.search_witness(*fp_near, restarts=7, seed=3))]
        calls.clear()
        return out + [_outcome(g.search_witness(*fp_planted, restarts=8, seed=3))]

    monkeypatch.setattr(invariant, "verify_equivalence", late_verify)
    default = run()
    assert default[0][:2] == (SEARCH_NOT_FOUND, 14)
    assert default[1][:2] == (SEARCH_FOUND, 3)
    sizes = _record_stacks(monkeypatch)
    item = 16 * 3 * 3
    for budget, largest in ((1, 1), (2 * item, 2), (3 * item, 3)):
        monkeypatch.setattr(matcore, "BATCH_BYTES", budget)
        for family in sizes.values():
            family.clear()
        assert run() == default
        assert max(sizes["ambient"]) == largest


def _counted_search(fp_a, fp_b, restarts, refuse):
    """Outcome of a search whose first ``refuse`` candidates are turned away,
    (unknowns, polar_unitary calls) of each of its polar ascents, and its
    polar_unitary calls in all."""
    verify, kernel, polar = (invariant.verify_equivalence,
                             invariant._polar_ascent, matcore.polar_unitary)
    checked, calls, ascents = [], [], []

    def late_verify(*args):
        checked.append(1)
        rep = verify(*args)
        if len(checked) > refuse:
            return rep
        return dataclasses.replace(rep, verdict=VERDICT_NOT_EQUIVALENT)

    def counted_polar(m):
        calls.append(1)
        return polar(m)

    def counted_ascent(ops, starts):
        before = len(calls)
        ends = kernel(ops, starts)
        ascents.append((len(ops), len(calls) - before))
        return ends

    with mock.patch.object(invariant, "verify_equivalence", late_verify), \
            mock.patch.object(invariant, "_polar_ascent", counted_ascent), \
            mock.patch.object(matcore, "polar_unitary", counted_polar):
        out = g.search_witness(fp_a, fp_b, restarts=restarts, seed=3)
    return _outcome(out), ascents, len(calls)


@functools.cache
def _property_pairs():
    # the planted search turns its first two candidates away, so its witness
    # comes from an ascent whenever the restarts leave room for one
    return {"near": (_near(2, 6300), 0),
            "planted": (tuple(_planted(2, 6311, 6321)[:2]), 2)}


@functools.cache
def _default_outcome(name, restarts):
    (fp_a, fp_b), refuse = _property_pairs()[name]
    return _counted_search(fp_a, fp_b, restarts, refuse)[0]


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(["near", "planted"]), restarts=st.integers(1, 8),
       budget=st.sampled_from([1, 2 * 16 * 2 * 2, 3 * 16 * 2 * 2,
                               matcore.BATCH_BYTES]))
def test_polar_calls_depend_only_on_restarts_and_blocks(name, restarts, budget):
    # every ascent runs all SEARCH_ITERS sweeps, one polar step per unknown,
    # whatever the block; the outcome is the default block size's
    (fp_a, fp_b), refuse = _property_pairs()[name]
    with mock.patch.object(matcore, "BATCH_BYTES", budget):
        outcome, ascents, _ = _counted_search(fp_a, fp_b, restarts, refuse)
    assert outcome == _default_outcome(name, restarts)
    assert all(calls == matcore.SEARCH_ITERS * unknowns
               for unknowns, calls in ascents)


def test_near_search_runs_every_sweep_of_one_block_per_family():
    # one ambient and one defect block of 20 starts each, every start for
    # all sweeps: 3 SEARCH_ITERS polar steps; an ambient stop test that
    # ended a start early would make fewer
    fp_a, fp_b = _near(2, 6300)
    outcome, ascents, calls = _counted_search(fp_a, fp_b, 20, 0)
    assert outcome[:2] == (SEARCH_NOT_FOUND, 40)
    assert ascents == [(1, matcore.SEARCH_ITERS), (2, 2 * matcore.SEARCH_ITERS)]
    assert calls == 3 * matcore.SEARCH_ITERS


def test_planted_conjugate_runs_one_start(monkeypatch):
    # the warm start, checked as drawn, is the witness: no ascent runs
    sizes = _record_stacks(monkeypatch)
    fp_a, fp_b, _ = _planted(6, 6400, 6410)
    out = g.search_witness(fp_a, fp_b, restarts=20, seed=0)
    assert (out.status, out.restarts_used) == (SEARCH_FOUND, 1)
    assert sizes == {"ambient": [], "defect": []}


def test_search_holds_one_block_of_starts(monkeypatch):
    # however many restarts are asked for, no stack outgrows one block, and
    # each family's maps are built once for all of its blocks
    maps = []
    sizes = _record_stacks(monkeypatch, maps)
    fp_a, fp_b = _near(2, 6500)
    r, r_star = fp_a.f.shape[0], fp_a.f_star.shape[0]
    monkeypatch.setattr(matcore, "BATCH_BYTES", 2 ** 9)
    out = g.search_witness(fp_a, fp_b, restarts=40, seed=0)
    assert (out.status, out.restarts_used) == (SEARCH_NOT_FOUND, 80)
    # one block holds BATCH_BYTES of iterates: u, or sigma and eta; the
    # nullspace is empty, so the ambient family runs all 40 starts
    for family, item in (("ambient", 16 * 2 * 2),
                         ("defect", 16 * (r * r + r_star * r_star))):
        blocks = matcore.batches(40, item)
        assert 1 < blocks[0].stop < 40
        assert sizes[family] == [b.stop - b.start for b in blocks]
        built = [ops for name, ops in maps if name == family]
        assert len(built) > 2 and all(ops is built[0] for ops in built)


def _turned(t1, t2, seed):
    """Fundamental pairs of the symmetrized pair of (t1, t2), turned by a
    Haar unitary, and of a Haar conjugate of it."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(2):
        u = matcore.haar_unitary(len(t1), rng)
        t1, t2 = (u @ t @ matcore.dagger(u) for t in (t1, t2))
        pairs.append(g.symmetrized_pair(t1, t2))
    return _solved(*pairs)


@pytest.mark.parametrize("kind, dim", [("repeated-normal", 8), ("jordan-sum", 4)])
def test_warm_start_alone_finds_conjugates_with_larger_nullspaces(
        kind, dim, monkeypatch):
    # the polar factor of a generic intertwiner is a conjugator when one
    # exists (Schwartz-Zippel), however large the nullspace: repeated normal
    # joint eigenvalues give M_2 (+) M_2, J (+) J gives I_2 (x) M_2
    if kind == "repeated-normal":
        t1 = np.diag([0.3, 0.3, -0.5j, -0.5j])
        t2 = np.diag([0.6, 0.6, 0.2 + 0.1j, 0.2 + 0.1j])
    else:
        nil = np.kron(np.eye(2), [[0.0, 1.0], [0.0, 0.0]])
        t1, t2 = 0.3 * np.eye(4) + 0.4 * nil, 0.2 * np.eye(4) + 0.5 * nil
    fp_a, fp_b = _turned(t1, t2, 6630)
    assert matcore.null_onb(invariant._intertwiner_system(
        fp_a.pair, fp_b.pair)).shape[1] == dim
    sizes = _record_stacks(monkeypatch)
    for restarts in (1, 2, 20):
        for seed in range(3):
            out = g.search_witness(fp_a, fp_b, restarts=restarts, seed=seed)
            assert (out.status, out.restarts_used) == (SEARCH_FOUND, 1)
            assert out.report.fstar_residual <= 1e-13
    assert sizes == {"ambient": [], "defect": []}


def _near_with_common_summand(seed):
    """A near pair whose intertwiner nullspace is not empty: X (+) Y and
    X (+) Y', with (Y, Y') a pair of ``_near``.  Every joint intertwiner is
    singular, so no unitary conjugates the two pairs."""
    x = g.random_pure_gamma(1, seed=seed, max_norm=0.8)
    fp_y, fp_y_near = _near(2, seed + 1)

    def summed(y):
        return g.solve_fundamental(g.validate(
            scipy.linalg.block_diag(x.s, y.s), scipy.linalg.block_diag(x.p, y.p)))

    return summed(fp_y.pair), summed(fp_y_near.pair)


def test_one_restart_checks_the_warm_start_as_the_only_ambient_candidate(
        monkeypatch):
    # one restart: the warm start is the ambient family's one candidate, so
    # no ambient ascent runs, and the defect family runs its one start
    sizes = _record_stacks(monkeypatch)
    fp_a, fp_b, _ = _planted(3, 6600, 6610)
    found = g.search_witness(fp_a, fp_b, restarts=1, seed=0)
    assert (found.status, found.restarts_used) == (SEARCH_FOUND, 1)
    assert sizes == {"ambient": [], "defect": []}
    near = _near_with_common_summand(6620)
    assert matcore.null_onb(invariant._intertwiner_system(
        near[0].pair, near[1].pair)).shape[1] >= 1
    assert not g.trace_word_screen(*near).mismatch
    missed = g.search_witness(*near, restarts=1, seed=0)
    assert (missed.status, missed.restarts_used) == (SEARCH_NOT_FOUND, 2)
    assert sizes == {"ambient": [], "defect": [1]}
