import numpy as np
import pytest

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


def test_witness_rejects_non_unitary_blocks():
    with pytest.raises(ValueError):
        g.Witness(eta1=np.array([[1.1]]), sigma=np.eye(1), sigma_star=np.eye(1))
    w = g.Witness(eta1=np.eye(2), sigma=np.eye(2), sigma_star=np.eye(2))
    with pytest.raises(ValueError):
        w.eta1[0, 0] = 3.0


def test_induced_defect_unitary_planted():
    for k in range(25):
        fp_a, fp_b, u = _planted(1 + k % 5, 4000 + k, 5000 + k)
        for which in ("for_P", "for_P_star"):
            v, res = g.induced_defect_unitary(u, fp_a, fp_b, which=which)
            assert res["unitarity"] <= 1e-10
            assert res["defect_intertwine"] <= 1e-8
            assert res["conjugation"] <= 1e-8


def test_induced_defect_unitary_rejects_wrong_map():
    fp_a, fp_b, _ = _planted(3, 4100, 5100)
    rogue = matcore.haar_unitary(3, np.random.default_rng(99))
    with pytest.raises(NotIntertwining):
        g.induced_defect_unitary(rogue, fp_a, fp_b)
    with pytest.raises(DimensionMismatch):
        g.induced_defect_unitary(np.eye(2), fp_a, fp_b)
    with pytest.raises(ValueError):
        g.induced_defect_unitary(1.5 * np.eye(3), fp_a, fp_b)


def test_witness_from_ambient_coherent():
    fp_a, fp_b, u = _planted(4, 4200, 5200)
    w, res = g.witness_from_ambient(u, fp_a, fp_b)
    # the adjoint-side block doubles as the coincidence unitary
    assert np.array_equal(w.sigma_star, w.eta1)
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
    wrong = g.Witness(eta1=np.eye(r_star), sigma=np.eye(r),
                      sigma_star=np.eye(r_star))
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
                      sigma=np.eye(fp_p.f.shape[0]),
                      sigma_star=np.eye(fp_p.f_star.shape[0]))
        rep = g.verify_equivalence(fp_p, fp_o, w)
        assert rep.verdict == VERDICT_NOT_EQUIVALENT
        assert rep.conclusive


def test_verify_equivalence_requires_purity():
    gu = g.random_gamma_unitary(2, seed=4600)
    pure = g.random_pure_gamma(2, seed=4601)
    w = g.Witness(eta1=np.eye(2), sigma=np.eye(2), sigma_star=np.eye(2))
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


def test_search_not_found_reports_closest_candidate(monkeypatch):
    # conjugate of (S + eps P, P): the screen passes, no witness exists
    pair = g.random_pure_gamma(3, seed=5102, max_norm=0.8)
    u = matcore.haar_unitary(3, np.random.default_rng(5103))
    ud = matcore.dagger(u)
    fp_a = g.solve_fundamental(pair)

    def near(eps):
        return g.solve_fundamental(
            g.validate(u @ (pair.s + eps * pair.p) @ ud, u @ pair.p @ ud))

    gap = g.trace_word_screen(fp_a, near(1e-6)).max_gap
    fp_b = near(1e-6 * 0.4 * SCREEN_TOL / gap)
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
