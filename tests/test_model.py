import numpy as np
import pytest

import gammaops as g
from gammaops import matcore
from gammaops.exceptions import NotPure, TruncationCapExceeded


def test_auto_truncation_frozen_scalar():
    # |0.5^N| first reaches 1e-12 at N = 40
    assert g.auto_truncation(np.array([[0.5]])) == 40
    assert g.auto_truncation(np.zeros((2, 2))) == 1


def test_auto_truncation_guards():
    with pytest.raises(NotPure):
        g.auto_truncation(np.eye(2))
    with pytest.raises(TruncationCapExceeded):
        g.auto_truncation(np.array([[0.5]]), cap=10)


def test_embed_w_gram_identity():
    # W*W telescopes to I - P^N P*^N
    for k in range(12):
        pair = g.random_pure_gamma(1 + k % 4, seed=900 + k)
        n_val = 12
        w = g.embed_w(g.solve_fundamental(pair), n_val)
        pn = np.linalg.matrix_power(pair.p, n_val)
        want = np.eye(pair.n) - pn @ matcore.dagger(pn)
        assert matcore.fro_norm(matcore.dagger(w) @ w - want) <= 1e-12


def test_model_space_auto_residuals(pure100):
    for pair in pure100[:30]:
        md = g.model_space(g.solve_fundamental(pair))
        assert md.residuals["isometry_defect"] <= 1e-10
        assert md.residuals["complement_identity"] <= 1e-8
        b = md.model_basis.q
        assert matcore.op_norm(matcore.dagger(b) @ b - np.eye(pair.n)) <= 1e-12
        assert md.tail <= 1e-12


def test_model_space_light_path_skips_complement():
    pair = g.random_pure_gamma(3, seed=910)
    md = g.model_space(g.solve_fundamental(pair), complement=False)
    assert "complement_identity" not in md.residuals
    assert "isometry_defect" in md.residuals


def test_model_operator_structure():
    pair = g.random_pure_gamma(3, seed=911)
    fp = g.solve_fundamental(pair)
    md = g.model_operators(fp, g.model_space(fp, 6))
    r_star = fp.f_star.shape[0]
    shift = np.eye(6, k=-1)
    t_want = (np.kron(np.eye(6), matcore.dagger(fp.f_star))
              + np.kron(shift, fp.f_star))
    v_want = np.kron(shift, np.eye(r_star))
    assert np.array_equal(md.t, t_want)
    assert np.array_equal(md.v, v_want)


def test_compressions_recover_pair(pure100):
    for pair in pure100[:20]:
        fp = g.solve_fundamental(pair)
        md = g.model_operators(fp, g.model_space(fp))
        scale = 1.0 + pair.norm_s
        assert matcore.fro_norm(md.s1 - pair.s) <= 1e-9 * scale
        assert matcore.fro_norm(md.p1 - pair.p) <= 1e-9 * scale
        assert md.residuals["intertwine_s"] <= 1e-8 * scale
        assert md.residuals["intertwine_p"] <= 1e-8 * scale


def test_fstar_defect_identity(corpus500):
    for pair, fp in corpus500[:60]:
        assert g.fstar_defect_identity_residual(fp) <= 1e-9 * (1.0 + pair.norm_s)


def test_verify_model_ledger_complete():
    pair = g.random_pure_gamma(4, seed=912, max_norm=0.8)
    md = g.verify_model(g.solve_fundamental(pair))
    for key in ("isometry_defect", "complement_identity",
                "intertwine_s", "intertwine_p", "fstar_defect_identity"):
        assert key in md.residuals
        assert md.residuals[key] <= 1e-7


def test_shallow_truncation_dominated_by_tail():
    t1 = np.diag([0.9, 0.6, 0.3]).astype(complex)
    t2 = np.diag([8.0 / 9.0, 0.5, 0.4]).astype(complex)
    pair = g.symmetrized_pair(t1, t2)
    fp = g.solve_fundamental(pair)
    defects = []
    for n_val in (8, 16, 32):
        md = g.model_operators(fp, g.model_space(fp, n_val))
        defects.append(md.residuals["intertwine_s"])
    # tail is 0.8^N, so each extra 8 levels shrinks the defect by ~0.17
    assert defects[1] <= 0.25 * defects[0]
    assert defects[2] <= 0.25 * defects[1]


def test_model_requires_pure():
    gu = g.random_gamma_unitary(3, seed=913)
    with pytest.raises(NotPure):
        g.model_space(g.solve_fundamental(gu), 8)
    with pytest.raises(TruncationCapExceeded):
        g.model_space(g.solve_fundamental(g.random_pure_gamma(2, seed=914)),
                      5000)
