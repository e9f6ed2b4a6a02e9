import dataclasses

import numpy as np
import pytest

import gammaops as g
from gammaops import invariant, matcore, model
from gammaops.exceptions import NotPure, TruncationCapExceeded


def _truncation(p):
    return g.auto_truncation(g.validate(np.zeros_like(p), p))


def test_auto_truncation_frozen_scalar():
    # |0.5^N| first reaches 1e-12 at N = 40
    assert _truncation(np.array([[0.5]])) == 40
    assert _truncation(np.zeros((2, 2))) == 1


def _auto_truncation_oracle(p):
    """Oracle: one SVD per power of P until |P^N| reaches the tail target."""
    power = p.copy()
    for n in range(1, matcore.TRUNCATION_CAP + 1):
        if np.linalg.norm(power, 2) <= matcore.AUTO_TAIL_TARGET:
            return n
        power = power @ p
    raise AssertionError("oracle reached the cap")


def test_auto_truncation_matches_one_svd_per_power():
    rng = np.random.default_rng(921)
    cases = [np.zeros((3, 3), dtype=complex),
             np.array([[0.9, 50.0], [0.0, 0.9]], dtype=complex)]
    for rho in (0.72, 0.9, 0.99):
        for n in (2, 6, 12):
            u = matcore.haar_unitary(n, rng)
            spec = rho * np.exp(2j * np.pi * rng.uniform(size=n))
            spec[1:] *= rng.uniform(0.1, 1.0, size=n - 1)
            cases.append(u @ np.diag(spec) @ matcore.dagger(u))
    cases += [g.random_pure_gamma(1 + k % 12, seed=930 + k).p
              for k in range(24)]
    for p in cases:
        assert _truncation(p) == _auto_truncation_oracle(p)
    assert _truncation(cases[1]) == 357


def test_auto_truncation_by_squaring_matches_a_sequential_scan():
    # repeated squaring and a binary-digit search find the N of a scan over
    # every power, on normal P, a non-normal Jordan-type contraction and
    # n = 1; the cap refusal keeps its message
    rng = np.random.default_rng(940)
    cases = [np.array([[0.5]]), np.array([[0.99j]])]
    for rho in (0.5, 0.72, 0.9, 0.99):
        for n in (1, 3, 12):
            u = matcore.haar_unitary(n, rng)
            spec = rho * np.exp(2j * np.pi * rng.uniform(size=n))
            spec[1:] *= rng.uniform(0.1, 1.0, size=n - 1)
            cases.append(u @ np.diag(spec) @ matcore.dagger(u))
    for lam in (0.5, 0.9):
        cases.append(lam * np.eye(5) + (1.0 - lam) * np.eye(5, k=1))
    for p in cases:
        assert matcore.op_norm(p) <= 1.0 + matcore.CONTRACTION_TOL
        assert _truncation(p) == _auto_truncation_oracle(p)
    u = matcore.haar_unitary(3, rng)
    with pytest.raises(TruncationCapExceeded) as exc:
        _truncation(u @ np.diag([0.999, 0.5j, -0.3]) @ matcore.dagger(u))
    assert str(exc.value) == (f"|P^N| did not reach {matcore.AUTO_TAIL_TARGET:.1e} "
                              f"for N <= {matcore.TRUNCATION_CAP}")


def test_auto_truncation_guards():
    with pytest.raises(NotPure):
        _truncation(np.eye(2))
    with pytest.raises(TruncationCapExceeded):
        # |0.9999^4096| is about 0.66, far above the tail target
        _truncation(np.array([[0.9999]]))


def test_model_reads_purity_from_the_pair_flag(monkeypatch):
    # validate decides purity once; the model never recomputes eigenvalues
    pure = g.random_pure_gamma(3, seed=950)
    fp = g.solve_fundamental(pure)
    fp_unitary = g.solve_fundamental(g.random_gamma_unitary(3, seed=951))

    def refuse(*args, **kwargs):
        raise AssertionError("eigenvalues recomputed after validate")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    assert g.model_space(fp).n_trunc == g.auto_truncation(pure)
    with pytest.raises(NotPure):
        g.auto_truncation(fp_unitary.pair)
    with pytest.raises(NotPure):
        g.model_space(fp_unitary)


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
        fp = g.solve_fundamental(pair)
        md = g.model_space(fp)
        tail, ledger = g.verify_model(fp, md)
        assert ledger["isometry_defect"] <= 1e-10
        assert ledger["complement_identity"] <= 1e-8
        b = md.model_basis
        assert matcore.op_norm(matcore.dagger(b) @ b - np.eye(pair.n)) <= 1e-12
        assert tail <= 1e-12


def test_model_space_returns_complete_model():
    # model_space builds the model alone; verify_model writes the ledger
    fields = dataclasses.fields(g.ModelData)
    assert [f.name for f in fields] == ["n_trunc", "w", "model_basis", "s1",
                                        "p1"]
    assert all(f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING for f in fields)
    pair = g.random_pure_gamma(3, seed=922, max_norm=0.8)
    fp = g.solve_fundamental(pair)
    md = g.model_space(fp, 10)
    assert md.n_trunc == 10 and md.w.shape == (10 * fp.f_star.shape[0], 3)
    assert md.s1.shape == md.p1.shape == (3, 3)
    # the model basis is the closest isometry to the embedding
    assert np.array_equal(md.model_basis, matcore.polar_unitary(g.embed_w(fp, 10)))
    assert md.model_basis.shape[1] == 3
    s1, p1 = g.model_operators(fp, md.model_basis)
    assert np.array_equal(s1, md.s1) and np.array_equal(p1, md.p1)
    tail, ledger = g.verify_model(fp, md)
    assert list(ledger) == ["isometry_defect", "complement_identity",
                            "intertwine_s", "intertwine_p",
                            "fstar_defect_identity"]
    assert tail == matcore.op_norm(np.linalg.matrix_power(pair.p, 10))
    # each row is exactly its own function of the model
    assert ledger["isometry_defect"] == matcore.op_norm(
        matcore.dagger(md.w) @ md.w - np.eye(3))
    complement = model._complement_identity_residual(
        md.model_basis, g.toeplitz_mult(g.theta_coeffs(fp, md.w)))
    assert ledger["complement_identity"] == complement
    intertwine = model._intertwining_residuals(fp, md.w)
    assert list(intertwine) == ["intertwine_s", "intertwine_p"]
    assert intertwine == {k: ledger[k] for k in intertwine}
    assert (ledger["fstar_defect_identity"]
            == g.fstar_defect_identity_residual(fp))


def test_model_space_zeroes_subnormal_parts():
    # P*^k underflows for this pair at N = 263: without the flush, about
    # 3,700 parts of W and as many of its polar factor are subnormal
    fp = g.solve_fundamental(g.random_pure_gamma(12, seed=5, max_norm=0.9))
    md = g.model_space(fp, 263)
    for a in (md.w, md.model_basis):
        parts = np.abs(a.view(np.float64))
        assert not np.any((parts > 0.0) & (parts < np.finfo(np.float64).tiny))
    assert max(g.verify_model(fp, md)[1].values()) <= 1e-13


def _dense_t_v(fp, n_val):
    """Oracle: T = I (x) F_*^adj + shift (x) F_* and V = shift (x) I as arrays."""
    shift = np.eye(n_val, k=-1)
    t = (np.kron(np.eye(n_val), matcore.dagger(fp.f_star))
         + np.kron(shift, fp.f_star))
    return t, np.kron(shift, np.eye(fp.f_star.shape[0]))


def test_model_operator_structure():
    # blockwise compressions and intertwining residuals against the dense
    # Kronecker forms
    for n_val, seed in ((1, 911), (6, 911), (9, 915)):
        pair = g.random_pure_gamma(3, seed=seed)
        fp = g.solve_fundamental(pair)
        md = g.model_space(fp, n_val)
        t, v = _dense_t_v(fp, n_val)
        b, w = md.model_basis, md.w
        bh = matcore.dagger(b)
        assert matcore.fro_norm(md.s1 - bh @ t @ b) <= 1e-13
        assert matcore.fro_norm(md.p1 - bh @ v @ b) <= 1e-13
        want_s = matcore.fro_norm(
            w @ matcore.dagger(pair.s) - matcore.dagger(t) @ w)
        want_p = matcore.fro_norm(
            w @ matcore.dagger(pair.p) - matcore.dagger(v) @ w)
        got = model._intertwining_residuals(fp, w)
        assert abs(got["intertwine_s"] - want_s) <= 1e-13
        assert abs(got["intertwine_p"] - want_p) <= 1e-13
        assert not hasattr(md, "t") and not hasattr(md, "v")


def test_model_confirmation_matches_kronecker_form():
    # u_hat = B_b* (I (x) eta1) B_a; a non-witness eta1 keeps both residuals O(1)
    fp_a, fp_b = (g.solve_fundamental(g.random_pure_gamma(3, seed=s))
                  for s in (917, 918))
    r_star, r = fp_a.f_star.shape[0], fp_a.defect_p.rank
    assert (fp_b.f_star.shape[0], fp_b.defect_p.rank) == (r_star, r)
    rng = np.random.default_rng(919)
    eta1 = matcore.haar_unitary(r_star, rng)
    sigma = matcore.haar_unitary(r, rng)
    got = invariant._model_confirmation(fp_a, fp_b, sigma, eta1)
    n_val = int(got["n_trunc"])
    compressed = []
    for fp in (fp_a, fp_b):
        b = g.model_space(fp, n_val).model_basis
        bh = matcore.dagger(b)
        t, v = _dense_t_v(fp, n_val)
        compressed.append((b, bh @ t @ b, bh @ v @ b))
    (b_a, s_a, p_a), (b_b, s_b, p_b) = compressed
    u_hat = matcore.dagger(b_b) @ np.kron(np.eye(n_val), eta1) @ b_a
    uh = matcore.dagger(u_hat)
    want_conj = max(matcore.fro_norm(u_hat @ s_a @ uh - s_b),
                    matcore.fro_norm(u_hat @ p_a @ uh - p_b))
    assert want_conj >= 1e-3
    assert abs(got["unitarity"] - invariant.unitarity_defect(u_hat)) <= 1e-13
    assert abs(got["conjugation"] - want_conj) <= 1e-13
    # per-k oracle of the coefficient gap sum over k < N
    th_a, th_b = (g.theta_coeffs(fp, g.embed_w(fp, n_val))
                  for fp in (fp_a, fp_b))
    want_theta = sum(matcore.fro_norm(eta1 @ th_a[k] - th_b[k] @ sigma)
                     for k in range(n_val))
    assert want_theta >= 1e-3
    assert abs(got["theta_coefficients"] - want_theta) <= 1e-13
    # on planted conjugates the coefficient gap is rounding
    for n in range(1, 7):
        pair_a = g.random_pure_gamma(n, seed=4300 + n, max_norm=0.75)
        u = matcore.haar_unitary(n, np.random.default_rng(5300 + n))
        pair_b = g.validate(u @ pair_a.s @ matcore.dagger(u),
                            u @ pair_a.p @ matcore.dagger(u))
        fp_a, fp_b = g.solve_fundamental(pair_a), g.solve_fundamental(pair_b)
        witness, _ = g.witness_from_ambient(u, fp_a, fp_b)
        got = invariant._model_confirmation(fp_a, fp_b, witness.sigma,
                                            witness.eta1)
        assert got["theta_coefficients"] <= 1e-13


def test_complement_residual_matches_dense(dense_toeplitz):
    # FFT Toeplitz products and Lanczos against a dense SVD; a stretched
    # basis column puts the residual far above rounding.  m = 40 exhausts
    # the Krylov space, m = 602 and m = 100 (an n = 1 pair) do not.
    for n, n_val, seed in ((2, 20, 916), (2, 301, 916), (1, 100, 920)):
        pair = g.random_pure_gamma(n, seed=seed)
        fp = g.solve_fundamental(pair)
        b = g.model_space(fp, n_val).model_basis.copy()
        b[:, 0] *= 1.05
        coeffs = g.theta_coeffs(fp, g.embed_w(fp, n_val))
        t_theta = dense_toeplitz(coeffs)
        m = b.shape[0]
        assert m == n_val * fp.f_star.shape[0] and np.iscomplexobj(pair.p)
        dense = matcore.op_norm(b @ matcore.dagger(b)
                                + t_theta @ matcore.dagger(t_theta) - np.eye(m))
        assert dense >= 0.05
        got = model._complement_identity_residual(b, g.toeplitz_mult(coeffs))
        assert abs(got - dense) <= 1e-12 * dense


def test_compressions_recover_pair(pure100):
    for pair in pure100[:20]:
        fp = g.solve_fundamental(pair)
        md = g.model_space(fp)
        scale = 1.0 + pair.norm_s
        assert matcore.fro_norm(md.s1 - pair.s) <= 1e-9 * scale
        assert matcore.fro_norm(md.p1 - pair.p) <= 1e-9 * scale
        intertwine = model._intertwining_residuals(fp, md.w)
        assert intertwine["intertwine_s"] <= 1e-8 * scale
        assert intertwine["intertwine_p"] <= 1e-8 * scale


def test_fstar_defect_identity(corpus500):
    for pair, fp in corpus500[:60]:
        assert g.fstar_defect_identity_residual(fp) <= 1e-9 * (1.0 + pair.norm_s)


def test_verify_model_ledger_complete():
    pair = g.random_pure_gamma(4, seed=912, max_norm=0.8)
    fp = g.solve_fundamental(pair)
    _, ledger = g.verify_model(fp, g.model_space(fp))
    for key in ("isometry_defect", "complement_identity",
                "intertwine_s", "intertwine_p", "fstar_defect_identity"):
        assert key in ledger
        assert ledger[key] <= 1e-7


def test_shallow_truncation_dominated_by_tail():
    t1 = np.diag([0.9, 0.6, 0.3]).astype(complex)
    t2 = np.diag([8.0 / 9.0, 0.5, 0.4]).astype(complex)
    pair = g.symmetrized_pair(t1, t2)
    fp = g.solve_fundamental(pair)
    defects = []
    for n_val in (8, 16, 32):
        w = g.model_space(fp, n_val).w
        defects.append(model._intertwining_residuals(fp, w)["intertwine_s"])
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
