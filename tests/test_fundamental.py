import importlib
from pathlib import Path

import numpy as np
import pytest

import gammaops as g
from gammaops import matcore
from gammaops.exceptions import NotContraction, NumericalContractBreach

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _solve_residual_scale(pair):
    return 1e-9 * (1.0 + pair.norm_s)


def _defects(p):
    """``defect_pair`` of P, paired with S = 0, which commutes with every P."""
    return g.defect_pair(g.validate(np.zeros_like(p), p))


def _ambient(dd):
    """D = Q diag(sv) Q* reassembled from the spectral form."""
    return dd.dq @ matcore.dagger(dd.q)


def test_defect_basics():
    p = np.diag([0.6, 0.0]).astype(complex)
    dd, _, theta_0 = _defects(p)
    assert np.allclose(_ambient(dd), np.diag([0.8, 1.0]), atol=1e-12)
    assert dd.rank == 2
    assert np.allclose(theta_0, -p, atol=1e-12)
    # a weighted shift has different defects on the two sides
    dp, dps, _ = _defects(np.array([[0, 0.0], [0.5, 0]], dtype=complex))
    assert np.allclose(_ambient(dp), np.diag([np.sqrt(0.75), 1.0]), atol=1e-12)
    assert np.allclose(_ambient(dps), np.diag([1.0, np.sqrt(0.75)]), atol=1e-12)
    unit, unit_star, theta_0 = _defects(np.eye(3, dtype=complex))
    assert unit.rank == 0 and unit_star.rank == 0
    assert unit.dq.shape == (3, 0) and theta_0.shape == (0, 0)
    with pytest.raises(NotContraction, match=r"\|P\| = 1\.2 exceeds 1"):
        _defects(1.2 * np.eye(2))


def test_defect_pair_lift_identity(ambient_oracles, monkeypatch):
    # the check runs in eigen-coordinates; the ambient identity holds too
    defect = ambient_oracles["defect"]
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        pair = g.random_pure_gamma(n, seed=int(rng.integers(1 << 30)))
        g.defect_pair(pair)
        p = pair.p
        assert matcore.fro_norm(p @ defect(p)
                                - defect(matcore.dagger(p)) @ p) <= 1e-9
    monkeypatch.setattr(matcore, "DEFECT_INTERTWINE_TOL", -1.0)
    with pytest.raises(NumericalContractBreach, match=r"\|P D_P - D_P\* P\|"):
        g.defect_pair(pair)


def _partial_contractions(rng):
    """U diag(1, ..., 1, c) W with c in [0, 0.9); c = 0 gives partial isometries."""
    for n, r in ((4, 2), (6, 3), (5, 5), (3, 1)):
        for c in (np.zeros(r), rng.uniform(0.0, 0.9, r)):
            u, w = matcore.haar_unitary(n, rng), matcore.haar_unitary(n, rng)
            yield u @ np.diag(np.concatenate([np.ones(n - r), c])) @ w, r


def _near_unitary(rng):
    """Normal P with one eigenvalue of modulus 1 - delta, the rest unimodular."""
    for delta in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        for n in (1, 3, 5):
            mods = np.ones(n)
            mods[0] = 1.0 - delta
            u = matcore.haar_unitary(n, rng)
            eig = mods * np.exp(2j * np.pi * rng.uniform(size=n))
            yield u @ np.diag(eig) @ matcore.dagger(u), 1


def test_defect_pair_spectral_form_keeps_the_svd_rank(corpus500, svd_range_onb):
    rng = np.random.default_rng(10)
    cases = ([(pair.p, None) for pair, _ in corpus500]
             + list(_partial_contractions(rng)) + list(_near_unitary(rng))
             + [(np.eye(4, dtype=complex), 0)])
    for p, rank in cases:
        dp, dps, _ = _defects(p)
        eye, p_h = np.eye(p.shape[0]), matcore.dagger(p)
        for dd, gram in ((dp, eye - p_h @ p), (dps, eye - p @ p_h)):
            assert dd.q.shape == (p.shape[0], dd.rank) == (p.shape[0], len(dd.sv))
            # Q are eigenvectors of the Gramian D^2 with eigenvalues sv^2
            assert matcore.fro_norm(gram @ dd.q - dd.q * dd.sv ** 2) <= 1e-14
            assert (dd.sv > 0).all()
            assert np.allclose(matcore.dagger(dd.q) @ dd.q, np.eye(dd.rank),
                               atol=1e-14)
            assert dd.rank == svd_range_onb(dd.dq).shape[1]
            assert rank is None or dd.rank == rank


def test_defect_coordinates_match_the_ambient_formulas(corpus500, ambient_oracles):
    # dq = D Q stands in for D and the lifts Q m Q*; a right factor Q* does
    # not change a Frobenius norm, so each residual moves by rounding only
    reassembly = ambient_oracles["reassembly"]
    for pair, fp in corpus500:
        tol = 1e-14 * (1.0 + pair.norm_s)
        s_h, p_h = matcore.dagger(pair.s), matcore.dagger(pair.p)
        assert abs(fp.residual_f
                   - reassembly(pair.s, pair.p, fp.defect_p, fp.f)) <= tol
        assert abs(fp.residual_f_star
                   - reassembly(s_h, p_h, fp.defect_p_star, fp.f_star)) <= tol
        assert abs(g.check_pf_intertwining(fp)
                   - ambient_oracles["pf_intertwining"](fp)) <= tol
        assert abs(g.fstar_defect_identity_residual(fp)
                   - ambient_oracles["fstar_identity"](fp)) <= tol


def test_fundamental_matches_the_pseudoinverse_solve(corpus500, ambient_oracles):
    for pair, fp in corpus500:
        s_h, p_h = matcore.dagger(pair.s), matcore.dagger(pair.p)
        for dd, f, s, p in ((fp.defect_p, fp.f, pair.s, pair.p),
                            (fp.defect_p_star, fp.f_star, s_h, p_h)):
            a_pinv = np.linalg.pinv(ambient_oracles["defect"](p) @ dd.q)
            ref = a_pinv @ (s - matcore.dagger(s) @ p) @ matcore.dagger(a_pinv)
            assert matcore.fro_norm(f - ref) <= 1e-12 * matcore.fro_norm(ref)


def test_scalar_closed_form_frozen():
    assert g.scalar_fundamental(1.0, 0.25) == pytest.approx(0.8, abs=1e-15)
    assert g.scalar_fundamental(1.0, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_solver_matches_scalar_closed_form():
    rng = np.random.default_rng(9)
    for _ in range(100):
        z1 = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        z2 = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        s, p = z1 + z2, z1 * z2
        pair = g.validate(np.array([[s]]), np.array([[p]]))
        fp = g.solve_fundamental(pair)
        assert fp.f.shape == (1, 1)
        assert fp.f[0, 0] == pytest.approx(g.scalar_fundamental(s, p), abs=1e-12)
        assert fp.f_star[0, 0] == pytest.approx(
            g.scalar_fundamental(np.conj(s), np.conj(p)), abs=1e-12)


def test_solver_residuals_and_radius(corpus500):
    for pair, fp in corpus500[:120]:
        scale = _solve_residual_scale(pair)
        assert fp.residual_f <= scale
        assert fp.residual_f_star <= scale
        assert fp.w_f <= 1.0 + 1e-8
        assert fp.w_f_star <= 1.0 + 1e-8


def test_defining_equation_ambient(corpus500, ambient_oracles):
    # reassemble D_P F^ D_P against S - S*P in the ambient space
    for pair, fp in corpus500[:40]:
        d = ambient_oracles["defect"](pair.p)
        f_amb = fp.defect_p.q @ fp.f @ matcore.dagger(fp.defect_p.q)
        lhs = d @ f_amb @ d
        rhs = pair.s - matcore.dagger(pair.s) @ pair.p
        assert matcore.fro_norm(lhs - rhs) <= 1e-8 * (1.0 + pair.norm_s)


def test_gamma_unitary_has_empty_defect():
    gu = g.random_gamma_unitary(3, seed=13)
    fp = g.solve_fundamental(gu)
    assert fp.f.shape == (0, 0) and fp.f_star.shape == (0, 0)
    # S = S*P exactly on gamma-unitaries, so the leftover residual vanishes;
    # an empty Q reassembles to zero, leaving |S - S*P| with no rank-0 branch
    assert fp.residual_f <= 1e-9 * (1.0 + gu.norm_s)
    assert fp.residual_f == matcore.fro_norm(gu.s - matcore.dagger(gu.s) @ gu.p)
    assert fp.w_f == 0.0


def test_pf_intertwining(corpus500):
    for pair, fp in corpus500[:80]:
        assert g.check_pf_intertwining(fp) <= 1e-8 * (1.0 + pair.norm_s)


def test_partial_isometry_defect_rank_drop():
    # P = 0.5 * shift has a rank deficient defect on one side only
    p = np.array([[0, 0.0], [0.5, 0]], dtype=complex)
    s = np.zeros((2, 2), dtype=complex)
    pair = g.validate(s, p)
    fp = g.solve_fundamental(pair)
    assert fp.defect_p.rank == 2 and fp.defect_p_star.rank == 2
    assert fp.residual_f <= 1e-12


def _normal_pure(n, rho, seed):
    """(z1 + z2, z1 z2) with |z1| = rho, |z2| = 1 in a Haar basis: rho(P) = rho."""
    rng = np.random.default_rng(seed)
    z1 = rho * np.exp(2j * np.pi * rng.uniform(size=n))
    z2 = np.exp(2j * np.pi * rng.uniform(size=n))
    u = matcore.haar_unitary(n, rng)
    ud = matcore.dagger(u)
    return g.symmetrized_pair(u @ np.diag(z1) @ ud, u @ np.diag(z2) @ ud)


def _variety_residuals(fp):
    """sigma_min(F_*^adj + p F_* - s I) / (1 + |s|) at each joint eigenvalue."""
    eye = np.eye(len(fp.f_star))
    return [np.linalg.svd(matcore.dagger(fp.f_star) + pt.p * fp.f_star
                          - pt.s * eye, compute_uv=False)[-1] / (1.0 + abs(pt.s))
            for pt in fp.pair.joint_spectrum]


def test_joint_spectrum_lies_on_the_distinguished_variety():
    """Every joint eigenvalue (s, p) of a pure pair has
    det(F_*^adj + p F_* - s I) = 0.

    In the model, (S*, P*) is (T_phi*, T_z*) on H^2(D_P*) restricted to the
    image of the isometry W x = sum z^k D_P* P*^k x, with
    phi(z) = F_*^adj + z F_*.  A joint eigenvector x of (S*, P*), for
    (conj s, conj p), goes to W x = k_p (x) xi with k_p(z) = sum (conj p z)^k
    and xi = D_P* x, nonzero as |p| < 1.  The joint eigenvectors of
    (T_phi*, T_z*) are such k_p (x) xi with phi(p)* xi = conj(s) xi, so
    phi(p) - s I is singular on the defect space.  Measured, relative to
    1 + |s|: at most 6.2e-16 on the generated pairs, 5.2e-15 on the normal
    ones and 0 on the shifts; F_* + p F_*^adj - s I, the adjoint
    convention, reads 1.6 on generated pairs at n = 3.
    """
    worst = 0.0
    for k in range(200):
        worst = max(worst, *_variety_residuals(g.solve_fundamental(
            g.random_pure_gamma(1 + k % 8, seed=9100 + k))))
    for rho in (0.5, 0.9, 0.99):
        for n in (2, 6, 12):
            worst = max(worst, *_variety_residuals(
                g.solve_fundamental(_normal_pure(n, rho, 9400 + n))))
    assert worst <= 1e-13
    # the shift pair (J, J^2) has a defect of rank 2 on each side
    for n in (5, 8):
        j = np.eye(n, k=-1, dtype=complex)
        pair = g.validate(j, j @ j)
        fp = g.solve_fundamental(pair)
        assert fp.defect_p_star.rank == 2
        assert max(_variety_residuals(fp)) <= 1e-13


def test_the_corpus_lies_on_the_distinguished_variety(corpus500):
    # the identity above on the 500 generated pairs of the shared corpus,
    # n = 1 to 12: measured at most 8.5e-15 (1 + |s|)
    assert max(max(_variety_residuals(fp)) for _, fp in corpus500) <= 1e-13


def test_model_deep_pairs_lie_on_the_distinguished_variety(monkeypatch):
    # the identity above on the benchmark's model-deep pairs, normal pure
    # pairs with rho(P) = 0.72 and 0.9 exactly at n = 2, 6 and 12, drawn as
    # that workload draws them for seeds 1 to 10 and 7919: measured at most
    # 2.6e-15 (1 + |s|)
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    worst = 0.0
    for seed in (*range(1, 11), 7919):
        rng = np.random.default_rng(seed)
        for rho in (0.72, 0.9):
            for n in workloads.DIMS:
                pair = g.symmetrized_pair(*workloads._normal_pure_pair(n, rho, rng))
                assert pair.spectral_radius_p == pytest.approx(rho, abs=1e-12)
                worst = max(worst, *_variety_residuals(g.solve_fundamental(pair)))
    assert worst <= 1e-13
