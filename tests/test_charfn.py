import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gammaops as g
from gammaops import charfn, matcore
from gammaops.exceptions import OutsideLambdaP


def _bare(p):
    """Solved pair (0, P) for a characteristic function given by P alone."""
    p = np.asarray(p, dtype=complex)
    return g.solve_fundamental(g.validate(np.zeros_like(p), p))


def test_scalar_blaschke_frozen():
    fp = _bare([[0.25]])
    w = g.embed_w(fp, 8)
    assert g.theta_coeffs(fp, w).shape == (8, 1, 1)
    with pytest.raises(ValueError):
        g.theta_coeffs(fp, w[:0])
    # (z - p) / (1 - conj(p) z) at p = 0.25, z = 0.5 is 2/7
    val = g.theta_at(fp, 0.5)
    assert val.shape == (1, 1)
    assert val[0, 0] == pytest.approx(2.0 / 7.0, abs=1e-14)


def test_scalar_matches_blaschke_on_disc():
    rng = np.random.default_rng(15)
    for _ in range(60):
        p = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        z = 0.98 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        want = (z - p) / (1.0 - np.conj(p) * z)
        fp = _bare([[p]])
        # Q and Q_* are the singular vectors of p, which differ by its phase;
        # the lift Q_* Theta Q^adj is basis free
        got = fp.defect_p_star.q @ g.theta_at(fp, z) @ matcore.dagger(fp.defect_p.q)
        assert got[0, 0] == pytest.approx(want, abs=1e-12)


def test_taylor_series_resums_to_resolvent():
    rng = np.random.default_rng(16)
    for k in range(20):
        pair = g.random_pure_gamma(1 + k % 4, seed=600 + k, max_norm=0.7)
        fp = g.solve_fundamental(pair)
        coeffs = g.theta_coeffs(fp, g.embed_w(fp, 120))
        for z in (0.2, -0.35 + 0.1j, 0.45j):
            direct = g.theta_at(fp, z)
            # numpy sums the (N, r*, r) stack over its leading axis
            summed = np.polynomial.polynomial.polyval(z, coeffs)
            assert matcore.fro_norm(direct - summed) <= 1e-10


def test_theta_contractive_on_disc():
    rng = np.random.default_rng(17)
    for k in range(15):
        pair = g.random_pure_gamma(1 + k % 5, seed=700 + k)
        fp = g.solve_fundamental(pair)
        for _ in range(8):
            z = np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert matcore.op_norm(g.theta_at(fp, z)) <= 1.0 + 1e-10


def test_eval_outside_resolvent_set_raises():
    with pytest.raises(OutsideLambdaP):
        g.theta_at(_bare([[1.0]]), 1.0)


def test_theta_at_on_an_array_is_bitwise_the_pointwise_values():
    fp = g.solve_fundamental(g.random_pure_gamma(4, seed=68))
    rng = np.random.default_rng(69)
    zs = (0.95 * np.sqrt(rng.uniform(size=(3, 5)))
          * np.exp(2j * np.pi * rng.uniform(size=(3, 5))))
    vals = g.theta_at(fp, zs)
    assert vals.shape == zs.shape + (fp.defect_p_star.rank, fp.defect_p.rank)
    for idx in np.ndindex(zs.shape):
        assert np.array_equal(vals[idx], g.theta_at(fp, complex(zs[idx])))


def test_theta_at_on_an_array_names_the_first_point_outside():
    fp = _bare(np.diag([0.5, 0.8]))
    with pytest.raises(OutsideLambdaP, match=r"at z = \(2\+0j\)$"):
        g.theta_at(fp, np.array([0.3, 2.0, 0.1j, 1.25]))


def test_coeffs_and_embedding_match_the_power_loop(pure100, ambient_oracles):
    # the doubled embedding and the coefficients read off it agree with
    # one product per power of P*
    defect = ambient_oracles["defect"]
    for pair in pure100:
        fp = g.solve_fundamental(pair)
        n_val = g.auto_truncation(pair)
        left = (matcore.dagger(fp.defect_p_star.q)
                @ defect(matcore.dagger(pair.p)))
        right = defect(pair.p) @ fp.defect_p.q
        powers = [np.eye(pair.n, dtype=complex)]
        for _ in range(1, n_val):
            powers.append(powers[-1] @ matcore.dagger(pair.p))
        want_w = np.vstack([left @ pk for pk in powers])
        want = np.stack([-(matcore.dagger(fp.defect_p_star.q) @ pair.p
                           @ fp.defect_p.q)]
                        + [left @ pk @ right for pk in powers[:-1]])
        w = g.embed_w(fp, n_val)
        assert matcore.fro_norm(w - want_w) <= 1e-14 * matcore.fro_norm(want_w)
        coeffs = g.theta_coeffs(fp, w)
        assert matcore.fro_norm(coeffs - want) <= 1e-14 * matcore.fro_norm(want)


def test_theta_grid_matches_the_compressed_ambient_core(corpus500, ambient_oracles):
    # Theta_0 + z dq_*^adj (I - z P*)^(-1) dq against Q_*^adj (-P + z D_P*
    # (I - z P*)^(-1) D_P) Q, one point at a time
    grid = g.default_coincidence_grid()
    for _, fp in corpus500:
        want = np.stack([ambient_oracles["theta"](fp, z) for z in grid])
        assert (matcore.fro_norm(fp.theta_grid - want)
                <= 1e-14 * matcore.fro_norm(want))


def test_toeplitz_block_layout(dense_toeplitz):
    # the FFT products, applied to the identity, give the dense lower block
    # Toeplitz array and its conjugate transpose.  N = 13 embeds at the
    # tightest length L = 2 N - 1 = 25; N = 263 on an n = 1 pair has the
    # prime 263 in 2 N and embeds at L = 540 instead.  The probe vector x
    # keeps the size it has at m = 12 columns, |x| <= 12.3, so the absolute
    # bound asks the same relative accuracy at every m.
    assert [charfn._fft_length(2 * n - 1) for n in (1, 3, 4, 13, 263)] == [
        1, 5, 8, 25, 540]
    fp3 = g.solve_fundamental(g.random_pure_gamma(3, seed=55))
    fp1 = g.solve_fundamental(g.random_pure_gamma(1, seed=56))
    for fp, n_blocks in ((fp3, 1), (fp3, 3), (fp3, 4), (fp3, 13), (fp1, 263)):
        coeffs = g.theta_coeffs(fp, g.embed_w(fp, n_blocks))
        t = g.toeplitz_mult(coeffs)
        dense = dense_toeplitz(coeffs)
        r, rs = fp.defect_p.rank, fp.defect_p_star.rank
        assert dense.shape == (n_blocks * rs, n_blocks * r)
        assert np.abs(t.apply(np.eye(n_blocks * r)) - dense).max() <= 1e-14
        assert np.abs(t.apply_adj(np.eye(n_blocks * rs))
                      - matcore.dagger(dense)).max() <= 1e-14
        m = n_blocks * r
        x = np.arange(m) * (1.0 - 0.5j) / max(1.0, m / 12)
        y = t.apply(x)
        assert y.shape == (n_blocks * rs,)
        assert np.abs(y - dense @ x).max() <= 1e-13


def test_pencil_identity(corpus500):
    # (F_*^adj + F_* z) Theta(z) = Theta(z) (F + F^adj z) on |z| = 0.7
    zs = 0.7 * np.exp(2j * np.pi * np.arange(7) / 7)[:, None, None]
    for pair, fp in corpus500:
        theta = g.theta_at(fp, zs[:, 0, 0])
        gap = ((matcore.dagger(fp.f_star) + zs * fp.f_star) @ theta
               - theta @ (fp.f + zs * matcore.dagger(fp.f)))
        assert (np.linalg.norm(gap, axis=(1, 2)).max(initial=0.0)
                <= 1e-12 * (1.0 + pair.norm_s))


def test_kernel_identity(corpus500, kernel_identity_oracle):
    zs = np.array([0.1, 0.4 + 0.2j, -0.6j, 0.8])
    ws = np.array([0.3j, -0.7 + 0.1j])
    for _, fp in corpus500[:25]:
        assert g.kernel_identity_residual(fp, zs, zs) <= 1e-9
        got = g.kernel_identity_residual(fp, zs, ws)
        assert abs(got - kernel_identity_oracle(fp, zs, ws)) <= 1e-13


def test_kernel_identity_refuses_points_outside_lambda_p():
    # I - 2 P is singular for P = I / 2: the residual raises the
    # OutsideLambdaP of theta_at on either side, not a LinAlgError
    fp = g.solve_fundamental(g.validate(np.diag([0.6, 0.2]), 0.5 * np.eye(2)))
    with pytest.raises(OutsideLambdaP):
        g.theta_at(fp, 2)
    with pytest.raises(OutsideLambdaP):
        g.kernel_identity_residual(fp, [2], [0.1])
    with pytest.raises(OutsideLambdaP):
        g.kernel_identity_residual(fp, [0.1], [2])


def test_coincide_self_with_identity():
    fp = g.solve_fundamental(g.random_pure_gamma(4, seed=66))
    res = g.coincide_check(fp, fp, np.eye(fp.defect_p.rank),
                           np.eye(fp.defect_p_star.rank))
    assert res.coincide
    assert res.max_residual <= 1e-12


def test_coincide_detects_distinct_scalars():
    fp_a, fp_b = _bare([[0.25]]), _bare([[0.5]])
    # best unimodular sigma pair cannot align two different Blaschke factors
    worst_best = min(
        g.coincide_check(fp_a, fp_b, np.array([[u]]), np.array([[v]])).max_residual
        for u in np.exp(2j * np.pi * np.arange(16) / 16)
        for v in np.exp(2j * np.pi * np.arange(16) / 16))
    assert worst_best > 1e-3


def test_coincide_rank_mismatch_flagged():
    fp_a = _bare([[0.25]])
    fp_b = g.solve_fundamental(g.random_pure_gamma(3, seed=77))
    res = g.coincide_check(fp_a, fp_b, np.eye(1), np.eye(1))
    assert not res.ranks_match and not res.coincide
    assert res.max_residual == float("inf")


def test_coincide_under_planted_conjugation():
    rng = np.random.default_rng(18)
    for k in range(10):
        pair = g.random_pure_gamma(1 + k % 4, seed=800 + k)
        u = matcore.haar_unitary(pair.n, rng)
        ud = matcore.dagger(u)
        pair_b = g.validate(u @ pair.s @ ud, u @ pair.p @ ud)
        fp_a, fp_b = g.solve_fundamental(pair), g.solve_fundamental(pair_b)
        q_a, q_b = fp_a.defect_p.q, fp_b.defect_p.q
        qs_a, qs_b = fp_a.defect_p_star.q, fp_b.defect_p_star.q
        sigma = matcore.dagger(q_b) @ u @ q_a
        sigma_star = matcore.dagger(qs_b) @ u @ qs_a
        res = g.coincide_check(fp_a, fp_b, sigma, sigma_star)
        assert res.coincide
        assert res.max_residual <= 1e-9


def test_coincide_residual_matches_the_per_point_loop():
    # the stacked residual is bitwise the largest per-point operator norm
    rng = np.random.default_rng(19)
    for k in range(6):
        n = (1, 2, 3, 6, 9, 12)[k]
        pair = g.random_pure_gamma(n, seed=820 + k)
        u = matcore.haar_unitary(n, rng)
        ud = matcore.dagger(u)
        fp_a = g.solve_fundamental(pair)
        fp_b = g.solve_fundamental(g.validate(u @ pair.s @ ud, u @ pair.p @ ud))
        r, r_star = fp_a.defect_p.rank, fp_a.defect_p_star.rank
        sigma = matcore.haar_unitary(r, rng)
        sigma_star = matcore.haar_unitary(r_star, rng)
        loop = max(matcore.op_norm(sigma_star @ th_a - th_b @ sigma)
                   for th_a, th_b in zip(fp_a.theta_grid, fp_b.theta_grid))
        res = g.coincide_check(fp_a, fp_b, sigma, sigma_star)
        assert res.max_residual == loop


def test_theta_grid_built_once_per_pair():
    fp = g.solve_fundamental(g.random_pure_gamma(3, seed=67))
    grid = fp.theta_grid
    zs = g.default_coincidence_grid()
    assert grid.shape == (len(zs), fp.defect_p_star.rank, fp.defect_p.rank)
    for z, th in zip(zs, grid):
        assert np.array_equal(th, g.theta_at(fp, z))
    assert fp.theta_grid is grid


def test_theta_grid_of_a_validated_pair_takes_no_svd(monkeypatch):
    # sigma_min(I - z P*) >= 1 - |z| |P| >= 0.1 on the grid |z| <= 0.9 of a
    # contraction, |P| = 1 included; a point at |z| = 1 / |P| takes the SVD
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    shift = np.eye(3, k=1, dtype=complex)
    fps = (g.solve_fundamental(g.random_pure_gamma(6, seed=71)),
           g.solve_fundamental(g.validate(0.4 * shift, shift)))
    # counted while Theta is read: defect_pair's SVD of P comes before
    monkeypatch.setattr(np.linalg, "svd", counted)
    for fp in fps:
        assert fp.pair.flags.pure
        assert fp.theta_grid.shape[0] == len(g.default_coincidence_grid())
        assert calls == []
    g.theta_at(fp, [0.5, 1.0, 0.9j])
    assert len(calls) == 1 and calls[0][0].shape == (1, 3, 3)


def _contraction(kind, n, rng):
    """P of norm below 1, of norm 1, or normal with a unimodular eigenvalue."""
    if kind == "unimodular":
        mods = np.append(1.0, rng.uniform(0.0, 1.0, n - 1))
        u = matcore.haar_unitary(n, rng)
        eig = mods * np.exp(2j * np.pi * rng.uniform(size=n))
        return u @ np.diag(eig) @ matcore.dagger(u)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    scale = rng.uniform(0.2, 1.0) if kind == "inside" else 1.0
    return scale * m / matcore.op_norm(m)


def _outcome(theta, fp, z):
    try:
        return "value", theta(fp, z).tobytes()
    except OutsideLambdaP as exc:
        return "refused", str(exc)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["inside", "unit", "unimodular"]),
       n=st.integers(1, 5), seed=st.integers(0, 2 ** 20),
       points=st.lists(st.tuples(
           st.sampled_from(["inside", "on", "beyond", "eigenvalue"]),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(-3, 3)),
           min_size=1, max_size=6))
def test_theta_at_refuses_exactly_where_the_svd_guard_does(
        svd_guard_theta, kind, n, seed, points):
    # the norm bound sends every point it does not certify to the SVD, so
    # the refusals, their messages and the values are the SVD guard's own;
    # z is drawn inside, on (to a few ulps) and beyond |z| = 1 / |P|, and
    # at 1 / conj(lambda) for an eigenvalue lambda, where I - z P* is
    # singular, nudged by multiples of 5e-13
    rng = np.random.default_rng(seed)
    fp = _bare(_contraction(kind, n, rng))
    eigs, reach = np.linalg.eigvals(fp.pair.p), 1.0 / fp.pair.norm_p
    zs = []
    for where, u, v, k in points:
        if where == "eigenvalue":
            lam = eigs[int(u * n) % n]
            if lam == 0:
                continue
            zs.append(1.0 / np.conj(lam) + k * 5e-13 * np.exp(2j * np.pi * v))
            continue
        if where == "on":
            r = reach
            for _ in range(abs(k)):
                r = np.nextafter(r, np.inf if k > 0 else 0.0)
        else:
            r = reach * (u if where == "inside" else 1.0 + 2.0 * u)
        zs.append(r * np.exp(2j * np.pi * v))
    for z in zs:
        assert _outcome(g.theta_at, fp, z) == _outcome(svd_guard_theta, fp, z)
    assert (_outcome(g.theta_at, fp, np.array(zs))
            == _outcome(svd_guard_theta, fp, np.array(zs)))
