import numpy as np
import pytest

import gammaops as g
from gammaops import matcore
from gammaops.exceptions import SingularDenominator
from gammaops.gamma_domain import Region, SymPoint


def test_roots_recover_generating_pair():
    rng = np.random.default_rng(0)
    for _ in range(200):
        z1, z2 = (rng.uniform(0, 1.2) * np.exp(2j * np.pi * rng.uniform()),
                  rng.uniform(0, 1.2) * np.exp(2j * np.pi * rng.uniform()))
        r1, r2 = g.roots_of_sym_point(SymPoint(z1 + z2, z1 * z2))
        direct = abs(r1 - z1) + abs(r2 - z2)
        swapped = abs(r1 - z2) + abs(r2 - z1)
        assert min(direct, swapped) <= 1e-10


def test_roots_stable_near_double_root():
    # s^2 close to 4p is the cancellation-prone regime
    z = 0.7 * np.exp(0.3j)
    pt = SymPoint(2 * z + 1e-9, z * z + 1e-9 * z)
    r1, r2 = g.roots_of_sym_point(pt)
    assert abs(r1 * r2 - pt.p) <= 1e-14
    assert abs(r1 + r2 - pt.s) <= 1e-14


def test_classify_known_points():
    assert g.classify_point(SymPoint(0, 0)) is Region.INTERIOR_G
    assert g.classify_point(SymPoint(2, 1)) is Region.DISTINGUISHED_BGAMMA
    assert g.classify_point(SymPoint(1.5, 0.5)) is Region.BOUNDARY_GAMMA
    assert g.classify_point(SymPoint(3, 1)) is Region.OUTSIDE
    # both roots unimodular but distinct
    z1, z2 = np.exp(0.4j), np.exp(-1.1j)
    assert g.classify_point(SymPoint(z1 + z2, z1 * z2)) is Region.DISTINGUISHED_BGAMMA


def test_mobius_point_matches_rootwise_route():
    rng = np.random.default_rng(1)
    for _ in range(100):
        z1 = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        z2 = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        m = g.DiscAutomorphism(a=0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()),
                               beta=np.exp(2j * np.pi * rng.uniform()))
        got = g.mobius_point(SymPoint(z1 + z2, z1 * z2), m)
        w1, w2 = m.apply(z1), m.apply(z2)
        assert abs(got.s - (w1 + w2)) <= 1e-12 * (1 + abs(got.s))
        assert abs(got.p - w1 * w2) <= 1e-12 * (1 + abs(got.p))


def test_mobius_point_singular_denominator():
    # root at 1/conj(a) makes the denominator vanish
    a = 0.5
    z1 = 2.0
    pt = SymPoint(z1 + 0.1, z1 * 0.1)
    with pytest.raises(SingularDenominator):
        g.mobius_point(pt, g.DiscAutomorphism(a=a, beta=1.0))


def test_automorphism_inverse_and_validation():
    m = g.DiscAutomorphism(a=0.4 - 0.2j, beta=np.exp(1.3j))
    inv = m.inverse()
    for z in (0.0, 0.5, -0.3 + 0.6j, 0.99j):
        assert abs(inv.apply(m.apply(z)) - z) <= 1e-14
    with pytest.raises(ValueError):
        g.DiscAutomorphism(a=1.0, beta=1.0)
    with pytest.raises(ValueError):
        g.DiscAutomorphism(a=0.0, beta=1.1)


def test_eval_sym_poly_against_naive():
    rng = np.random.default_rng(2)
    c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    s, p = 0.3 + 0.2j, -0.1 + 0.7j
    naive = sum(c[j, k] * s**j * p**k for j in range(4) for k in range(4))
    assert g.eval_sym_poly(c, s, p) == pytest.approx(naive, abs=1e-13)
    # array broadcasting agrees with the scalar path
    ss = np.array([s, 2 * s])
    vals = g.eval_sym_poly(c, ss, p)
    assert vals[0] == pytest.approx(naive, abs=1e-13)


def test_eval_matrix_sym_poly_diagonal_oracle():
    rng = np.random.default_rng(3)
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    d1, d2 = np.diag([0.3, -0.5 + 0.1j, 0.2j]), np.diag([0.1, 0.4, -0.6])
    u = matcore.haar_unitary(3, rng)
    s_mat = u @ d1 @ matcore.dagger(u)
    p_mat = u @ d2 @ matcore.dagger(u)
    got = g.eval_matrix_sym_poly(c, s_mat, p_mat)
    want = u @ np.diag([g.eval_sym_poly(c, a, b)
                        for a, b in zip(np.diagonal(d1), np.diagonal(d2))]) @ matcore.dagger(u)
    assert np.allclose(got, want, atol=1e-12)


def test_sup_norm_known_values():
    # q = s peaks at z1 = z2 = 1 with value 2
    cs = np.zeros((2, 1)); cs[1, 0] = 1.0
    assert g.sup_norm_on_gamma_refined(cs) == pytest.approx(2.0, abs=1e-9)
    # q = p is unimodular on the distinguished boundary
    cp = np.zeros((1, 2)); cp[0, 1] = 1.0
    assert g.sup_norm_on_gamma_refined(cp) == pytest.approx(1.0, abs=1e-9)
    cc = np.array([[3.7]])
    assert g.sup_norm_on_gamma(cc) == pytest.approx(3.7, abs=1e-12)


def test_refined_sup_dominates_grid():
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        grid = g.sup_norm_on_gamma(c)
        refined = g.sup_norm_on_gamma_refined(c)
        assert refined >= grid - 1e-12
