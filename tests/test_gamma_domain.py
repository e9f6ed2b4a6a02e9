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


def test_huge_point_with_nan_roots_is_outside():
    # s * s overflows to nan here; the roots are not finite
    pt = SymPoint(1e300 + 1e300j, 0.5)
    assert not np.isfinite(g.roots_of_sym_point(pt)[0])
    assert g.classify_point(pt) is Region.OUTSIDE


def _naive(c, s, p):
    """Oracle: the double sum of c[j, k] s^j p^k, term by term."""
    return sum(c[j, k] * s**j * p**k
               for j in range(c.shape[0]) for k in range(c.shape[1]))


def test_eval_sym_poly_stack_matches_each_polynomial():
    rng = np.random.default_rng(12)
    stack = rng.standard_normal((6, 4, 3)) + 1j * rng.standard_normal((6, 4, 3))
    s = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    p = 0.7 + 0.1j
    got = g.eval_sym_poly(stack, s, p)
    assert got.shape == (6, 2, 5)
    for c, vals in zip(stack, got):
        assert np.allclose(vals, _naive(c, s, p), rtol=1e-13, atol=1e-13)
        assert np.array_equal(vals, g.eval_sym_poly(c, s, p))
    assert isinstance(g.eval_sym_poly(stack[0], 0.1, 0.2), complex)


def test_eval_matrix_sym_poly_stack_matches_each_polynomial():
    rng = np.random.default_rng(13)
    stack = rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4))
    pair = g.random_pure_gamma(4, seed=13)
    got = g.eval_matrix_sym_poly(stack, pair.s, pair.p)
    assert got.shape == (5, 4, 4)
    for c, value in zip(stack, got):
        want = sum(c[j, k] * np.linalg.matrix_power(pair.s, j)
                   @ np.linalg.matrix_power(pair.p, k)
                   for j in range(3) for k in range(4))
        assert np.allclose(value, want, atol=1e-13)
        assert np.allclose(value, g.eval_matrix_sym_poly(c, pair.s, pair.p),
                           rtol=0.0, atol=1e-14)


def test_overflow_reaches_only_polynomials_that_use_it():
    s_mat, p_mat = np.array([[0.5]]), np.array([[1e200]])
    stack = np.zeros((3, 3, 3), dtype=complex)
    stack[0, 0, 2] = 1.0  # p^2 overflows
    stack[1, 1, 0] = 1.0  # s: a zero coefficient meets p^2
    stack[2, 0, 1] = 1.0  # p: finite
    got = g.eval_matrix_sym_poly(stack, s_mat, p_mat)
    assert not np.isfinite(got[0]).any()
    assert got[1, 0, 0] == 0.5 and got[2, 0, 0] == 1e200


def test_empty_stacks_give_empty_results():
    c = np.zeros((0, 5, 5), dtype=complex)
    assert g.eval_sym_poly(c, np.ones(7), np.ones(7)).shape == (0, 7)
    assert g.eval_matrix_sym_poly(c, np.eye(3), np.eye(3)).shape == (0, 3, 3)
    assert g.sup_norm_on_gamma(c).shape == (0,)


def test_half_grid_sup_equals_full_grid_sup_bitwise():
    # (z1, z2) and (z2, z1) give the same (s, p), so half the grid finds
    # the max; checked here against all SUP_GRID_N^2 points
    n = matcore.SUP_GRID_N
    z = np.exp(2j * np.pi * np.arange(n) / n)
    j, k = np.indices((n, n))
    s, p = z[j] + z[k], z[(j + k) % n]
    rng = np.random.default_rng(14)
    stack = rng.standard_normal((50, 5, 5)) + 1j * rng.standard_normal((50, 5, 5))
    sups = g.sup_norm_on_gamma(stack)
    for c, sup in zip(stack, sups):
        full = float(np.abs(g.eval_sym_poly(c, s, p)).max())
        assert sup == full
        assert g.sup_norm_on_gamma(c) == full
