import math
import tracemalloc

import numpy as np
import pytest

import gammaops as g
from gammaops import gamma_domain, matcore
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


def test_refined_sup_of_a_constant_runs_no_iteration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a constant needs no iteration")

    monkeypatch.setattr(gamma_domain, "_torus_jets", refuse)
    consts = (1.0, 0.3 - 0.4j, 1e-3j, 0.0)
    stack = np.zeros((len(consts), 3, 3), dtype=complex)
    for coeffs, c in zip(stack, consts):
        coeffs[0, 0] = c
        assert g.sup_norm_on_gamma_refined(coeffs) == abs(c)
    assert list(g.sup_norm_on_gamma_refined(stack)) == [abs(c) for c in consts]
    assert g.sup_norm_on_gamma_refined(np.array([[2j]])) == 2.0
    assert g.sup_norm_on_gamma_refined(np.zeros((0, 5, 5))).shape == (0,)


def test_refined_sup_starts_at_distinct_half_grid_points(monkeypatch, torus_grid,
                                                         refined_sup_oracle):
    # q(z1, z2) = q(z2, z1): the half grid z1 <= z2 holds no mirror pairs,
    # and its best points include every start the full grid gave up to mirrors
    rng = np.random.default_rng(12)
    polys = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
             for _ in range(12)]
    n, r = matcore.SUP_GRID_N, matcore.REFINE_STARTS
    spacing = 2.0 * np.pi / n
    full = torus_grid()
    iterates = []
    jets = gamma_domain._torus_jets

    def recorded(zc, theta):
        iterates.append(theta.copy())
        return jets(zc, theta)

    monkeypatch.setattr(gamma_domain, "_torus_jets", recorded)
    mirrored = 0
    for c in polys:
        iterates.clear()
        sup = g.sup_norm_on_gamma_refined(c)
        assert sup >= refined_sup_oracle(c) * (1.0 - 1e-12)
        theta = iterates[0][0] / spacing
        idx = np.rint(theta).astype(int)
        assert np.allclose(idx, theta, rtol=0.0, atol=1e-12)
        assert idx.shape == (r, 2)
        assert (idx[:, 0] <= idx[:, 1]).all()
        got = {tuple(x) for x in idx}
        assert len(got) == r
        vals = np.abs(g.eval_sym_poly(c, *full))
        old = [divmod(int(i), n) for i in np.argsort(vals)[::-1][:r]]
        distinct = {(min(j, k), max(j, k)) for j, k in old}
        assert distinct <= got
        mirrored += len(distinct) < r
    assert mirrored > 0


def test_refined_sup_is_never_below_the_nelder_mead_oracle(refined_sup_oracle):
    polys = g.gamma_pair._random_polys(np.random.default_rng(21), 100,
                                       matcore.PROBE_MAX_DEG)
    sups = g.sup_norm_on_gamma_refined(polys)
    for c, sup in zip(polys, sups):
        assert sup >= refined_sup_oracle(c) * (1.0 - 1e-12)


def test_refined_sup_is_never_below_a_fine_torus_grid():
    n = 256
    z = np.exp(2j * np.pi * np.arange(n) / n)
    j, k = np.triu_indices(n)
    s, p = z[j] + z[k], z[j] * z[k]
    polys = g.gamma_pair._random_polys(np.random.default_rng(22), 60,
                                       matcore.PROBE_MAX_DEG)
    sups = g.sup_norm_on_gamma_refined(polys)
    for c, sup in zip(polys, sups):
        assert sup >= np.abs(g.eval_sym_poly(c, s, p)).max()


def test_refined_sup_scales_exactly_with_the_coefficients():
    # |q|^2 of coefficients near 2^600 overflows and near 2^-600 underflows;
    # the iteration runs on coefficients scaled by a power of two
    polys = g.gamma_pair._random_polys(np.random.default_rng(24), 20,
                                       matcore.PROBE_MAX_DEG)
    sups = g.sup_norm_on_gamma_refined(polys)
    for k in (600, -600):
        assert np.array_equal(g.sup_norm_on_gamma_refined(polys * 2.0 ** k),
                              sups * 2.0 ** k)


def test_refined_sup_stack_is_bitwise_the_per_polynomial_results(monkeypatch):
    rng = np.random.default_rng(23)
    stack = g.gamma_pair._random_polys(rng, 40, matcore.PROBE_MAX_DEG)
    stack[3] = 0.0
    stack[3, 0, 0] = 0.5j                     # a constant amid the rest
    stack[7] = 0.0
    stack[7, 1, 0] = 1.0                      # s, padded
    stack[11] = 0.0
    stack[11, 0, 1] = 1.0                     # p, padded
    each = [g.sup_norm_on_gamma_refined(c) for c in stack]
    assert list(g.sup_norm_on_gamma_refined(stack)) == each
    for budget in (1, 4096):
        # blocks of one and of a few polynomials in both stages
        monkeypatch.setattr(matcore, "BATCH_BYTES", budget)
        assert list(g.sup_norm_on_gamma_refined(stack)) == each


def test_huge_point_with_nan_roots_is_outside():
    # s * s overflows to nan here; the roots are not finite
    pt = SymPoint(1e300 + 1e300j, 0.5)
    assert not np.isfinite(g.roots_of_sym_point(pt)[0])
    # abs() of a NaN complex returns without clearing errno, so an ERANGE
    # left by an earlier overflow made it raise "absolute value too large"
    with pytest.raises(OverflowError):
        math.exp(1000.0)
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


def test_grid_sup_matches_the_full_grid_and_each_polynomial(monkeypatch,
                                                            torus_grid):
    # the product W C W^T adds in another order than numpy's polyval2d, so
    # the two agree to rounding; a polynomial's sup does not depend on its block
    s, p = torus_grid()
    rng = np.random.default_rng(14)
    stack = rng.standard_normal((50, 5, 5)) + 1j * rng.standard_normal((50, 5, 5))
    for c, sup in zip(stack, g.sup_norm_on_gamma(stack)):
        full = np.abs(g.eval_sym_poly(c, s, p)).max()
        assert abs(sup - full) <= 1e-14 * full
    mixed = g.gamma_pair._random_polys(rng, 40, matcore.PROBE_MAX_DEG)
    mixed[3] = 0.0
    mixed[3, 0, 0] = 0.5j                     # a constant amid the rest
    mixed[7] = 0.0
    mixed[7, 1, 0] = 1.0                      # s, padded
    mixed[11] = 0.0
    mixed[11, 0, 1] = 1.0                     # p, padded
    each = [g.sup_norm_on_gamma(c) for c in mixed]
    for budget in (matcore.BATCH_BYTES, 1, 4096, 2 ** 20):
        monkeypatch.setattr(matcore, "BATCH_BYTES", budget)
        assert list(g.sup_norm_on_gamma(mixed)) == each


def test_grid_blocks_stay_inside_the_batch_budget(monkeypatch):
    # one block holds 16 N d bytes of W C, 16 N^2 of values and 8 N^2 of
    # moduli per polynomial; the whole probe stack at once would be 20 MiB
    polys = g.gamma_pair._random_polys(np.random.default_rng(25), 203,
                                       matcore.PROBE_MAX_DEG)
    n = matcore.SUP_GRID_N
    item = 16 * n * (2 * matcore.PROBE_MAX_DEG + 1) + 24 * n * n
    sizes = []
    moduli = gamma_domain._torus_moduli

    def recorded(zc, stride=1):
        for blk, vals in moduli(zc, stride):
            assert vals.shape == (blk.stop - blk.start, n, n)
            sizes.append(len(vals))
            yield blk, vals

    monkeypatch.setattr(gamma_domain, "_torus_moduli", recorded)
    for budget in (matcore.BATCH_BYTES, 1, 2 ** 20):
        monkeypatch.setattr(matcore, "BATCH_BYTES", budget)
        for sup in (g.sup_norm_on_gamma, g.sup_norm_on_gamma_refined):
            sizes.clear()
            sup(polys)
            assert sum(sizes) == len(polys)
            assert all(size == 1 or size * item <= budget for size in sizes)
            assert max(sizes) == max(1, budget // item)


def test_one_grid_sup_call_stays_inside_the_batch_budget():
    # every temporary of a block counts: W C, the values and their moduli,
    # with the moduli of all blocks in one buffer; the call holds besides
    # its input, its output and the stack's (z1, z2) coefficients
    d = 2 * matcore.PROBE_MAX_DEG + 1
    for m in (1, 2, 40, 203):
        polys = g.gamma_pair._random_polys(np.random.default_rng(27), m,
                                           matcore.PROBE_MAX_DEG)
        for sup in (g.sup_norm_on_gamma,
                    lambda c: gamma_domain.torus_grid_max(c, 4)):
            sup(polys)
            tracemalloc.start()
            try:
                out = sup(polys)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = polys.nbytes + out.nbytes + 16 * d * d * m
            assert peak - held <= matcore.BATCH_BYTES, (m, peak - held)


def test_grid_sup_memory_does_not_grow_with_the_stack():
    # the (z1, z2) coefficients are converted one chunk of at most
    # BATCH_BYTES at a time, so besides its input and output a call holds
    # one chunk with its conversion temporaries and one block: about 2.6
    # BATCH_BYTES for 1000 polynomials, whose coefficients alone would be
    # 1.2 MiB (measured 1.5 MiB with the stack converted at once)
    polys = g.gamma_pair._random_polys(np.random.default_rng(29), 1000,
                                       matcore.PROBE_MAX_DEG)
    for sup in (g.sup_norm_on_gamma,
                lambda c: gamma_domain.torus_grid_max(c, 4)):
        sup(polys)
        tracemalloc.start()
        try:
            out = sup(polys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 3 * matcore.BATCH_BYTES


def test_refined_sup_memory_does_not_grow_with_the_stack():
    # the refined sup copies one block of non-constant polynomials at a
    # time, not all of them: besides its input and output a call over 1000
    # polynomials holds about 2.6 BATCH_BYTES (measured 5.1 with the live
    # polynomials copied at once), as it does over 203
    rng = np.random.default_rng(29)
    for m in (203, 1000):
        polys = g.gamma_pair._random_polys(rng, m, matcore.PROBE_MAX_DEG)
        polys[::7] = 0.0
        polys[::7, 0, 0] = 1.5  # constants take no iteration
        g.sup_norm_on_gamma_refined(polys)
        tracemalloc.start()
        try:
            out = g.sup_norm_on_gamma_refined(polys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 3 * matcore.BATCH_BYTES, (m, peak)


def test_grid_sups_match_the_reference_bitwise(grid_sups_oracle):
    # the (z1, z2) coefficients add each term on a strided diagonal; the
    # reference adds it at fancy indices, and takes its products in stacks
    # of 64 where sup_norm_on_gamma takes one polynomial per block
    rng = np.random.default_rng(28)
    for shape in ((203, 5, 5), (9, 3, 4), (6, 4, 1), (5, 1, 3), (3, 2, 0)):
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stack *= 10.0 ** rng.integers(-200, 200, size=(shape[0], 1, 1))
        want = grid_sups_oracle(stack)
        assert g.sup_norm_on_gamma(stack).tobytes() == want.tobytes()
        assert gamma_domain.torus_grid_max(stack, 1).tobytes() == want.tobytes()


def test_subgrid_maxima_bound_the_grid_sups_from_below(torus_grid):
    # every 4th point per axis of the grid, taken in another product shape:
    # below the grid sup by at most the probe screen's rounding slack
    s, p = torus_grid()
    n = matcore.SUP_GRID_N
    rng = np.random.default_rng(29)
    stack = g.gamma_pair._random_polys(rng, 300, matcore.PROBE_MAX_DEG)
    stack *= 10.0 ** rng.integers(-200, 200, size=(300, 1, 1))
    stack[:3] = 0.0
    stack[0, 0, 0], stack[1, 1, 0], stack[2, 0, 1] = 1.0, 1.0, 1.0
    full = g.sup_norm_on_gamma(stack)
    sub = gamma_domain.torus_grid_max(stack, 4)
    assert np.all(sub * (1.0 - g.gamma_pair._SCREEN_SLACK) <= full)
    assert np.all(sub <= full * (1.0 + 1e-14))
    assert sub[:3] == pytest.approx([1.0, 2.0, 1.0], rel=1e-15, abs=0.0)
    for c, value in zip(stack[:20], sub):
        on_grid = np.abs(g.eval_sym_poly(c, s, p)).reshape(n, n)[::4, ::4]
        assert abs(value - on_grid.max()) <= 1e-14 * value


def test_refined_sup_makes_no_grid_sup_call(monkeypatch):
    # traced runs count sup_norm_on_gamma calls, one per probe
    calls = []
    grid = gamma_domain.sup_norm_on_gamma

    def counted(coeffs):
        calls.append(coeffs)
        return grid(coeffs)

    monkeypatch.setattr(gamma_domain, "sup_norm_on_gamma", counted)
    polys = g.gamma_pair._random_polys(np.random.default_rng(26), 10,
                                       matcore.PROBE_MAX_DEG)
    g.sup_norm_on_gamma_refined(polys)
    g.sup_norm_on_gamma_refined(polys[0])
    assert calls == []


def test_arrays_without_coefficients_are_the_zero_polynomial():
    s_mat, p_mat = np.diag([0.5, -0.2j]), np.diag([0.1, 0.3])
    points = np.array([0.3, 1.0 - 2.0j]), np.array([0.1j, 0.5])
    for shape in ((0, 0), (2, 0), (0, 3)):
        c = np.zeros(shape, dtype=complex)
        assert g.eval_sym_poly(c, 0.3, 0.1j) == 0.0
        assert np.array_equal(g.eval_sym_poly(c, *points), np.zeros(2))
        assert np.array_equal(g.eval_matrix_sym_poly(c, s_mat, p_mat),
                              np.zeros((2, 2)))
        assert g.sup_norm_on_gamma(c) == 0.0
        assert g.sup_norm_on_gamma_refined(c) == 0.0
    for shape in ((3, 0, 4), (2, 2, 0), (1, 0, 0)):
        stack = np.zeros(shape, dtype=complex)
        m = shape[0]
        assert np.array_equal(g.eval_sym_poly(stack, *points), np.zeros((m, 2)))
        assert np.array_equal(g.eval_matrix_sym_poly(stack, s_mat, p_mat),
                              np.zeros((m, 2, 2)))
        assert np.array_equal(g.sup_norm_on_gamma(stack), np.zeros(m))
        assert np.array_equal(g.sup_norm_on_gamma_refined(stack), np.zeros(m))


def _count_jets(monkeypatch):
    calls = []
    jets = gamma_domain._torus_jets

    def counted(zc, theta):
        calls.append(len(zc))
        return jets(zc, theta)

    monkeypatch.setattr(gamma_domain, "_torus_jets", counted)
    return calls


def test_refined_sup_stops_on_a_ridge(monkeypatch):
    # |q|^2 of q = s is 4 on all of z1 = z2 and of q = p is 1 everywhere:
    # every start is stationary to rounding, where the step stop never held
    calls = _count_jets(monkeypatch)
    deg = matcore.PROBE_MAX_DEG
    for j, k, sup in ((1, 0, 2.0), (0, 1, 1.0)):
        for shape in ((j + 1, k + 1), (deg + 1, deg + 1)):
            coeffs = np.zeros(shape)
            coeffs[j, k] = 1.0
            calls.clear()
            assert g.sup_norm_on_gamma_refined(coeffs) == pytest.approx(sup, rel=1e-15)
            assert len(calls) == 1  # the starts only; 40 steps more before


def _refined_pairs():
    """40 gamma-unitary, 40 pure and 40 outside pairs, n from 1 to 8."""
    pairs = []
    for seed in range(40):
        n = 1 + seed % 8
        pure = g.random_pure_gamma(n, seed=300 + seed)
        pairs += [g.random_gamma_unitary(n, seed=300 + seed), pure,
                  g.validate(1.15 * pure.s, 1.1 * pure.p)]
    return pairs


def test_stationary_stop_loses_at_most_the_stated_rounding(monkeypatch):
    # the refined sup stops each start at a stationary point to rounding;
    # against all REFINE_ITERS steps it stays within the model bound of
    # sup_norm_on_gamma_refined, 8 REFINE_ITERS level relative, level =
    # _JET_ROUNDING d (d + 2); measured: at most 2.1e-16 relative
    rng = np.random.default_rng(31)
    deg = matcore.PROBE_MAX_DEG
    d = 2 * deg + 1
    level = gamma_domain._JET_ROUNDING * d * (d + 2)
    polys = []
    for pair in _refined_pairs():
        draw = g.gamma_pair._random_polys(rng, 30, deg)
        vals = np.linalg.norm(g.eval_matrix_sym_poly(draw, pair.s, pair.p),
                              2, axis=(1, 2))
        # the polynomials nearest to refinement in the probe of this pair
        polys.append(draw[np.argsort(vals / g.sup_norm_on_gamma(draw))[-3:]])
    polys = np.concatenate(polys)
    assert len(polys) == 360
    calls = _count_jets(monkeypatch)
    new = g.sup_norm_on_gamma_refined(polys)
    stopped = len(calls)
    monkeypatch.setattr(gamma_domain, "_JET_ROUNDING", -1.0)
    calls.clear()
    old = g.sup_norm_on_gamma_refined(polys)
    assert stopped < len(calls)
    assert np.all(new <= old)
    assert np.all(new >= old * (1.0 - 8 * matcore.REFINE_ITERS * level))
