import dataclasses
import tracemalloc

import numpy as np
import pytest

import gammaops as g
from gammaops import gamma_domain, gamma_pair, matcore
from gammaops.exceptions import NotCommuting, NotContraction


def test_validate_flags_and_caching():
    s = np.array([[0.8, 0.1], [0.0, 0.6]], dtype=complex)
    p = np.array([[0.3, 0.0], [0.0, 0.2]], dtype=complex)
    with pytest.raises(NotCommuting):
        g.validate(s, p)
    pair = g.random_pure_gamma(3, seed=11)
    assert pair.necessary_ok
    assert pair.flags.pure
    assert pair.norm_s == pytest.approx(matcore.op_norm(pair.s), abs=1e-12)
    assert pair.spectral_radius_p < 1.0
    assert len(pair.joint_spectrum) == 3
    with pytest.raises(ValueError):
        pair.s[0, 0] = 0.0  # arrays are frozen after validation


def test_symmetrized_pair_commutes_and_bounds():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        t1 = 0.9 * matcore.haar_unitary(n, rng)
        t2 = 0.2 * t1 + 0.3 * t1 @ t1
        pair = g.symmetrized_pair(t1, t2)
        assert pair.necessary_ok
        assert matcore.fro_norm(pair.s - (t1 + t2)) <= 1e-14
        assert matcore.fro_norm(pair.p - t1 @ t2) <= 1e-14
    with pytest.raises(NotContraction):
        g.symmetrized_pair(1.5 * np.eye(2), 0.5 * np.eye(2))


def test_spectrum_outside_flagged_not_raised():
    pair = g.validate(3.0 * np.eye(1), np.eye(1))
    assert not pair.flags.spectrum_in_gamma
    assert not pair.necessary_ok


def test_is_pure_and_gamma_unitary():
    assert g.validate(np.zeros((2, 2)), np.diag([0.5, 0.3])).flags.pure
    assert not g.validate(np.zeros((2, 2)), np.diag([1.0, 0.3])).flags.pure
    gu = g.random_gamma_unitary(4, seed=2)
    assert g.is_gamma_unitary(gu)
    assert not gu.flags.pure
    assert not g.is_gamma_unitary(g.random_pure_gamma(3, seed=7))
    # a Jordan block at the torus point (2, 1): boundary spectrum, not normal
    jordan = g.validate(np.array([[2.0, 1.0], [0.0, 2.0]]),
                        np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert not g.is_gamma_unitary(jordan)


def test_validate_joint_spectrum_beyond_the_float_range():
    # 1 + |S|_F + |P|_F overflows: the pair is triangularized at 2^-1024
    huge = np.diag([0.0, 1.7e308])
    pair = g.validate(huge, huge)
    assert [(pt.s, pt.p) for pt in pair.joint_spectrum] == [
        (0.0, 0.0), (1.7e308, 1.7e308)]
    assert not pair.flags.contraction


def test_is_gamma_unitary_reads_the_stored_joint_spectrum(monkeypatch):
    pairs = [g.random_gamma_unitary(4, seed=2),
             g.random_pure_gamma(3, seed=7),
             # normal, with joint spectrum inside and on the topological boundary
             g.validate(np.diag([0.5, 0.2]), np.diag([0.06, 0.01])),
             g.validate(np.diag([1.5, 0.2]), np.diag([0.5, 0.01]))]
    want = [g.is_gamma_unitary(pair) for pair in pairs]
    assert want == [True, False, False, False]

    def fail(*args, **kwargs):
        raise AssertionError("joint spectrum recomputed")

    monkeypatch.setattr(matcore, "joint_eigs_commuting", fail)
    assert [g.is_gamma_unitary(pair) for pair in pairs] == want


def test_validate_tests_commutation_once(monkeypatch):
    calls = []
    check = matcore.require_commuting

    def counted(s, p):
        calls.append(1)
        check(s, p)

    monkeypatch.setattr(matcore, "require_commuting", counted)
    pair = g.random_pure_gamma(3, seed=7)
    calls.clear()
    g.validate(pair.s, pair.p)
    assert len(calls) == 1
    with pytest.raises(NotCommuting, match="commutator norm"):
        g.validate(np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_vn_probe_accepts_gamma_and_rejects_outside():
    pair = g.random_pure_gamma(4, seed=3)
    rep = g.vn_probe(pair, trials=60, seed=1)
    assert rep.passed
    assert rep.worst_ratio <= 1.0 + 1e-6

    bad = g.validate(3.0 * np.eye(1), np.eye(1))
    rep_bad = g.vn_probe(bad, trials=10, seed=1)
    # the monomial s alone gives ratio 3/2
    assert rep_bad.certified_not_gamma
    assert rep_bad.worst_ratio >= 1.4


def test_vn_probe_leaves_pair_flags_unchanged():
    for pair in (g.random_pure_gamma(3, seed=3),
                 g.validate(3.0 * np.eye(1), np.eye(1))):
        before = dataclasses.replace(pair.flags)
        g.vn_probe(pair, trials=10, seed=1)
        assert pair.flags == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.flags.pure = not pair.flags.pure


def test_vn_probe_deterministic_in_seed():
    pair = g.random_pure_gamma(3, seed=9)
    r1 = g.vn_probe(pair, trials=25, seed=42)
    r2 = g.vn_probe(pair, trials=25, seed=42)
    assert r1.worst_ratio == r2.worst_ratio
    assert np.array_equal(r1.worst_coeffs, r2.worst_coeffs)


def _random_poly_oracle(rng, max_deg):
    """Oracle: one polynomial, two scalar uniforms per entry in row-major order."""
    c = np.zeros((max_deg + 1, max_deg + 1), dtype=complex)
    for j in range(max_deg + 1):
        for k in range(max_deg + 1 - j):
            r = np.sqrt(rng.uniform())
            c[j, k] = r * np.exp(2j * np.pi * rng.uniform())
    return c


def test_probe_polynomials_drawn_in_one_call_match_scalar_draws():
    for seed in (0, 1, 42, 7919):
        rng = np.random.default_rng(seed)
        want = [_random_poly_oracle(rng, matcore.PROBE_MAX_DEG)
                for _ in range(50)]
        got = gamma_pair._random_polys(np.random.default_rng(seed), 50,
                                       matcore.PROBE_MAX_DEG)
        assert got.shape == (50,) + want[0].shape
        for a, b in zip(want, got):
            assert a.tobytes() == b.tobytes()
    assert gamma_pair._random_polys(np.random.default_rng(0), 0, 4).shape == (
        0, 5, 5)


def _probe_loop(pair, trials, seed):
    """Oracle: the probe one polynomial at a time, as a Python loop.

    Returns (worst_ratio, worst_coeffs) with the first polynomial of the
    largest ratio, stopping at the first overflowing value.
    """
    rng = np.random.default_rng(seed)
    polys = [np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
             np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
             np.array([[1.0]], dtype=complex)]
    polys += list(gamma_pair._random_polys(rng, trials, matcore.PROBE_MAX_DEG))
    worst_ratio, worst_coeffs = 0.0, polys[0]
    for c in polys:
        value = g.eval_matrix_sym_poly(c, pair.s, pair.p)
        if not np.isfinite(value).all():
            return float("inf"), c
        val = matcore.op_norm(value)
        sup = g.sup_norm_on_gamma(c)
        if val > matcore.PROBE_REFINE_RATIO * max(sup, 1e-300):
            sup = max(sup, g.sup_norm_on_gamma_refined(c))
        ratio = val / max(sup, 1e-300)
        if ratio > worst_ratio:
            worst_ratio, worst_coeffs = ratio, c
    return worst_ratio, worst_coeffs


def test_batched_probe_matches_the_per_polynomial_loop():
    cases = []
    for seed in (0, 1, 42, 7919):
        pair = g.random_pure_gamma(1 + seed % 5, seed=seed)
        rng = np.random.default_rng(seed)
        m = g.DiscAutomorphism(a=0.6 * np.exp(2j * np.pi * rng.uniform()),
                               beta=np.exp(2j * np.pi * rng.uniform()))
        cases += [(pair, seed), (g.random_gamma_unitary(3, seed=seed), seed),
                  (g.transport_pair(pair, m), seed)]
    cases += [(g.validate(3.0 * np.eye(1), np.eye(1)), 5),
              (g.validate(np.array([[1e300]]), np.array([[0.5]])), 5)]
    for pair, seed in cases:
        rep = g.vn_probe(pair, trials=40, seed=seed)
        ratio, coeffs = _probe_loop(pair, 40, seed)
        assert rep.worst_ratio == pytest.approx(ratio, rel=1e-14, abs=0.0)
        assert np.array_equal(rep.worst_coeffs, coeffs)


def test_fixed_probes_keep_their_certificate_shapes():
    for s, p, shape in ((3.0, 1.0, (2, 2)), (0.0, 3.0, (2, 2)), (0.0, 0.0, (1, 1))):
        rep = g.vn_probe(g.validate([[s]], [[p]]), trials=0)
        assert rep.worst_coeffs.shape == shape
    # the constant wins ties with the random draws: it comes first
    rep = g.vn_probe(g.validate([[0.0]], [[0.0]]), trials=5)
    assert rep.worst_ratio == 1.0 and rep.worst_coeffs.shape == (1, 1)


def test_probe_refines_with_one_call(monkeypatch):
    calls = []
    refined = gamma_pair.sup_norm_on_gamma_refined

    def counted(coeffs):
        calls.append(len(coeffs))
        return refined(coeffs)

    monkeypatch.setattr(gamma_pair, "sup_norm_on_gamma_refined", counted)
    # a pure pair refines little beyond the constant, a gamma-unitary one more
    for pair in (g.random_pure_gamma(4, seed=3), g.random_gamma_unitary(3, seed=4)):
        calls.clear()
        g.vn_probe(pair, trials=40, seed=1)
        assert len(calls) == 1
    assert calls[0] > 1
    # at S = P = 0 every q(S, P) is q(0, 0): only the constant reaches its sup
    calls.clear()
    g.vn_probe(g.validate([[0.0]], [[0.0]]), trials=40, seed=1)
    assert calls == [1]


def test_first_polynomial_overflow_certifies(monkeypatch):
    def overflow_first(polys, s, p):
        values = g.eval_matrix_sym_poly(polys, s, p)
        values[0] = np.inf
        return values

    monkeypatch.setattr(gamma_pair, "eval_matrix_sym_poly", overflow_first)
    rep = g.vn_probe(g.random_pure_gamma(2, seed=3), trials=4)
    assert rep.certified_not_gamma and rep.worst_ratio == float("inf")
    assert np.array_equal(rep.worst_coeffs, [[0.0, 0.0], [1.0, 0.0]])


def test_probe_peak_memory_is_bounded():
    pair = g.random_pure_gamma(12, seed=8)
    g.vn_probe(pair)
    tracemalloc.start()
    try:
        g.vn_probe(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def _torus_pair(n, seed):
    """Normal pair with n joint eigenvalues spread over the torus, Haar basis."""
    k = np.arange(n)
    z1 = np.exp(2j * np.pi * (k + 0.5) / n)
    z2 = np.exp(2j * np.pi * (((k + 0.5) * (np.sqrt(5.0) - 1.0) / 2.0) % 1.0))
    u = matcore.haar_unitary(n, np.random.default_rng(seed))
    ud = matcore.dagger(u)
    return g.validate(u @ np.diag(z1 + z2) @ ud, u @ np.diag(z1 * z2) @ ud)


def _same_report(rep, want):
    ratio, coeffs, certified = want
    return (np.float64(rep.worst_ratio).tobytes() == np.float64(ratio).tobytes()
            and rep.worst_coeffs.shape == coeffs.shape
            and rep.worst_coeffs.tobytes() == coeffs.tobytes()
            and rep.certified_not_gamma == certified)


def test_screened_probe_matches_the_full_grid_oracle(monkeypatch, probe_oracle):
    refined = []
    refine = gamma_pair.sup_norm_on_gamma_refined

    def counted(coeffs):
        refined.append(len(coeffs))
        return refine(coeffs)

    monkeypatch.setattr(gamma_pair, "sup_norm_on_gamma_refined", counted)
    j = np.array([[0.0, 1.0], [0.0, 0.0]])
    # (pair, polynomials refined at 200 trials); the constant always refines
    cases = [(g.random_pure_gamma(n, seed=60 + n), 1) for n in (1, 2, 6, 12)]
    cases += [(_torus_pair(n, seed=5), want) for n, want in ((2, 3), (6, 7), (12, 14))]
    cases += [(g.validate([[3.0]], [[1.0]]), None),
              (g.validate(0.5 * np.eye(2), j), None),
              (g.validate(j, 0.9 * j), None),
              (g.validate([[1e300]], [[0.5]]), None)]
    for pair, want in cases:
        for trials in (0, 8, 200):
            refined.clear()
            rep = g.vn_probe(pair, trials=trials, seed=0)
            assert _same_report(rep, probe_oracle(pair, trials, 0))
            if trials == 200 and want is not None:
                assert refined == [want]
    assert rep.worst_ratio == float("inf")  # the overflowing pair, last


def test_screened_probe_under_a_haar_conjugation(probe_oracle):
    # conjugation moves |q(S, P)| at rounding level; the probe follows it
    # and still agrees with the full grid
    rng = np.random.default_rng(71)
    pairs = [g.random_pure_gamma(n, seed=80 + n) for n in (2, 6, 12)]
    pairs += [_torus_pair(n, seed=9) for n in (2, 6, 12)]
    for pair in pairs:
        u = matcore.haar_unitary(pair.n, rng)
        ud = matcore.dagger(u)
        conj = g.validate(u @ pair.s @ ud, u @ pair.p @ ud)
        rep, rep_conj = g.vn_probe(pair), g.vn_probe(conj)
        assert rep_conj.worst_ratio == pytest.approx(rep.worst_ratio,
                                                     rel=1e-12, abs=0.0)
        assert _same_report(rep_conj, probe_oracle(conj, matcore.PROBE_TRIALS, 0))


def test_screened_probe_matches_the_oracle_across_blocks(probe_oracle):
    # a block after the first holds no constant, whose ratio 1 rules out
    # every polynomial outside the candidates: 450 trials span 3 blocks
    pairs = [g.random_pure_gamma(n, seed=90 + n) for n in (1, 3, 6, 12)]
    pairs += [_torus_pair(n, seed=11) for n in (2, 6)]
    pairs += [g.validate(1.2 * pair.s, 1.2 * pair.p) for pair in pairs[1:3]]
    for pair in pairs:
        for seed in (0, 3):
            rep = g.vn_probe(pair, trials=450, seed=seed)
            assert _same_report(rep, probe_oracle(pair, 450, seed))


def test_few_polynomials_reach_the_full_grid(monkeypatch):
    # measured at 200 trials on these 30 probes: at most 1 polynomial per
    # pure probe (the constant), at most 39 per gamma-unitary probe and 142
    # in all; the bounds allow twice that, against 203 per probe unscreened
    counts = []
    grid = gamma_pair.sup_norm_on_gamma

    def counted(coeffs):
        counts.append(len(coeffs))
        return grid(coeffs)

    monkeypatch.setattr(gamma_pair, "sup_norm_on_gamma", counted)
    total = 0
    for make, most in ((g.random_pure_gamma, 2), (g.random_gamma_unitary, 78)):
        for n in (2, 6, 12):
            for seed in range(5):
                counts.clear()
                g.vn_probe(make(n, seed=seed))
                assert 1 <= sum(counts) <= most
                total += sum(counts)
    assert total <= 2 * 142


def test_probe_memory_does_not_grow_with_trials(probe_oracle):
    # polynomials are drawn, evaluated and screened PROBE_TRIALS + 3 at a
    # time; a stack of all 5003 would hold 13 MiB at n = 12
    pair = g.random_pure_gamma(12, seed=8)
    g.vn_probe(pair, trials=10)
    tracemalloc.start()
    try:
        g.vn_probe(pair, trials=5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
    for probed, seed in ((pair, 3), (_torus_pair(6, seed=5), 0)):
        rep = g.vn_probe(probed, trials=1000, seed=seed)
        assert _same_report(rep, probe_oracle(probed, 1000, seed))


def test_probe_screen_grid_resolves_the_probe_degree():
    # the screen's bound needs its sub-grid to be roots of unity of an
    # order above the degree of q in each of z1 and z2, see vn_probe
    stride = gamma_pair._SCREEN_STRIDE
    assert matcore.SUP_GRID_N % stride == 0
    assert matcore.SUP_GRID_N // stride >= 2 * matcore.PROBE_MAX_DEG + 1


def test_generators_deterministic_and_valid():
    a = g.random_pure_gamma(5, seed=77)
    b = g.random_pure_gamma(5, seed=77)
    assert np.array_equal(a.s, b.s) and np.array_equal(a.p, b.p)
    c = g.random_pure_gamma(5, seed=78)
    assert not np.array_equal(a.s, c.s)
    for n in range(1, 7):
        pair = g.random_pure_gamma(n, seed=100 + n)
        assert pair.necessary_ok and pair.flags.pure
        gu = g.random_gamma_unitary(n, seed=200 + n)
        assert g.is_gamma_unitary(gu)
    with pytest.raises(ValueError):
        g.random_pure_gamma(2, seed=0, max_norm=0.99)


def _counted_norms(monkeypatch):
    """Matrices whose spectral norm the probe computes exactly."""
    rows = []
    norm = np.linalg.norm

    def counted(x, *args, **kwargs):
        if np.ndim(x) == 3:
            rows.append(len(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    return rows


def test_default_probe_takes_few_exact_norms(monkeypatch):
    # measured: 1 exact norm (the constant) against 203 unscreened
    rows = _counted_norms(monkeypatch)
    g.vn_probe(g.random_pure_gamma(12, seed=8))
    assert 1 <= sum(rows) <= 3
    # a gamma-unitary pair keeps many values near their sups: measured 25
    rows.clear()
    g.vn_probe(_torus_pair(12, seed=5))
    assert sum(rows) <= 60


def test_later_blocks_reach_norms_and_grid_only_on_candidates(
        monkeypatch, probe_oracle):
    # past the first block only K = {v > PROBE_REFINE_RATIO low} takes an
    # exact norm or a grid sup, and a block whose K is empty calls no grid.
    # Measured at 1000 trials: 1 exact norm and 1 grid call (the first
    # block's constant) on the pure pair, 126 exact norms on the torus pair;
    # the norm bounds allow about twice that, against 585 and 661 if each
    # block's own worst ratio were made exact
    rows = _counted_norms(monkeypatch)
    grids = []
    grid = gamma_pair.sup_norm_on_gamma

    def counted(coeffs):
        grids.append(len(coeffs))
        return grid(coeffs)

    monkeypatch.setattr(gamma_pair, "sup_norm_on_gamma", counted)
    pair = g.random_pure_gamma(12, seed=8)
    rep = g.vn_probe(pair, trials=1000)
    assert 1 <= sum(rows) <= 3 and grids == [1]
    assert _same_report(rep, probe_oracle(pair, 1000, 0))
    rows.clear()
    g.vn_probe(_torus_pair(12, seed=5), trials=1000)
    assert sum(rows) <= 250


def test_norm_bounds_hold_at_any_magnitude():
    rng = np.random.default_rng(75)
    stack = rng.standard_normal((40, 5, 5)) + 1j * rng.standard_normal((40, 5, 5))
    stack[3] = 0.0
    stack[4] = np.diag([1.0, 1e-200, 0.0, 0.0, 0.0])
    for per_block in (1, 7, 40):
        for k in (-1060, -1000, -500, 0, 500, 1000, 1015):
            scaled = stack * 2.0 ** k
            exact = np.linalg.norm(scaled, 2, axis=(1, 2))
            bounds = gamma_pair._norm_bounds(scaled, per_block)
            assert np.all(bounds >= exact)
            assert np.all(bounds[exact > 0] > 0) and bounds[3] == 0.0
            if -1000 <= k <= 1000:
                assert np.all(bounds[exact > 0] <= 2.0 * exact[exact > 0])
    # one block of very different sizes: the small matrix gets no bound
    mixed = np.stack([1e300 * np.eye(2), 1e-300 * np.eye(2)]).astype(complex)
    bounds = gamma_pair._norm_bounds(mixed, 2)
    assert bounds[0] >= 1e300 and bounds[1] == np.inf
    assert gamma_pair._norm_bounds(mixed, 1)[1] >= 1e-300


def test_probe_refinement_stops_at_stationary_points(monkeypatch):
    # q = s peaks on all of z1 = z2, a ridge the step stop never ends on:
    # measured 7 jet evaluations per refinement, against 41 for all steps
    calls = []
    jets = gamma_domain._torus_jets

    def counted(zc, theta):
        calls.append(len(zc))
        return jets(zc, theta)

    monkeypatch.setattr(gamma_domain, "_torus_jets", counted)
    for n in (2, 6, 12):
        calls.clear()
        g.vn_probe(_torus_pair(n, seed=5))
        assert 1 <= len(calls) <= 12
