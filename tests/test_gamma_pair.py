import dataclasses
import tracemalloc

import numpy as np
import pytest

import gammaops as g
from gammaops import gamma_pair, matcore
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
    assert g.is_pure(np.diag([0.5, 0.3]))
    assert not g.is_pure(np.diag([1.0, 0.3]))
    gu = g.random_gamma_unitary(4, seed=2)
    assert g.is_gamma_unitary(gu)
    assert not gu.flags.pure
    assert not g.is_gamma_unitary(g.random_pure_gamma(3, seed=7))
    # a Jordan block at the torus point (2, 1): boundary spectrum, not normal
    jordan = g.validate(np.array([[2.0, 1.0], [0.0, 2.0]]),
                        np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert not g.is_gamma_unitary(jordan)


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


def test_cnu_split_block_diagonal_mix():
    rng = np.random.default_rng(6)
    pure = g.random_pure_gamma(2, seed=21)
    gu = g.random_gamma_unitary(2, seed=22)
    u = matcore.haar_unitary(4, rng)
    s = u @ np.block([[gu.s, np.zeros((2, 2))], [np.zeros((2, 2)), pure.s]]) @ matcore.dagger(u)
    p = u @ np.block([[gu.p, np.zeros((2, 2))], [np.zeros((2, 2)), pure.p]]) @ matcore.dagger(u)
    split = g.cnu_split(g.validate(s, p))
    assert split.dim_unitary == 2
    assert split.unitary_part is not None and split.cnu_part is not None
    assert g.is_gamma_unitary(split.unitary_part)
    assert split.cnu_part.flags.pure
    assert matcore.op_norm(matcore.dagger(split.basis) @ split.basis - np.eye(4)) <= 1e-10
    # basis block-diagonalizes P
    pb = matcore.dagger(split.basis) @ p @ split.basis
    assert matcore.fro_norm(pb[:2, 2:]) + matcore.fro_norm(pb[2:, :2]) <= 1e-8


def test_cnu_split_trivial_cases():
    pure = g.random_pure_gamma(3, seed=30)
    sp = g.cnu_split(pure)
    assert sp.dim_unitary == 0 and sp.unitary_part is None
    assert sp.cnu_part is not None and sp.cnu_part.n == 3
    gu = g.random_gamma_unitary(3, seed=31)
    sg = g.cnu_split(gu)
    assert sg.dim_unitary == 3 and sg.cnu_part is None


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
