import numpy as np
import pytest

import gammaops as g
from gammaops import matcore
from gammaops.exceptions import NotInvertible, SingularDenominator, SingularResolvent
from gammaops.gamma_domain import SymPoint


def _random_auto(rng, max_a=0.9):
    a = max_a * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    return g.DiscAutomorphism(a=a, beta=np.exp(2j * np.pi * rng.uniform()))


def test_transport_matches_scalar_action():
    rng = np.random.default_rng(10)
    for _ in range(50):
        z1 = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        z2 = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        pair = g.validate(np.array([[z1 + z2]]), np.array([[z1 * z2]]))
        m = _random_auto(rng)
        tau = g.transport_pair(pair, m)
        want = g.mobius_point(SymPoint(z1 + z2, z1 * z2), m)
        assert tau.s[0, 0] == pytest.approx(want.s, abs=1e-11)
        assert tau.p[0, 0] == pytest.approx(want.p, abs=1e-11)


def test_transport_moves_joint_spectrum():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pair = g.random_pure_gamma(int(rng.integers(2, 6)),
                                   seed=int(rng.integers(1 << 30)))
        m = _random_auto(rng, max_a=0.8)
        tau = g.transport_pair(pair, m)
        assert tau.necessary_ok
        moved = sorted((g.mobius_point(pt, m) for pt in pair.joint_spectrum),
                       key=lambda q: (round(q.s.real, 7), round(q.s.imag, 7)))
        got = sorted(tau.joint_spectrum,
                     key=lambda q: (round(q.s.real, 7), round(q.s.imag, 7)))
        for a, b in zip(moved, got):
            assert abs(a.s - b.s) <= 1e-7 and abs(a.p - b.p) <= 1e-7


def test_transport_identity_automorphism():
    pair = g.random_pure_gamma(4, seed=40)
    ident = g.DiscAutomorphism(a=0.0, beta=1.0)
    tau = g.transport_pair(pair, ident)
    assert matcore.fro_norm(tau.s - pair.s) <= 1e-12
    assert matcore.fro_norm(tau.p - pair.p) <= 1e-12


def test_transport_group_property():
    # transporting by m then by a second automorphism equals one combined map
    rng = np.random.default_rng(12)
    pair = g.random_pure_gamma(3, seed=41)
    m1 = _random_auto(rng, max_a=0.5)
    m2 = _random_auto(rng, max_a=0.5)
    two_step = g.transport_pair(g.transport_pair(pair, m1), m2)
    back = g.transport_pair(g.transport_pair(two_step, m2.inverse()), m1.inverse())
    assert matcore.fro_norm(back.s - pair.s) <= 1e-9 * (1 + pair.norm_s)
    assert matcore.fro_norm(back.p - pair.p) <= 1e-9 * (1 + pair.norm_p)


def test_singular_resolvent_raises():
    # scalar pair with root exactly at 1/conj(a)
    a = 0.5
    s = np.array([[2.0 + 0.1]]); p = np.array([[0.2]])
    with pytest.raises(SingularResolvent):
        g.transport_pair(g.validate(s, p), g.DiscAutomorphism(a=a, beta=1.0))


def test_scalar_and_operator_denominators_share_one_floor():
    # q = 1 - conj(a) s + conj(a)^2 p is about -1e-13 here, below RESOLVENT_FLOOR
    m = g.DiscAutomorphism(a=0.5, beta=1.0)
    s, p = 2.0 + 2e-13, 0.0
    assert abs(1.0 - 0.5 * s) < matcore.RESOLVENT_FLOOR
    with pytest.raises(SingularDenominator):
        g.mobius_point(SymPoint(s, p), m)
    with pytest.raises(SingularResolvent):
        g.transport_pair(g.validate(np.array([[s]]), np.array([[p]])), m)


def test_crosscheck_residuals_small():
    rng = np.random.default_rng(13)
    for k in range(30):
        pair = g.random_pure_gamma(1 + k % 5, seed=300 + k)
        m = _random_auto(rng, max_a=0.9)
        res = g.transport_crosscheck(g.solve_fundamental(pair), m)
        scale = 1.0 + matcore.op_norm(res.fp_tau.f)
        assert res.crosscheck_residual <= 1e-7 * scale
        assert res.x_identity_residual <= 1e-8 * (1.0 + pair.norm_p)
        assert res.u_unitarity_defect <= 1e-8


def test_crosscheck_scalar_closed_form():
    pair = g.validate(np.array([[1.0]]), np.array([[0.25]]))
    m = g.DiscAutomorphism(a=0.3, beta=1.0)
    res = g.transport_crosscheck(g.solve_fundamental(pair), m)
    s_t, p_t = res.fp_tau.pair.s[0, 0], res.fp_tau.pair.p[0, 0]
    want = g.scalar_fundamental(s_t, p_t)
    assert res.f_tau_closed[0, 0] == pytest.approx(want, abs=1e-12)
    assert res.fp_tau.f[0, 0] == pytest.approx(want, abs=1e-12)


def test_transport_fundamental_refuses_a_g_that_is_not_positive_definite():
    # F = [[2]] has G = 1 + a^2 - 4a: -0.75 at a = 0.5, zero at a = 2 - sqrt(3)
    f, u = np.array([[2.0]]), np.eye(1)
    for a in (0.5, 2.0 - np.sqrt(3.0)):
        with pytest.raises(NotInvertible):
            g.transport_fundamental(f, g.DiscAutomorphism(a=a, beta=1.0), u)


def test_crosscheck_of_an_empty_defect():
    fp = g.solve_fundamental(g.random_gamma_unitary(3, seed=13))
    res = g.transport_crosscheck(fp, g.DiscAutomorphism(a=0.3 + 0.2j, beta=1.0))
    assert res.f_tau_closed.shape == res.u_defect.shape == (0, 0)
    assert res.crosscheck_residual == res.x_identity_residual == 0.0


def test_radius_bound_preserved():
    rng = np.random.default_rng(14)
    for k in range(15):
        pair = g.random_pure_gamma(1 + k % 4, seed=500 + k)
        m = _random_auto(rng, max_a=0.85)
        res = g.transport_crosscheck(g.solve_fundamental(pair), m)
        assert res.fp_tau.w_f <= 1.0 + 1e-8
        assert res.fp_tau.w_f_star <= 1.0 + 1e-8


def test_crosscheck_solves_only_the_transported_pair(monkeypatch):
    from gammaops import mobius

    pair = g.random_pure_gamma(3, seed=520)
    fp = g.solve_fundamental(pair)
    m = g.DiscAutomorphism(a=0.4 - 0.2j, beta=np.exp(0.3j))
    solved = []

    def counted(p):
        solved.append(p)
        return g.solve_fundamental(p)

    monkeypatch.setattr(mobius, "solve_fundamental", counted)
    res = g.transport_crosscheck(fp, m)
    assert solved == [res.fp_tau.pair]
    # the condition number is that of the resolvent the crosscheck forms,
    # from the one SVD (vectors included) that also divides by it
    ac = np.conj(m.a)
    _, sv, _ = np.linalg.svd(np.eye(3) - ac * pair.s + ac * ac * pair.p)
    assert res.cond_resolvent == sv[0] / sv[-1]
