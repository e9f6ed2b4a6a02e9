import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize_scalar

from gammaops import matcore
from gammaops.exceptions import NotCommuting, NotHermitian, NotPSD


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_herm_sqrt_matches_scipy():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 9):
        b = crandn(rng, n, n)
        a = b @ matcore.dagger(b) + 0.1 * np.eye(n)
        root = matcore.herm_sqrt_psd(a)
        assert np.allclose(root @ root, a, atol=1e-11)
        assert np.allclose(root, scipy.linalg.sqrtm(a), atol=1e-9)
        assert matcore.hermiticity_defect(root) <= 1e-12 * (1 + np.linalg.norm(a))


def test_herm_sqrt_rejects_bad_input():
    with pytest.raises(NotHermitian):
        matcore.herm_sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotPSD):
        matcore.herm_sqrt_psd(-np.eye(3))


def test_herm_sqrt_clamps_rounding_negatives():
    # eigenvalues at -5e-13 are rounding noise, not a PSD violation
    a = np.diag([1.0, -5e-13])
    root = matcore.herm_sqrt_psd(a)
    assert root[1, 1] == 0.0


def test_range_onb_rank_and_orthonormality():
    rng = np.random.default_rng(1)
    for n, r in ((4, 2), (6, 3), (5, 5)):
        b = crandn(rng, n, r)
        basis = matcore.range_onb(b @ matcore.dagger(b))
        assert basis.rank == r
        q = basis.q
        assert np.allclose(matcore.dagger(q) @ q, np.eye(r), atol=1e-12)
    assert matcore.range_onb(np.zeros((3, 3))).rank == 0


def test_numerical_radius_normal_equals_spectral_radius():
    rng = np.random.default_rng(2)
    for n in (1, 3, 6):
        d = np.diag(crandn(rng, n))
        u = matcore.haar_unitary(n, rng)
        a = u @ d @ matcore.dagger(u)
        target = float(np.max(np.abs(np.diagonal(d))))
        assert matcore.numerical_radius(a) == pytest.approx(target, abs=1e-9)


def test_numerical_radius_jordan_block():
    # 2x2 nilpotent with entry 2c has numerical radius exactly c
    assert matcore.numerical_radius(np.array([[0, 2], [0, 0]])) == pytest.approx(1.0, abs=1e-12)
    assert matcore.numerical_radius(np.array([[0, 0.6], [0, 0]])) == pytest.approx(0.3, abs=1e-12)


def test_numerical_radius_bounds():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = crandn(rng, 5, 5)
        w = matcore.numerical_radius(a)
        nrm = matcore.op_norm(a)
        assert nrm / 2 - 1e-9 <= w <= nrm + 1e-9


def _radius_per_angle(a):
    """Oracle: the numerical radius with one eigvalsh call per angle."""
    ah = matcore.dagger(a)

    def top(t):
        h = 0.5 * (np.exp(1j * t) * a + np.exp(-1j * t) * ah)
        return float(np.linalg.eigvalsh(h)[-1])

    thetas = np.linspace(0.0, 2.0 * np.pi, matcore.RADIUS_SAMPLES, endpoint=False)
    vals = np.array([top(t) for t in thetas])
    span = 2.0 * np.pi / matcore.RADIUS_SAMPLES
    vmax = float(vals.max())
    margin = 4.0 * matcore.op_norm(a) * span * span + 10.0 * matcore.RADIUS_TOL
    best = vmax
    for k in range(matcore.RADIUS_SAMPLES):
        left, right = vals[k - 1], vals[(k + 1) % matcore.RADIUS_SAMPLES]
        if vals[k] < max(left, right) or vals[k] < vmax - margin:
            continue
        res = minimize_scalar(lambda t: -top(t),
                              bounds=(thetas[k] - span, thetas[k] + span),
                              method="bounded",
                              options={"xatol": matcore.RADIUS_XATOL})
        best = max(best, float(-res.fun))
    return vals, best


def test_radius_angle_grid_matches_per_angle_eigvalsh_bitwise():
    rng = np.random.default_rng(8)
    thetas = np.linspace(0.0, 2.0 * np.pi, matcore.RADIUS_SAMPLES, endpoint=False)
    for n in (2, 6, 12, 40):
        a = crandn(rng, n, n)
        vals, radius = _radius_per_angle(a)
        grid = np.concatenate([
            matcore._top_eig_herm_part(a, matcore.dagger(a), thetas[blk])
            for blk in matcore.batches(len(thetas), a.nbytes)])
        assert grid.tobytes() == vals.tobytes()
        assert matcore.numerical_radius(a) == radius


def test_batches_cover_the_range_within_the_budget():
    for count, item in ((0, 8), (1, 10**9), (256, 64), (256, 2304), (203, 33280)):
        blocks = matcore.batches(count, item)
        assert [i for b in blocks for i in range(count)[b]] == list(range(count))
        for b in blocks:
            size = b.stop - b.start
            assert size >= 1 and (size == 1 or size * item <= matcore.BATCH_BYTES)


def test_haar_unitary_is_unitary_and_seeded():
    u1 = matcore.haar_unitary(7, np.random.default_rng(11))
    u2 = matcore.haar_unitary(7, np.random.default_rng(11))
    assert np.array_equal(u1, u2)
    assert np.allclose(matcore.dagger(u1) @ u1, np.eye(7), atol=1e-12)


def test_polar_unitary_properties():
    rng = np.random.default_rng(4)
    a = crandn(rng, 6, 6)
    u = matcore.polar_unitary(a)
    assert np.allclose(matcore.dagger(u) @ u, np.eye(6), atol=1e-12)
    # the positive factor recovered through u must be PSD Hermitian
    h = matcore.dagger(u) @ a
    assert matcore.hermiticity_defect(h) <= 1e-10 * (1 + np.linalg.norm(h))
    v = matcore.haar_unitary(6, rng)
    assert np.allclose(matcore.polar_unitary(v), v, atol=1e-12)


def test_commutation_defect_and_guard():
    rng = np.random.default_rng(5)
    a = crandn(rng, 4, 4)
    assert matcore.commutation_defect(a, a @ a) <= 1e-13
    b = crandn(rng, 4, 4)
    with pytest.raises(NotCommuting):
        matcore.require_commuting(a, b)


def test_joint_eigs_commuting_diagonal_oracle():
    rng = np.random.default_rng(6)
    d1 = np.diag(crandn(rng, 5))
    d2 = np.diag(crandn(rng, 5))
    u = matcore.haar_unitary(5, rng)
    s = u @ d1 @ matcore.dagger(u)
    p = u @ d2 @ matcore.dagger(u)
    got = matcore.joint_eigs_commuting(s, p)
    want = sorted(zip(np.diagonal(d1), np.diagonal(d2)),
                  key=lambda t: (t[0].real, t[0].imag, t[1].real, t[1].imag))
    for (gs, gp), (ws, wp) in zip(got, want):
        assert abs(gs - ws) <= 1e-9
        assert abs(gp - wp) <= 1e-9


def test_op_norm_hermitian_matches_dense():
    # at dim <= POWER_ITERS the Krylov space is exhausted: exact to rounding
    rng = np.random.default_rng(7)
    for dim in (1, 2, 30):
        b = crandn(rng, dim, dim)
        h = b + matcore.dagger(b)
        got = matcore.op_norm_hermitian(lambda x: h @ x, dim)
        assert got == pytest.approx(matcore.op_norm(h), rel=1e-12)
    assert matcore.op_norm_hermitian(lambda x: 0.0 * x, 5) == 0.0
    assert matcore.op_norm_hermitian(lambda x: x, 0) == 0.0


def test_lift_restrict_roundtrip():
    rng = np.random.default_rng(8)
    b = crandn(rng, 5, 3)
    basis = matcore.range_onb(b @ matcore.dagger(b))
    m = crandn(rng, basis.rank, basis.rank)
    assert np.allclose(matcore.restrict(basis, matcore.lift(basis, m)), m, atol=1e-12)
