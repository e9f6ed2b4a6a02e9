import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize_scalar

import gammaops as g
from gammaops import matcore
from gammaops.exceptions import (
    NotCommuting,
    NotHermitian,
    NotPSD,
    TriangularizationFailure,
)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _psd_sqrt(a):
    """The Hermitian PSD square root V diag(w^(1/2)) V* of ``psd_eigh``'s pairs."""
    w, v = matcore.psd_eigh(a, matcore.EIG_CLAMP_TOL)
    return (v * np.sqrt(w)) @ matcore.dagger(v)


def test_herm_sqrt_matches_scipy():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 9):
        b = crandn(rng, n, n)
        a = b @ matcore.dagger(b) + 0.1 * np.eye(n)
        root = _psd_sqrt(a)
        assert np.allclose(root @ root, a, atol=1e-11)
        assert np.allclose(root, scipy.linalg.sqrtm(a), atol=1e-9)
        assert matcore.hermiticity_defect(root) <= 1e-12 * (1 + np.linalg.norm(a))


def test_herm_sqrt_rejects_bad_input():
    with pytest.raises(NotHermitian):
        _psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotPSD):
        _psd_sqrt(-np.eye(3))


def test_herm_sqrt_clamps_rounding_negatives():
    # eigenvalues at -5e-13 are rounding noise, not a PSD violation
    a = np.diag([1.0, -5e-13])
    root = _psd_sqrt(a)
    assert root[1, 1] == 0.0


def test_psd_eigh_zeroes_eigenvalues_inside_its_clamp():
    a = np.diag([1.0, 5e-10, -5e-10])
    w, v = matcore.psd_eigh(a, 1e-9)
    assert np.array_equal(w, [0.0, 0.0, 1.0])
    assert np.allclose(matcore.dagger(v) @ v, np.eye(3), atol=1e-15)
    with pytest.raises(NotPSD):
        matcore.psd_eigh(a, 1e-10)


def test_null_onb_rank_and_orthonormality():
    # the singular values come back too, those of k itself, largest first,
    # and the right singular vectors, the nullspace basis their last columns
    # past the singular values above the caller's bound
    rng = np.random.default_rng(4)
    for rows, n, r in ((8, 4, 2), (12, 6, 6), (5, 5, 1)):
        k = crandn(rng, rows, r) @ crandn(rng, r, n)
        q, s, v = matcore.null_onb(k, 1e-10 * matcore.fro_norm(k))
        assert q.shape == (n, n - r)
        assert np.allclose(matcore.dagger(q) @ q, np.eye(n - r), atol=1e-12)
        assert matcore.fro_norm(k @ q) <= 1e-12 * matcore.fro_norm(k)
        want = scipy.linalg.svdvals(k)
        assert s.shape == want.shape and np.all(np.diff(s) <= 0.0)
        assert np.max(np.abs(s - want)) <= 1e-13 * want[0]
        assert np.array_equal(v[:, r:], q)
        assert np.allclose(matcore.dagger(v) @ v, np.eye(n), atol=1e-12)
        assert np.allclose(np.linalg.norm(k @ v, axis=0), s, atol=1e-12 * s[0])
    # a matrix of rounding alone has rank 0 at a bound on the scale of what
    # it stands for, though a cut relative to its largest singular value
    # would find it full rank
    k = 1e-15 * crandn(rng, 12, 3)
    q, s, v = matcore.null_onb(k, 1e-10)
    assert q.shape == v.shape == (3, 3) and np.all(s > 1e-10 * s[0])
    # a zero matrix has rank 0 at any bound, zero included
    for bound in (0.0, 1e-10):
        q, s, v = matcore.null_onb(np.zeros((6, 3)), bound)
        assert q.shape == v.shape == (3, 3) and np.array_equal(s, np.zeros(3))


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
    # J_k has a disc for numerical range, so lambda_max(Re J_k) is already
    # the radius: the first level has no crossing and the pencil is
    # singular at the second, lambda_max(Re J_k) itself
    for k in range(2, 6):
        assert matcore.numerical_radius(np.eye(k, k=1)) == pytest.approx(
            np.cos(np.pi / (k + 1)), abs=1e-12)


def test_numerical_radius_bounds():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = crandn(rng, 5, 5)
        w = matcore.numerical_radius(a)
        nrm = matcore.op_norm(a)
        assert nrm / 2 - 1e-9 <= w <= nrm + 1e-9


#: Angle samples, polish tolerance and peak slack of the reference below.
_GRID_SAMPLES = 256
_GRID_XATOL = 1e-9
_GRID_SLACK = 1e-9


def _radius_per_angle(a):
    """Reference: a uniform angle grid, one eigvalsh call per angle, and a
    bounded polish of every grid peak within the curvature margin."""
    ah = matcore.dagger(a)

    def top(t):
        h = 0.5 * (np.exp(1j * t) * a + np.exp(-1j * t) * ah)
        return float(np.linalg.eigvalsh(h)[-1])

    thetas = np.linspace(0.0, 2.0 * np.pi, _GRID_SAMPLES, endpoint=False)
    vals = np.array([top(t) for t in thetas])
    span = 2.0 * np.pi / _GRID_SAMPLES
    vmax = float(vals.max())
    margin = 4.0 * matcore.op_norm(a) * span * span + _GRID_SLACK
    best = vmax
    for k in range(_GRID_SAMPLES):
        left, right = vals[k - 1], vals[(k + 1) % _GRID_SAMPLES]
        if vals[k] < max(left, right) or vals[k] < vmax - margin:
            continue
        res = minimize_scalar(lambda t: -top(t),
                              bounds=(thetas[k] - span, thetas[k] + span),
                              method="bounded", options={"xatol": _GRID_XATOL})
        best = max(best, float(-res.fun))
    return best


def test_level_set_radius_reaches_the_grid_reference(corpus500):
    rng = np.random.default_rng(8)
    mats = [crandn(rng, n, n) for n in (2, 6, 12, 40)]
    radii = [m for _, fp in corpus500 for m in (fp.f, fp.f_star) if m.size]
    for k in np.random.default_rng(14).choice(len(radii), 100, replace=False):
        mats.append(radii[k])
    for a in mats:
        w, nrm = matcore.numerical_radius(a), matcore.op_norm(a)
        assert w >= _radius_per_angle(a) - 1e-12 * (1.0 + nrm)
        # a 1 x 1 radius is |a|, which the SVD behind |A| may round 1 ulp lower
        assert w <= nrm * (1.0 + 1e-15)


def test_level_set_radius_past_singular_and_trivial_pencils():
    # J_2 + [0.6i]: lambda_max(Re A) is the disc radius 0.5 of J_2 at
    # every angle, the radius 0.6 is that of the other block
    a = np.zeros((3, 3), dtype=complex)
    a[0, 1], a[2, 2] = 1.0, 0.6j
    u = matcore.haar_unitary(3, np.random.default_rng(9))
    b = u @ a @ matcore.dagger(u)
    assert matcore.numerical_radius(b) == pytest.approx(0.6, abs=1e-12)
    # lambda_max(Re A) is the minimum over theta where W(A) points left or
    # has its narrowest points on the axes; a level there only touches
    assert matcore.numerical_radius([[-0.4, 1.6], [0.0, -0.4]]) == pytest.approx(
        1.2, abs=1e-12)
    assert matcore.numerical_radius(-np.eye(2)) == pytest.approx(1.0, abs=1e-12)
    shift = np.eye(4, k=-1, dtype=complex)
    shift[0, 3] = 0.5
    for c in (np.exp(0.25j * np.pi) * shift, np.exp(0.75j * np.pi) * shift,
              np.diag([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])):
        assert matcore.numerical_radius(c) == pytest.approx(_radius_per_angle(c), abs=1e-12)
    # lambda_max(Re A) 4.2e-11 below the radius, which lambda_max(Re M) is
    m = np.array([[1.0, 1.0], [0.0, 0.2]])
    assert matcore.numerical_radius(np.exp(1e-5j) * m) == pytest.approx(
        np.linalg.eigvalsh(0.5 * (m + m.T))[-1], abs=1e-14)
    assert matcore.numerical_radius(np.zeros((0, 0))) == 0.0
    assert matcore.numerical_radius([[3.0 - 4.0j]]) == 5.0
    assert matcore.numerical_radius(np.zeros((4, 4))) == 0.0
    # the power-of-two scaling is exact, far beyond the range of |A|^2
    for a in (b, crandn(np.random.default_rng(10), 6, 6)):
        w = matcore.numerical_radius(a)
        for c in (2.0 ** 1000, 2.0 ** -1000):
            assert matcore.numerical_radius(c * a) == c * w


def _peak_off_eigen_angles():
    """2 x 2 block, eigen-angles -+pi/5, whose f peaks at 1.772 at theta = -0.111.

    f there is 1.702 and 1.647 at the eigen-angles: the start angles miss
    the peak.
    """
    beta = np.pi / 5
    return np.array([[np.exp(1j * beta), 2.0], [0.0, 0.9 * np.exp(-1j * beta)]])


def _start_values(a):
    """The start angles (0 and the negated eigenvalue arguments) and f at each."""
    angles = np.append(0.0, -np.angle(np.linalg.eigvals(a)))
    h = [0.5 * (np.exp(1j * t) * a + np.exp(-1j * t) * matcore.dagger(a)) for t in angles]
    return angles, np.array([np.linalg.eigvalsh(m)[-1] for m in h])


def test_level_set_midpoints_stay_inside_the_batch_budget(monkeypatch):
    # five turned copies of a block whose peak lies off its eigen-angles,
    # beside the normal eigenvalues 1.74 e^{-2 pi i / 5} and 0.5: the start
    # is the local maximum 1.74 between two peaks near 1.772, and the start
    # batch and the midpoints of the passes hold more than 2n matrices
    n = 12
    turns = np.exp(1j * np.pi / 5 * (1 - 2 * np.arange(5))) * (1.0 + 1e-6 * np.arange(5))
    a = scipy.linalg.block_diag(*(t * _peak_off_eigen_angles() for t in turns),
                                [[1.74 * np.exp(-0.4j * np.pi)]], [[0.5]])
    u = matcore.haar_unitary(n, np.random.default_rng(12))
    a = u @ a @ matcore.dagger(u)
    w = matcore.numerical_radius(a)
    assert w == pytest.approx(_radius_per_angle(a), abs=1e-12)
    eigvalsh, sizes = np.linalg.eigvalsh, []

    def spy(h):
        sizes.append(1 if h.ndim == 2 else h.shape[0])
        return eigvalsh(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    for budget in (matcore.BATCH_BYTES, 1, 5 * a.nbytes):
        monkeypatch.setattr(matcore, "BATCH_BYTES", budget)
        sizes.clear()
        assert matcore.numerical_radius(a) == w
        assert max(sizes) <= max(1, budget // a.nbytes) and sum(sizes) > 2 * n


def test_level_set_start_at_a_local_not_global_maximum():
    # the normal eigenvalue 1.74i makes f = 1.74 a local maximum at
    # theta = -pi/2; the turned block peaks at 1.772 away from every start
    a = scipy.linalg.block_diag(np.exp(0.2j * np.pi) * _peak_off_eigen_angles(),
                                [[1.74j]], [[0.3]])
    u = matcore.haar_unitary(4, np.random.default_rng(15))
    a = u @ a @ matcore.dagger(u)
    angles, values = _start_values(a)
    start = angles[np.argmax(values)]
    assert values.max() == pytest.approx(1.74, abs=1e-12)
    for t in (start - 1e-3, start + 1e-3):
        h = 0.5 * (np.exp(1j * t) * a + np.exp(-1j * t) * matcore.dagger(a))
        assert np.linalg.eigvalsh(h)[-1] < values.max()
    w, ref = matcore.numerical_radius(a), _radius_per_angle(a)
    assert ref > 1.77
    assert w == pytest.approx(ref, abs=1e-12 * (1.0 + matcore.op_norm(a)))


def test_level_set_degenerate_top_at_the_start():
    # two copies of the turned block: every top eigenvalue is double, and
    # the best start, 1.702, lies below the peak 1.772
    block = np.exp(0.2j * np.pi) * _peak_off_eigen_angles()
    u = matcore.haar_unitary(4, np.random.default_rng(16))
    a = u @ scipy.linalg.block_diag(block, block) @ matcore.dagger(u)
    angles, values = _start_values(a)
    t = angles[np.argmax(values)]
    top = np.linalg.eigvalsh(0.5 * (np.exp(1j * t) * a + np.exp(-1j * t) * matcore.dagger(a)))
    assert top[-1] - top[-2] <= 1e-12 and values.max() < 1.71
    w, ref = matcore.numerical_radius(a), _radius_per_angle(a)
    assert w == pytest.approx(ref, abs=1e-12 * (1.0 + matcore.op_norm(a)))
    # two copies of a block that peaks at 1.309 at theta = -2e-5, off its
    # eigen-angles: the double top at the start theta = 0 lies 2.4e-11
    # below, so the first level has no crossing; the second pass, at the
    # start's own value, climbs the rest
    m = np.array([[np.exp(0.2j * np.pi), 1.0], [0.0, np.exp(-0.2j * np.pi)]])
    b = u @ scipy.linalg.block_diag(m, m) @ matcore.dagger(u) * np.exp(2e-5j)
    assert matcore.numerical_radius(b) == pytest.approx(
        np.linalg.eigvalsh(0.5 * (m + matcore.dagger(m)))[-1], abs=1e-14)
    # a double top eigenvalue that is the maximum: I_2 beside a smaller block
    c = u @ scipy.linalg.block_diag(np.eye(2), 0.3 * block) @ matcore.dagger(u)
    assert matcore.numerical_radius(c) == pytest.approx(
        _radius_per_angle(c), abs=1e-12 * (1.0 + matcore.op_norm(c)))


def test_level_set_flat_f():
    # W(1.5 J_3) is the disc of radius 1.5 cos(pi / 4), which holds W of the
    # other block: f is the same at every angle
    a = scipy.linalg.block_diag(1.5 * np.eye(3, k=1), [[0.3 * np.exp(0.7j)]])
    u = matcore.haar_unitary(4, np.random.default_rng(17))
    a = u @ a @ matcore.dagger(u)
    _, values = _start_values(a)
    assert np.ptp(values) <= 1e-14
    w, ref = matcore.numerical_radius(a), _radius_per_angle(a)
    assert w == pytest.approx(ref, abs=1e-12 * (1.0 + matcore.op_norm(a)))
    assert w == pytest.approx(1.5 * np.cos(np.pi / 4), abs=1e-14)


def test_level_set_radius_takes_about_one_pencil_per_call(corpus500, monkeypatch):
    # the start is a local maximum on nearly every corpus F and F_*, so the
    # first pencil has no crossing and certifies the radius; counts QZ
    # calls, the workspace queries left out, and times nothing
    zggev, solves = scipy.linalg.lapack.zggev, []

    def spy(*args, **kwargs):
        if kwargs.get("lwork") != -1:
            solves.append(len(args))
        return zggev(*args, **kwargs)

    monkeypatch.setattr(matcore.scipy.linalg.lapack, "zggev", spy)
    mats = [m for _, fp in corpus500 for m in (fp.f, fp.f_star) if m.shape[0] > 1]
    for m in mats:
        matcore.numerical_radius(m)
    assert 0 < len(solves) <= 1.2 * len(mats)


def test_level_set_radius_is_bitwise_the_eigvals_route(
        corpus500, eigvals_radius):
    # the pencil built in place and solved by zggev with eigvals' workspace
    # gives every radius of the corpus F and F_* bit for bit, the 1 x 1 and
    # zero matrices included
    mats = [m for _, fp in corpus500 for m in (fp.f, fp.f_star)]
    got = np.array([matcore.numerical_radius(m) for m in mats])
    want = np.array([eigvals_radius(m) for m in mats])
    assert got.tobytes() == want.tobytes()


def test_level_set_radius_refuses_what_eigvals_refuses(monkeypatch):
    # a non-finite pencil raises eigvals' ValueError before LAPACK sees it,
    # and a QZ that fails to converge raises LinAlgError, as eigvals does
    a = np.array([[0.5, 0.2], [0.1j, -0.3]])
    monkeypatch.setattr(matcore, "_newton_peak", lambda *args: (np.nan, True))
    with pytest.raises(ValueError, match="infs or NaNs"):
        matcore.numerical_radius(a)
    monkeypatch.undo()
    zggev = scipy.linalg.lapack.zggev

    def failing(*args, **kwargs):
        out = zggev(*args, **kwargs)
        return out if kwargs.get("lwork") == -1 else (*out[:-1], 2)

    monkeypatch.setattr(matcore.scipy.linalg.lapack, "zggev", failing)
    with pytest.raises(np.linalg.LinAlgError, match="info=2"):
        matcore.numerical_radius(a)


def test_level_set_radius_matches_the_reference_to_rounding(corpus500):
    # the Newton polish of the start ends at the peak to rounding, so the
    # one-pencil radius is the reference's, not merely within RADIUS_TOL
    mats = [m for _, fp in corpus500 for m in (fp.f, fp.f_star) if m.shape[0] > 1]
    for k in np.random.default_rng(20).choice(len(mats), 60, replace=False):
        a = mats[k]
        assert matcore.numerical_radius(a) == pytest.approx(
            _radius_per_angle(a), abs=2e-15 * (1.0 + matcore.op_norm(a)))


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
    # square, then tall: the factor of a tall matrix is an isometry
    for rows, cols in ((6, 6), (5, 2), (40, 3)):
        a = crandn(rng, rows, cols)
        u = matcore.polar_unitary(a)
        assert u.shape == (rows, cols)
        assert np.allclose(matcore.dagger(u) @ u, np.eye(cols), atol=1e-12)
        # the positive factor recovered through u must be PSD Hermitian
        h = matcore.dagger(u) @ a
        assert matcore.hermiticity_defect(h) <= 1e-10 * (1 + np.linalg.norm(h))
    v = matcore.haar_unitary(6, rng)
    assert np.allclose(matcore.polar_unitary(v), v, atol=1e-12)


def _require_commuting(s, p):
    """``require_commuting`` at the operator norms of S and P."""
    matcore.require_commuting(s, p, matcore.op_norm(s), matcore.op_norm(p))


def test_commutation_defect_and_guard():
    rng = np.random.default_rng(5)
    a = crandn(rng, 4, 4)
    assert matcore.commutation_defect(a, a @ a) <= 1e-13
    b = crandn(rng, 4, 4)
    with pytest.raises(NotCommuting):
        _require_commuting(a, b)
    # |S| |P| overflows comm_tol; the rule is tested on S 2^-a and P 2^-b
    s = 1e155 * np.array([[1.0, 0.0], [0.0, 0.0]])
    p = 1e154 * np.array([[0.0, 0.01], [0.0, 1.0]])
    assert matcore.comm_tol(matcore.op_norm(s), matcore.op_norm(p)) == np.inf
    with pytest.raises(NotCommuting) as err:
        _require_commuting(s, p)  # the commutator is 1% of |S| |P|
    assert "inf" not in str(err.value) and "nan" not in str(err.value)
    assert "in units of 2^" in str(err.value)
    huge = np.diag([0.0, 1.7e308])
    _require_commuting(huge, huge)
    # relative commutator 1e-200
    _require_commuting(np.diag([1e200, 0.0]),
                       np.array([[0.0, 1.0], [0.0, 1e200]]))


def test_is_normal_decides_on_a_finite_defect():
    # A A* - A* A overflows at 1e300; the rule is tested on A 2^-e, so the
    # decision is made on a finite defect and nothing warns
    j = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert matcore.is_normal(np.array([[1e300]], dtype=complex))
        assert not matcore.is_normal(1e300 * j)
        assert matcore.is_normal(1e300 * np.diag([1.0, 1j]))
        # tiny entries pass, as they do unscaled
        assert matcore.is_normal(1e-300 * j)
        assert not matcore.is_normal(j)
        assert g.is_gamma_unitary(g.validate([[1e300]], [[0.5]])) is False


def test_common_schur_fails_where_its_scale_overflows():
    # J and J^T have no common triangular form, at any scale
    j = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(TriangularizationFailure):
        matcore._common_schur(1e308 * j, 1e308 * j.T)
    # a diagonal pair beyond the range of 1 + |S|_F + |P|_F is scaled back
    s = np.diag([1.7e308, -1.7e308]).astype(complex)
    p = np.diag([0.5, 0.25]).astype(complex)
    ms, mp, _ = matcore._common_schur(s, p)
    assert sorted(np.diagonal(ms).real) == [-1.7e308, 1.7e308]
    assert sorted(np.diagonal(mp).real) == [0.25, 0.5]


def test_joint_eigs_commuting_diagonal_oracle():
    rng = np.random.default_rng(6)
    d1 = np.diag(crandn(rng, 5))
    d2 = np.diag(crandn(rng, 5))
    u = matcore.haar_unitary(5, rng)
    s = u @ d1 @ matcore.dagger(u)
    p = u @ d2 @ matcore.dagger(u)
    got = matcore.joint_eigs_commuting(s, p, matcore.op_norm(s), matcore.op_norm(p))
    want = sorted(zip(np.diagonal(d1), np.diagonal(d2)),
                  key=lambda t: (t[0].real, t[0].imag, t[1].real, t[1].imag))
    for (gs, gp), (ws, wp) in zip(got, want):
        assert abs(gs - ws) <= 1e-9
        assert abs(gp - wp) <= 1e-9


def test_op_norm_is_inf_not_nan_beyond_the_float_range():
    # LAPACK's SVD gives NaN where an entry's modulus overflows; a NaN |P|
    # passed the |P| > 1 test of defect_pair and overflowed its Gramians
    assert matcore.op_norm(np.array([[1e308 + 1e308j, 0.0], [0.0, 0.1]])) \
        == pytest.approx(np.sqrt(2.0) * 1e308)
    assert matcore.op_norm(np.array([[1.6e308 + 1.3e308j]])) == np.inf


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
    q, _ = np.linalg.qr(b)
    m = crandn(rng, q.shape[1], q.shape[1])
    # Q m Q* is the ambient operator that acts as m on the range of Q
    assert np.allclose(matcore.restrict(q, q @ m @ matcore.dagger(q)), m, atol=1e-12)


def test_polar_unitary_is_the_isometric_polar_factor():
    # M = U H with U having orthonormal columns and H = U* M Hermitian PSD,
    # for tall and square M; dagger of a stack is the stack of daggers
    rng = np.random.default_rng(5)
    for shape in ((1, 1), (2, 2), (6, 6), (12, 12), (7, 3), (12, 5), (6, 1)):
        m = crandn(rng, *shape)
        u = matcore.polar_unitary(m)
        h = matcore.dagger(u) @ m
        scale = matcore.op_norm(m)
        assert u.shape == m.shape
        assert matcore.op_norm(matcore.dagger(u) @ u - np.eye(shape[1])) <= 1e-13
        assert matcore.fro_norm(h - matcore.dagger(h)) <= 1e-13 * scale
        assert np.linalg.eigvalsh(h + matcore.dagger(h)).min() >= -1e-13 * scale
        assert matcore.fro_norm(u @ h - m) <= 1e-13 * scale
    for k in (1, 2, 6, 12):
        stack = crandn(rng, 7, k, k)
        for m, m_h in zip(stack, matcore.dagger(stack)):
            assert np.array_equal(m_h, matcore.dagger(m))
    assert matcore.polar_unitary(np.zeros((3, 0), dtype=complex)).shape == (3, 0)
