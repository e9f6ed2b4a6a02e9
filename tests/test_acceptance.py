"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test prints a single "[criterion NN] label: PASS" line after its
asserts, so the suite output doubles as the acceptance checklist.
"""

import json

import numpy as np
import pytest

import gammaops as g
from gammaops import cli, matcore


@pytest.fixture
def announce(capsys):
    def _announce(num, label):
        with capsys.disabled():
            print(f"[criterion {num:02d}] {label}: PASS")
    return _announce


def _rand_disc(rng, radius):
    return radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


def test_criterion_01_scalar_closed_form(announce):
    rng = np.random.default_rng(101)
    for _ in range(1000):
        z1, z2 = _rand_disc(rng, 0.95), _rand_disc(rng, 0.95)
        s, p = z1 + z2, z1 * z2
        fp = g.solve_fundamental(g.validate(np.array([[s]]), np.array([[p]])))
        assert abs(fp.f[0, 0] - g.scalar_fundamental(s, p)) <= 1e-12
        assert abs(fp.f_star[0, 0]
                   - g.scalar_fundamental(np.conj(s), np.conj(p))) <= 1e-12
    assert g.scalar_fundamental(1.0, 0.25) == pytest.approx(0.8, abs=1e-15)
    assert g.scalar_fundamental(1.0, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
    announce(1, "scalar solver matches the closed form to 1e-12")


def test_criterion_02_defining_equation_residuals(announce, corpus500):
    for pair, fp in corpus500:
        bound = 1e-9 * (1.0 + pair.norm_s)
        assert fp.residual_f <= bound
        assert fp.residual_f_star <= bound
    announce(2, "defining equations hold to 1e-9 on 500 pairs, n up to 12")


def test_criterion_03_numerical_radius_bound(announce, corpus500):
    for pair, fp in corpus500:
        assert fp.w_f <= 1.0 + 1e-8
        assert fp.w_f_star <= 1.0 + 1e-8
    sharp = g.solve_fundamental(
        g.validate(np.array([[0.0, 2.0], [0.0, 0.0]]), np.zeros((2, 2))))
    assert sharp.w_f == pytest.approx(1.0, abs=1e-9)
    announce(3, "numerical radius of F stays within 1 + 1e-8, sharp case hit")


def test_criterion_04_pf_intertwining(announce, corpus500):
    for pair, fp in corpus500:
        assert g.check_pf_intertwining(fp) <= 1e-8 * (1.0 + pair.norm_s)
    announce(4, "P F = F_star-adjoint P on the defect space across the corpus")


def test_criterion_05_transport_dual_route(announce):
    for k in range(50):
        pair = g.random_pure_gamma(1 + k % 8, seed=7000 + k)
        rng = np.random.default_rng(7100 + k)
        m = g.DiscAutomorphism(a=_rand_disc(rng, 0.9),
                               beta=np.exp(2j * np.pi * rng.uniform()))
        res = g.transport_crosscheck(g.solve_fundamental(pair), m)
        assert res.crosscheck_residual <= 1e-7
        assert res.x_identity_residual <= 1e-8
    announce(5, "closed-form transport agrees with re-solving, 50 draws")


def test_criterion_06_transported_probe(announce):
    for k in range(8):
        pair = g.random_pure_gamma(1 + k % 4, seed=7000 + k)
        rng = np.random.default_rng(7100 + k)
        m = g.DiscAutomorphism(a=_rand_disc(rng, 0.9),
                               beta=np.exp(2j * np.pi * rng.uniform()))
        tau = g.transport_pair(pair, m)
        rep = g.vn_probe(tau, trials=200, seed=7200 + k)
        assert rep.worst_ratio <= 1.0 + 1e-6
    announce(6, "transported pairs pass the polynomial spectral-set probe")


def test_criterion_07_kernel_and_complement(announce, pure100):
    radii = np.array([0.15, 0.35, 0.55, 0.75, 0.85, 0.9, 0.6, 0.3])
    angles = np.exp(2j * np.pi * np.arange(8) / 8)
    grid = np.outer(radii, angles).ravel()
    for k in range(10):
        pair = g.random_pure_gamma(1 + k % 5, seed=7300 + k)
        fp = g.solve_fundamental(pair)
        assert g.kernel_identity_residual(fp, grid, grid) <= 1e-9
    for pair in pure100:
        fp = g.solve_fundamental(pair)
        _, ledger = g.verify_model(fp, g.model_space(fp))
        assert ledger["complement_identity"] <= 1e-8
    announce(7, "kernel identity on a 64-point grid, complement on 100 pairs")


def test_criterion_08_model_equivalence(announce, pure100):
    for pair in pure100:
        fp = g.solve_fundamental(pair)
        md = g.model_space(fp)
        _, ledger = g.verify_model(fp, md)
        bound = 1e-8 * (1.0 + pair.norm_s)
        assert ledger["intertwine_s"] <= bound
        assert ledger["intertwine_p"] <= bound
        assert matcore.fro_norm(md.s1 - pair.s) <= 1e-7
        assert matcore.fro_norm(md.p1 - pair.p) <= 1e-7
        assert g.fstar_defect_identity_residual(fp) <= 1e-9
    announce(8, "functional model reproduces each pair through its basis")


def test_criterion_09_equivalence_round_trip(announce):
    for k in range(200):
        n = 1 + k % 6
        pair_a = g.random_pure_gamma(n, seed=4000 + k, max_norm=0.75)
        u = matcore.haar_unitary(n, np.random.default_rng(5000 + k))
        ud = matcore.dagger(u)
        pair_b = g.validate(u @ pair_a.s @ ud, u @ pair_a.p @ ud)
        fp_a, fp_b = g.solve_fundamental(pair_a), g.solve_fundamental(pair_b)
        witness, res = g.witness_from_ambient(u, fp_a, fp_b)
        for side in ("for_P", "for_P_star"):
            assert res[side]["unitarity"] <= 1e-8
            assert res[side]["defect_intertwine"] <= 1e-8
            assert res[side]["conjugation"] <= 1e-8
        rep = g.verify_equivalence(fp_a, fp_b, witness)
        assert rep.equivalent
        assert rep.model_confirmation["conjugation"] <= 1e-7

    for n in range(1, 7):
        pair_a = g.random_pure_gamma(n, seed=4300 + n, max_norm=0.75)
        u = matcore.haar_unitary(n, np.random.default_rng(5300 + n))
        ud = matcore.dagger(u)
        pair_b = g.validate(u @ pair_a.s @ ud, u @ pair_a.p @ ud)
        out = g.search_witness(g.solve_fundamental(pair_a),
                               g.solve_fundamental(pair_b), restarts=8, seed=n)
        assert out.status == "FOUND"
        assert out.report is not None and out.report.equivalent

    pair_x = g.validate(np.array([[1.0]]), np.array([[0.25]]))
    pair_y = g.validate(np.array([[1.0]]), np.array([[0.5]]))
    out = g.search_witness(g.solve_fundamental(pair_x),
                           g.solve_fundamental(pair_y), restarts=4, seed=0)
    assert out.status == "DISTINCT"
    assert out.screen is not None and out.screen.mismatch
    # fundamental operators are 0.8 and 2/3; the word gap peaks at length 3
    assert out.screen.max_gap == pytest.approx(0.8 ** 3 - (2.0 / 3.0) ** 3,
                                               abs=1e-12)
    announce(9, "planted conjugations verified, searched, scalars separated")


def test_criterion_10_truncation_convergence(announce):
    t1 = np.diag([0.9, 0.6, 0.3]).astype(complex)
    t2 = np.diag([8.0 / 9.0, 0.5, 0.4]).astype(complex)
    u = matcore.haar_unitary(3, np.random.default_rng(7))
    ud = matcore.dagger(u)
    pair = g.validate(u @ (t1 + t2) @ ud, u @ (t1 @ t2) @ ud)
    assert pair.spectral_radius_p == pytest.approx(0.8, abs=1e-12)
    fp = g.solve_fundamental(pair)
    worst = []
    for n_val in (16, 32, 64, 128):
        _, ledger = g.verify_model(fp, g.model_space(fp, n_val))
        worst.append(max(ledger.values()))
    for prev, nxt in zip(worst, worst[1:]):
        assert prev <= 1e-12 or nxt <= prev / 10.0
    assert worst[-1] <= 1e-12
    announce(10, "model residuals drop 10x per doubling down to 1e-12")


def test_criterion_11_cli_round_trip(announce, tmp_path, capsys):
    for seed in range(50):
        n = seed % 10 + 1
        path = str(tmp_path / f"gen{seed}.json")
        assert cli.main(["generate", "--dim", str(n), "--seed", str(seed),
                         "--out", path]) == 0
        report_path = str(tmp_path / f"rep{seed}.json")
        code = cli.main(["analyze", path, "--vn-trials", "16",
                         "--json", report_path])
        assert code == 0, (seed, open(report_path).read())

    bad = tmp_path / "malformed.json"
    bad.write_text('{"S": [[[0, 0]]], "P": [[[0, 0]]]}')
    assert cli.main(["analyze", str(bad)]) == 1
    assert "schema_version" in capsys.readouterr().err

    outside = tmp_path / "outside.json"
    outside.write_text(json.dumps({"schema_version": "1",
                                   "S": [[[3.0, 0.0]]], "P": [[[1.0, 0.0]]]}))
    out_report = str(tmp_path / "outside-report.json")
    assert cli.main(["analyze", str(outside), "--json", out_report]) == 2
    report = json.loads(open(out_report).read())
    assert report["probe"]["certificate"] is not None
    announce(11, "generate-analyze loop, malformed input, outside certificate")
