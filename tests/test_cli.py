import importlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings, strategies as st

import gammaops as g
from gammaops import cli, invariant, matcore
from gammaops.exceptions import PairFileError
from gammaops.matcore import MODEL_CONFIRM_TOL


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


def _reject_constant(name):
    raise ValueError(f"report is not strict JSON: it contains {name}")


def _report(text: str) -> dict:
    """Parse a report, refusing the non-standard Infinity, -Infinity and NaN."""
    return json.loads(text, parse_constant=_reject_constant)


def _pair_doc(pair, **meta):
    return cli.pair_file_doc(pair.s, pair.p, meta or None)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(25)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    # a signed zero and subnormals keep their bits through the JSON text
    m[0, 0], m[1, 2] = complex(-0.0, 5e-324), complex(-1e-310, -0.0)
    back = cli.matrix_from_json(json.loads(json.dumps(cli.matrix_to_json(m))), "M")
    assert back.tobytes() == m.tobytes()


def test_matrix_from_json_converts_at_once_and_diagnoses_each_field():
    # a well-formed array converts in one step, bitwise as the cell-by-cell
    # parse; each malformed field keeps its message, path included
    rng = np.random.default_rng(5)
    node = cli.matrix_to_json(rng.standard_normal((5, 4))
                              + 1j * rng.standard_normal((5, 4)))
    node[0][0] = [2, -0.0]  # ints and signed zeros are plain numbers
    want = np.array([[complex(re, im) for re, im in row] for row in node])
    got = cli.matrix_from_json(node, "S")
    assert got.dtype == complex and got.tobytes() == want.tobytes()
    cases = [
        ([[[True, 0.0]]], "S[0][0][0]: expected a number, got bool"),
        ([[[0.0, "1"]]], "S[0][0][1]: expected a number, got str"),
        ([[[0.0, 0.0]], [[float("nan"), 0.0]]], "S[1][0][0]: non-finite value"),
        ([[[0, 0], [0, 0]], [[0, 0]]],
         "S[1]: ragged row, expected 2 entries, got 1"),
        ([[[0, 0, 0]]], "S[0][0]: expected [re, im] pair"),
        ([[[0, 0]], 3], "S[1]: expected a non-empty row array"),
        ([], "S: expected a non-empty array of rows"),
    ]
    for bad, message in cases:
        with pytest.raises(PairFileError) as err:
            cli.matrix_from_json(bad, "S")
        assert str(err.value) == message


def test_generate_round_trips_and_validates(tmp_path, capsys):
    for seed in (0, 3, 11):
        for kind in ("symmetrized", "gamma-unitary"):
            out = str(tmp_path / f"{kind}-{seed}.json")
            assert cli.main(["generate", "--dim", "4", "--seed", str(seed),
                             "--kind", kind, "--out", out]) == 0
            s, p, metadata = cli.load_pair_file(out)
            pair = g.validate(s, p)
            assert pair.necessary_ok
            assert metadata["seed"] == seed
            if kind == "symmetrized":
                assert pair.flags.pure
            else:
                assert g.is_gamma_unitary(pair)


def test_generate_deterministic(capsys):
    assert cli.main(["generate", "--dim", "3", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["generate", "--dim", "3", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first
    assert cli.main(["generate", "--dim", "3", "--seed", "6"]) == 0
    assert capsys.readouterr().out != first


def test_generate_rejects_bad_dim(capsys):
    assert cli.main(["generate", "--dim", "0"]) == 1
    assert "dim" in capsys.readouterr().err


def test_generate_unwritable_out_is_input_error(tmp_path, capsys):
    out = str(tmp_path / "absent-dir" / "pair.json")
    assert cli.main(["generate", "--dim", "2", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and out in captured.err


def test_env_seed_used_and_validated(monkeypatch, capsys):
    monkeypatch.setenv("GAMMAOPS_SEED", "7")
    assert cli.main(["generate", "--dim", "2"]) == 0
    via_env = capsys.readouterr().out
    monkeypatch.delenv("GAMMAOPS_SEED")
    assert cli.main(["generate", "--dim", "2", "--seed", "7"]) == 0
    assert capsys.readouterr().out == via_env

    monkeypatch.setenv("GAMMAOPS_SEED", "pi")
    assert cli.main(["generate", "--dim", "2"]) == 1
    assert "GAMMAOPS_SEED" in capsys.readouterr().err


def test_analyze_ok_report(tmp_path, capsys):
    pair = g.random_pure_gamma(3, seed=31, max_norm=0.8)
    path = _write(tmp_path, "pair.json", _pair_doc(pair, label="t"))
    out = str(tmp_path / "report.json")
    code = cli.main(["analyze", path, "--vn-trials", "16", "--json", out])
    assert code == 0
    report = _report(open(out).read())
    assert report["verdict"] == "ok"
    assert report["flags"]["necessary_ok"] is True
    assert report["probe"]["certificate"] is None
    assert report["fundamental"]["w_f"] <= 1.0 + 1e-8
    assert report["model"]["residuals"]["complement_identity"] <= 1e-7
    assert report["breaches"] == []
    assert len(report["joint_spectrum"]) == 3
    assert capsys.readouterr().out == ""


def test_analyze_gamma_unitary_skips_model(tmp_path, capsys):
    gu = g.random_gamma_unitary(3, seed=32)
    path = _write(tmp_path, "gu.json", _pair_doc(gu))
    assert cli.main(["analyze", path, "--vn-trials", "8"]) == 0
    report = _report(capsys.readouterr().out)
    assert report["model"] is None
    assert report["flags"]["pure"] is False


def test_analyze_outside_domain_certified(tmp_path, capsys):
    doc = {"schema_version": "1",
           "S": [[[3.0, 0.0]]], "P": [[[1.0, 0.0]]]}
    path = _write(tmp_path, "out.json", doc)
    assert cli.main(["analyze", path, "--vn-trials", "8"]) == 2
    report = _report(capsys.readouterr().out)
    assert report["verdict"] == "not-gamma-contraction"
    assert report["probe"]["certified_not_gamma"] is True
    assert report["probe"]["certificate"] is not None


def test_analyze_malformed_inputs(tmp_path, capsys):
    cases = [
        ("bad.json", "{not json", "line 1"),
        ("nover.json", json.dumps({"S": [], "P": []}), "schema_version"),
        ("badver.json", json.dumps({"schema_version": "9", "S": [], "P": []}),
         "schema_version"),
        ("noP.json", json.dumps({"schema_version": "1", "S": [[[0, 0]]]}), "P:"),
        ("ragged.json", json.dumps({"schema_version": "1",
                                    "S": [[[0, 0], [0, 0]], [[0, 0]]],
                                    "P": [[[0, 0]]]}), "S"),
        ("badentry.json", json.dumps({"schema_version": "1",
                                      "S": [[[0, 0, 0]]], "P": [[[0, 0]]]}),
         "S[0][0]"),
        ("notsquare.json", json.dumps({"schema_version": "1",
                                       "S": [[[0, 0], [0, 0]]],
                                       "P": [[[0, 0], [0, 0]]]}), "square"),
        ("mixdims.json", json.dumps({"schema_version": "1",
                                     "S": [[[0, 0]]],
                                     "P": [[[0, 0], [0, 0]],
                                           [[0, 0], [0, 0]]]}), "dimensions"),
        ("nonfinite.json",
         '{"schema_version": "1", "S": [[[NaN, 0]]], "P": [[[0, 0]]]}',
         "S[0][0]"),
    ]
    for name, text, needle in cases:
        path = _write(tmp_path, name, text)
        assert cli.main(["analyze", path]) == 1, name
        err = capsys.readouterr().err
        assert needle in err, (name, err)
    assert cli.main(["analyze", str(tmp_path / "absent.json")]) == 1
    assert "absent.json" in capsys.readouterr().err


def test_compare_search_self_equivalent(tmp_path, capsys):
    pair = g.random_pure_gamma(3, seed=33, max_norm=0.8)
    path = _write(tmp_path, "self.json", _pair_doc(pair))
    assert cli.main(["compare", path, path, "--search", "4"]) == 0
    report = _report(capsys.readouterr().out)
    assert report["verdict"] == "EQUIVALENT"
    assert report["search"]["status"] == "FOUND"
    assert "eta1" in report["witness"]


def test_compare_search_reports_the_ambient_certificate(tmp_path, capsys):
    # a near pair's Hermitian mixes have a spectral gap above its bound, so
    # no ambient candidate can pass the gate and no system is factored, and
    # so have the Hermitian parts of e^i F_*, so the defect system is not
    # built either: the search block lists each refusal that fired, with its
    # value and bound.  A pair and itself share a reduced nullspace, which
    # decides; a conjugate perturbed by 1e-8 has no reduced nullspace and is
    # found by the reduced defect candidate, with no refusal and no defect
    # system.  Neither reports a route or an intertwiner sigma_min.  Where
    # the screen decides there is no search block
    pair = g.random_pure_gamma(3, seed=42, max_norm=0.8)
    u = matcore.haar_unitary(3, np.random.default_rng(43))
    ud = matcore.dagger(u)
    a = _write(tmp_path, "a.json", _pair_doc(pair))
    near, band = (_write(tmp_path, f"{name}.json", cli.pair_file_doc(
        u @ (pair.s + eps * pair.p) @ ud, u @ pair.p @ ud))
        for name, eps in (("near", 3e-7), ("band", 1e-8)))
    assert cli.main(["compare", a, near, "--search", "2"]) == 5
    search = _report(capsys.readouterr().out)["search"]
    gap, fstar = search["refusals"]
    assert gap == {"test": "ambient_gap", "value": search["ambient_gap"],
                   "bound": search["ambient_gap_bound"]}
    assert gap["value"] > gap["bound"] > 0.0
    assert fstar == {"test": "fstar_gap", "value": search["fstar_gap"],
                     "bound": search["fstar_gap_bound"]}
    assert fstar["value"] > fstar["bound"] > 0.0
    assert "defect_sigma_min" not in search and "defect_bound" not in search
    assert (search["status"], search["restarts_used"]) == ("NOT_FOUND", 4)
    assert cli.main(["compare", a, a, "--search", "2"]) == 0
    search = _report(capsys.readouterr().out)["search"]
    assert (search["restarts_used"], search["refusals"]) == (1, [])
    assert search["ambient_gap"] <= search["ambient_gap_bound"]
    assert cli.main(["compare", a, band, "--search", "2"]) == 0
    search = _report(capsys.readouterr().out)["search"]
    assert (search["restarts_used"], search["refusals"]) == (3, [])
    assert search["fstar_gap"] <= search["fstar_gap_bound"]
    assert set(search) == {"status", "restarts_used", "refusals", "ambient_gap",
                           "ambient_gap_bound", "fstar_gap", "fstar_gap_bound"}
    scalars = [_write(tmp_path, f"{p}.json", cli.pair_file_doc(
        np.array([[1.0]]), np.array([[p]]))) for p in (0.25, 0.5)]
    assert cli.main(["compare", *scalars, "--search", "2"]) == 4
    assert "search" not in _report(capsys.readouterr().out)


def test_planted_compare_at_n24_needs_no_intertwiner_system(
        tmp_path, capsys, monkeypatch):
    # a planted conjugate at n = 24, whose 2304 x 576 intertwiner system
    # took most of a second to factor, is found on the reduced route alone:
    # the one system factored is the 2304 x 24 reduced system
    shapes, null_onb = [], matcore.null_onb
    monkeypatch.setattr(matcore, "null_onb", lambda k, bound: (
        shapes.append(k.shape) or null_onb(k, bound)))
    pair = g.random_pure_gamma(24, seed=44, max_norm=0.75)
    u = matcore.haar_unitary(24, np.random.default_rng(45))
    ud = matcore.dagger(u)
    a = _write(tmp_path, "a.json", _pair_doc(pair))
    b = _write(tmp_path, "b.json", cli.pair_file_doc(
        u @ pair.s @ ud, u @ pair.p @ ud))
    assert cli.main(["compare", a, b, "--search", "20"]) == 0
    report = _report(capsys.readouterr().out)
    assert report["verdict"] == "EQUIVALENT"
    assert report["search"]["restarts_used"] == 1
    assert shapes == [(4 * 24 * 24, 24)]


def _near_files(tmp_path, n, seed):
    """A pair and a Haar conjugate of (S + eps P, P), eps putting the
    screen's gap at 0.4 SCREEN_TOL: the screen passes, no witness exists."""
    pair = g.random_pure_gamma(n, seed=seed, max_norm=0.8)
    u = matcore.haar_unitary(n, np.random.default_rng(seed + 1))
    ud = matcore.dagger(u)

    def near(eps):
        return u @ (pair.s + eps * pair.p) @ ud, u @ pair.p @ ud

    fp_a = g.solve_fundamental(pair)
    eps = 1e-6 * 0.4 * matcore.SCREEN_TOL / g.trace_word_screen(
        fp_a, g.solve_fundamental(g.validate(*near(1e-6)))).max_gap
    return (_write(tmp_path, f"a{n}.json", _pair_doc(pair)),
            _write(tmp_path, f"near{n}.json", cli.pair_file_doc(*near(eps))))


@pytest.mark.parametrize("n", [12, 24])
def test_near_compare_where_the_fstar_gap_fires_needs_no_defect_system(
        n, tmp_path, capsys, monkeypatch):
    # on a near pair both spectral gaps fire: no ambient system is formed,
    # the one defect candidate read is the reduced one, from its
    # (2 r*^2 + r c) x r* system, and the r*^2-column defect system M,
    # 288 x 144 at n = 12 and 1152 x 576 at n = 24, is not built
    shapes, null_onb = [], matcore.null_onb
    monkeypatch.setattr(matcore, "null_onb", lambda k, bound: (
        shapes.append(k.shape) or null_onb(k, bound)))
    a, near = _near_files(tmp_path, n, 9100 + n)
    verifies = _count_calls(monkeypatch, g.verify_equivalence)
    assert cli.main(["compare", a, near, "--search", "20"]) == 5
    search = _report(capsys.readouterr().out)["search"]
    assert [row["test"] for row in search["refusals"]] == ["ambient_gap",
                                                           "fstar_gap"]
    assert (search["status"], search["restarts_used"]) == ("NOT_FOUND", 40)
    # r = r* = n and c = 2 r* - r = n for these pairs
    assert shapes == [(3 * n * n, n)] and len(verifies) == 1


def test_compare_search_reports_the_defect_certificate(tmp_path, capsys):
    # the near pair has no ambient candidate and no F_* gap above its bound,
    # so the reduced defect candidate is read and refused, the defect system
    # is built, and its sigma_min clears its bound: one refused candidate for
    # the family, NOT_FOUND after 2 restarts.  The ambient candidate decides
    # a pair and itself before the defect side is read
    pair = g.random_pure_gamma(6, seed=8102, max_norm=0.8)
    u = matcore.haar_unitary(6, np.random.default_rng(8103))
    ud = matcore.dagger(u)
    a = _write(tmp_path, "a.json", _pair_doc(pair))
    near = _write(tmp_path, "near.json", cli.pair_file_doc(
        u @ (pair.s + 1e-7 * pair.p) @ ud, u @ pair.p @ ud))
    assert cli.main(["compare", a, near, "--search", "2"]) == 5
    search = _report(capsys.readouterr().out)["search"]
    assert search["defect_sigma_min"] > search["defect_bound"] > 0.0
    assert search["fstar_gap"] <= search["fstar_gap_bound"]
    assert search["refusals"] == [{"test": "defect_sigma_min",
                                   "value": search["defect_sigma_min"],
                                   "bound": search["defect_bound"]}]
    assert (search["status"], search["restarts_used"]) == ("NOT_FOUND", 4)
    assert cli.main(["compare", a, a, "--search", "2"]) == 0
    search = _report(capsys.readouterr().out)["search"]
    assert (search["status"], search["restarts_used"]) == ("FOUND", 1)
    assert not {"fstar_gap", "defect_sigma_min"} & set(search)


def _count_calls(monkeypatch, fn):
    """Count calls of a function at every attribute bound to it in the package
    and in numpy.linalg, which the model calls through ``np.linalg``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not (name.startswith("gammaops")
                                  or module is np.linalg):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, counted)
    return calls


def test_compare_search_solves_and_screens_each_pair_once(
        tmp_path, capsys, monkeypatch):
    pair_a = g.random_pure_gamma(3, seed=40, max_norm=0.8)
    u = matcore.haar_unitary(3, np.random.default_rng(41))
    ud = matcore.dagger(u)
    a = _write(tmp_path, "a.json", _pair_doc(pair_a))
    b = _write(tmp_path, "b.json", cli.pair_file_doc(
        u @ pair_a.s @ ud, u @ pair_a.p @ ud))
    solves = _count_calls(monkeypatch, g.solve_fundamental)
    screens = _count_calls(monkeypatch, g.trace_word_screen)
    defects = _count_calls(monkeypatch, g.defect_pair)
    assert cli.main(["compare", a, b, "--search", "4"]) == 0
    assert _report(capsys.readouterr().out)["verdict"] == "EQUIVALENT"
    assert len(solves) == 2
    assert len(screens) == 1
    assert len(defects) == 2


def test_compare_confirmation_reads_no_verification_ledger(
        tmp_path, capsys, monkeypatch):
    # the model confirmation reads the two bases, compressions and Theta
    # coefficients; verify_model's ledger, with the complement identity's
    # Lanczos and FFT products, runs only where a report shows it
    pair_a = g.random_pure_gamma(4, seed=48, max_norm=0.8)
    u = matcore.haar_unitary(4, np.random.default_rng(49))
    ud = matcore.dagger(u)
    a = _write(tmp_path, "a.json", _pair_doc(pair_a))
    b = _write(tmp_path, "b.json", cli.pair_file_doc(
        u @ pair_a.s @ ud, u @ pair_a.p @ ud))
    counts = {fn.__name__: _count_calls(monkeypatch, fn)
              for fn in (matcore.op_norm_hermitian, g.toeplitz_mult,
                         g.theta_coeffs, g.model_space, g.verify_model,
                         np.linalg.matrix_power)}
    assert cli.main(["compare", a, b, "--search", "2"]) == 0
    report = _report(capsys.readouterr().out)
    assert {name: len(calls) for name, calls in counts.items()} == {
        "op_norm_hermitian": 0, "toeplitz_mult": 0, "theta_coeffs": 2,
        "model_space": 2, "verify_model": 0, "matrix_power": 0}
    assert report["verdict"] == "EQUIVALENT"
    assert report["equivalence"]["model_confirmation"]["theta_coefficients"] <= 1e-13


def test_compare_search_takes_one_f_star_norm_per_pair(
        tmp_path, capsys, monkeypatch):
    # X (+) Y against X (+) Y', Y' a conjugate of (S_Y + eps P_Y, P_Y),
    # passes the screen but has no witness, the F_* gap does not fire, and
    # the defect family's gate subspace is two-dimensional, so the search
    # verifies the reduced defect candidate and each of the family's four
    # candidates against the F_* bound
    x = g.random_pure_gamma(1, seed=6624, max_norm=0.8)
    y = g.random_pure_gamma(2, seed=6625, max_norm=0.8)
    u = matcore.haar_unitary(2, np.random.default_rng(6626))
    ud = matcore.dagger(u)
    a, b = (_write(tmp_path, name, cli.pair_file_doc(
        scipy.linalg.block_diag(x.s, s), scipy.linalg.block_diag(x.p, p)))
        for name, s, p in (("a.json", y.s, y.p),
                           ("b.json", u @ (y.s + 3e-8 * y.p) @ ud, u @ y.p @ ud)))
    solved, normed = [], []
    solve, op_norm = g.solve_fundamental, matcore.op_norm

    def recorded_solve(pair):
        solved.append(solve(pair))
        return solved[-1]

    def recorded_norm(m):
        normed.append(m)
        return op_norm(m)

    monkeypatch.setattr(cli, "solve_fundamental", recorded_solve)
    monkeypatch.setattr(matcore, "op_norm", recorded_norm)
    verifies = _count_calls(monkeypatch, g.verify_equivalence)
    assert cli.main(["compare", a, b, "--search", "4"]) == 5
    assert _report(capsys.readouterr().out)["search"]["status"] == "NOT_FOUND"
    assert len(solved) == 2 and len(verifies) == 1 + 4
    fp_a, fp_b = solved
    assert sum(m is fp_a.f_star for m in normed) == 1
    assert sum(m is fp_b.f_star for m in normed) <= 1


def test_compare_dimension_mismatch_is_distinct(tmp_path, capsys):
    a = _write(tmp_path, "n2.json", _pair_doc(g.random_pure_gamma(2, seed=42)))
    b = _write(tmp_path, "n3.json", _pair_doc(g.random_pure_gamma(3, seed=43)))
    assert cli.main(["compare", a, b]) == 4
    report = _report(capsys.readouterr().out)
    assert report["verdict"] == "NOT_EQUIVALENT"
    assert report["conclusive"] is True
    assert report["screen"]["mismatch"] is True


def test_compare_screen_distinct(tmp_path, capsys):
    a = _write(tmp_path, "a.json", {"schema_version": "1",
                                    "S": [[[1.0, 0.0]]], "P": [[[0.25, 0.0]]]})
    b = _write(tmp_path, "b.json", {"schema_version": "1",
                                    "S": [[[1.0, 0.0]]], "P": [[[0.5, 0.0]]]})
    assert cli.main(["compare", a, b]) == 4
    report = _report(capsys.readouterr().out)
    assert report["screen"]["mismatch"] is True
    assert report["conclusive"] is True


def test_compare_with_witness_file(tmp_path, capsys):
    pair_a = g.random_pure_gamma(3, seed=34, max_norm=0.8)
    u = matcore.haar_unitary(3, np.random.default_rng(35))
    ud = matcore.dagger(u)
    pair_b = g.validate(u @ pair_a.s @ ud, u @ pair_a.p @ ud)
    w, _ = g.witness_from_ambient(u, g.solve_fundamental(pair_a),
                                  g.solve_fundamental(pair_b))
    a = _write(tmp_path, "wa.json", _pair_doc(pair_a))
    b = _write(tmp_path, "wb.json", _pair_doc(pair_b))
    wfile = _write(tmp_path, "w.json", {
        "eta1": cli.matrix_to_json(w.eta1),
        "sigma": cli.matrix_to_json(w.sigma),
    })
    assert cli.main(["compare", a, b, "--witness", wfile]) == 0
    report = _report(capsys.readouterr().out)
    assert report["equivalence"]["verdict"] == "EQUIVALENT"
    assert (report["equivalence"]["model_confirmation"]["conjugation"]
            <= MODEL_CONFIRM_TOL)

    # an unrelated unitary witness fails both halves without being conclusive
    r = w.sigma.shape[0]
    r_star = w.eta1.shape[0]
    bogus = _write(tmp_path, "bogus.json", {
        "eta1": cli.matrix_to_json(np.eye(r_star)),
        "sigma": cli.matrix_to_json(np.eye(r)),
    })
    assert cli.main(["compare", a, b, "--witness", bogus]) == 5
    report = _report(capsys.readouterr().out)
    assert report["verdict"] == "INCONCLUSIVE"

    shrunk = _write(tmp_path, "shrunk.json", {
        "eta1": cli.matrix_to_json(np.eye(max(1, r_star - 1))),
        "sigma": cli.matrix_to_json(np.eye(max(1, r - 1))),
    })
    assert cli.main(["compare", a, b, "--witness", shrunk]) == 1
    assert "witness" in capsys.readouterr().err

    # a sigma one size too large does not fit either; a sigma_star, which
    # earlier witness files carried, is ignored: eta1 is the one
    # adjoint-side unitary
    for field, size, code in (("sigma", r + 1, 1), ("sigma_star", r_star + 1, 0)):
        grown = _write(tmp_path, f"grown-{field}.json", {
            "eta1": cli.matrix_to_json(w.eta1),
            "sigma": cli.matrix_to_json(w.sigma),
            field: cli.matrix_to_json(np.eye(size))})
        assert cli.main(["compare", a, b, "--witness", grown]) == code
        out = capsys.readouterr()
        if code:
            assert f"{field} has shape" in out.err
        else:
            assert _report(out.out)["verdict"] == "EQUIVALENT"


def test_compare_does_not_report_an_unchecked_ambient_u(tmp_path, capsys):
    # a valid (eta1, sigma) with an unrelated U: only the defect unitaries
    # are verified, so no U from the file may reach the report
    pair_a = g.random_pure_gamma(3, seed=37, max_norm=0.8)
    rng = np.random.default_rng(38)
    u = matcore.haar_unitary(3, rng)
    ud = matcore.dagger(u)
    pair_b = g.validate(u @ pair_a.s @ ud, u @ pair_a.p @ ud)
    w, _ = g.witness_from_ambient(u, g.solve_fundamental(pair_a),
                                  g.solve_fundamental(pair_b))
    stray = matcore.haar_unitary(3, rng)
    assert matcore.op_norm(stray @ pair_a.s - pair_b.s @ stray) > 1e-2
    a = _write(tmp_path, "a.json", _pair_doc(pair_a))
    b = _write(tmp_path, "b.json", _pair_doc(pair_b))
    wfile = _write(tmp_path, "w.json", {
        "eta1": cli.matrix_to_json(w.eta1),
        "sigma": cli.matrix_to_json(w.sigma),
        "U": cli.matrix_to_json(stray),
    })
    assert cli.load_witness_file(wfile).u_ambient is None
    assert cli.main(["compare", a, b, "--witness", wfile]) == cli.EXIT_OK
    report = _report(capsys.readouterr().out)
    assert report["verdict"] == "EQUIVALENT"
    assert set(report["witness"]) == {"eta1", "sigma"}


def test_compare_search_witness_round_trips(tmp_path, capsys):
    # the witness block of a FOUND search report is a witness file that
    # verifies the same pairs
    pair_a = g.random_pure_gamma(3, seed=44, max_norm=0.8)
    u = matcore.haar_unitary(3, np.random.default_rng(45))
    ud = matcore.dagger(u)
    a = _write(tmp_path, "a.json", _pair_doc(pair_a))
    b = _write(tmp_path, "b.json", cli.pair_file_doc(
        u @ pair_a.s @ ud, u @ pair_a.p @ ud))
    assert cli.main(["compare", a, b, "--search", "4"]) == cli.EXIT_OK
    found = _report(capsys.readouterr().out)
    assert found["search"]["status"] == "FOUND"
    wfile = _write(tmp_path, "w.json", found["witness"])
    assert cli.main(["compare", a, b, "--witness", wfile]) == cli.EXIT_OK
    report = _report(capsys.readouterr().out)
    assert report["verdict"] == "EQUIVALENT"
    confirmation = report["equivalence"]["model_confirmation"]
    assert max(confirmation["unitarity"],
               confirmation["conjugation"]) <= MODEL_CONFIRM_TOL


def test_compare_purity_gate(tmp_path, capsys):
    gu = g.random_gamma_unitary(2, seed=36)
    pure = g.random_pure_gamma(2, seed=37)
    a = _write(tmp_path, "gu.json", _pair_doc(gu))
    b = _write(tmp_path, "pure.json", _pair_doc(pure))
    assert cli.main(["compare", a, b]) == 6
    report = _report(capsys.readouterr().out)
    assert report["verdict"] == "purity-violation"


def test_compare_rejects_unusable_pair(tmp_path, capsys):
    doc = {"schema_version": "1",
           "S": [[[0.8, 0.0], [0.1, 0.0]], [[0.0, 0.0], [0.6, 0.0]]],
           "P": [[[0.3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.2, 0.0]]]}
    bad = _write(tmp_path, "bad.json", doc)
    ok = _write(tmp_path, "ok.json",
                _pair_doc(g.random_pure_gamma(2, seed=38)))
    assert cli.main(["compare", bad, ok]) == 1
    assert "not a usable pair" in capsys.readouterr().err


#: A breach message: "<label> (<report key>) = <value> exceeds its bound <bound>".
BREACH = re.compile(r"^.+ \((\w+)\) = (\S+) exceeds its bound (\S+)$")


def _breach_rows(report: dict) -> dict:
    """Each breach of a report as key -> (value, bound), parsed back to floats."""
    rows = [BREACH.match(text).groups() for text in report["breaches"]]
    return {key: (float(value), float(bound)) for key, value, bound in rows}


def test_a_pair_off_its_defining_equations_is_refused_and_named(tmp_path, capsys):
    # P = J and S = I/2 + 0.3 J give F = F_* = 1/2 like S = I/2, but only
    # scalars commute with J, so no unitary maps one S onto the other; the
    # equations fail to 0.28 and 0.71, and compare refuses the pair
    jay = np.array([[0.0, 1.0], [0.0, 0.0]])
    s_b = 0.5 * np.eye(2) + 0.3 * jay
    a = _write(tmp_path, "a.json", cli.pair_file_doc(0.5 * np.eye(2), jay))
    b = _write(tmp_path, "b.json", cli.pair_file_doc(s_b, jay))
    for argv in (["compare", a, b], ["compare", b, b, "--search", "4"]):
        assert cli.main(argv) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: not a usable pair: {argv[1]}: ")
        assert "(residual_f)" in err
    assert cli.main(["analyze", b, "--vn-trials", "8"]) == cli.EXIT_BREACH
    report = _report(capsys.readouterr().out)
    scale = 1.0 + g.validate(s_b, jay).norm_s
    residual = matcore.RESIDUAL_BREACH_TOL * scale
    model = (matcore.MODEL_BREACH_TOL * scale
             + matcore.TAIL_SLACK * report["model"]["tail"] * scale)
    fundamental, residuals = report["fundamental"], report["model"]["residuals"]
    # value and bound print to the last bit
    assert _breach_rows(report) == {
        "residual_f": (fundamental["residual_f"], residual),
        "residual_f_star": (fundamental["residual_f_star"], residual),
        "intertwine_s": (residuals["intertwine_s"], model),
        "fstar_defect_identity": (residuals["fstar_defect_identity"], model)}
    # S = J, P = 0.9 J solves its equations with w(F) = 5: a radius breach
    # in analyze, which compare does not refuse
    nilpotent = _write(tmp_path, "nil.json", cli.pair_file_doc(jay, 0.9 * jay))
    assert cli.main(["analyze", nilpotent, "--vn-trials", "0"]) == cli.EXIT_BREACH
    report = _report(capsys.readouterr().out)
    bound = 1.0 + matcore.RADIUS_BREACH_TOL
    assert _breach_rows(report) == {
        "w_f": (report["fundamental"]["w_f"], bound),
        "w_f_star": (report["fundamental"]["w_f_star"], bound)}
    assert "exceeds its bound 1.00000001" in report["breaches"][0]
    assert cli.main(["compare", nilpotent, nilpotent, "--search", "4"]) == cli.EXIT_OK
    capsys.readouterr()


def _torus_diagonal(n: int):
    """A Gamma-unitary pair: S = z1 + z2, P = z1 z2 at n fixed torus points."""
    k = np.arange(n)
    z1 = np.exp(2j * np.pi * (k + 0.5) / n)
    z2 = np.exp(2j * np.pi * (((k + 0.5) * (np.sqrt(5.0) - 1.0) / 2.0) % 1.0))
    return np.diag(z1 + z2), np.diag(z1 * z2)


def test_exit_code_is_invariant_under_unitary_conjugation(tmp_path, capsys):
    jay = np.array([[0.0, 1.0], [0.0, 0.0]])
    pure = g.random_pure_gamma(3, seed=60, max_norm=0.8)
    cases = {"pure": (pure.s, pure.p), "torus": _torus_diagonal(3),
             "half": (0.5 * np.eye(2), jay), "nilpotent": (jay, 0.9 * jay),
             "outside": (3.0 * np.eye(2), np.eye(2))}
    rng = np.random.default_rng(61)
    seen = set()
    for name, (s, p) in cases.items():
        u = matcore.haar_unitary(s.shape[0], rng)
        ud = matcore.dagger(u)
        x = _write(tmp_path, f"{name}.json", cli.pair_file_doc(s, p))
        ux = _write(tmp_path, f"{name}-u.json", cli.pair_file_doc(u @ s @ ud, u @ p @ ud))
        codes = [cli.main(["analyze", path, "--vn-trials", "8"]) for path in (x, ux)]
        assert codes[0] == codes[1], (name, codes)
        pair_codes = [cli.main(["compare", x, y, "--search", "4"]) for y in (x, ux)]
        assert pair_codes[0] == pair_codes[1], (name, pair_codes)
        seen.add((codes[0], pair_codes[0]))
        capsys.readouterr()
    # every case ends differently from the others
    assert seen == {(0, 0), (0, 6), (3, 1), (3, 0), (2, 1)}


def test_overflowing_pair_ends_in_a_documented_code(tmp_path, capsys):
    # |S| = 1e300 fails |S| <= 2; q(S, P) overflows, which certifies it
    path = _write(tmp_path, "huge.json", {"schema_version": "1",
                                          "S": [[[1e300, 0.0]]],
                                          "P": [[[0.5, 0.0]]]})
    assert cli.main(["analyze", path]) == 2
    report = _report(capsys.readouterr().out)
    assert report["verdict"] == "not-gamma-contraction"
    assert report["flags"]["s_bound"] is False
    assert report["probe"]["certified_not_gamma"] is True
    assert report["probe"]["certificate"] is not None
    # the overflowing value is reported as null, not as Infinity
    assert report["probe"]["worst_ratio"] is None
    # F = 6.7e299 solves its equation to rounding: the norm of the
    # residual is rescaled where its square overflows
    for key in ("residual_f", "residual_f_star"):
        assert 0.0 <= report["fundamental"][key] <= 1e-15 * 1e300
    assert cli.main(["compare", path, path]) == 1
    err = capsys.readouterr().err
    assert "not a usable pair" in err and "exceeds 2" in err
    # |S| |P| overflows comm_tol, so commutation is tested on S 2^-a and
    # P 2^-b: S = P = diag(0, 1.7e308) commute and stop at |P| > 1, while
    # a commutator at 1% of |S| |P| fails the test
    huge = np.diag([0.0, 1.7e308])
    skew = (1e155 * np.diag([1.0, 0.0]), 1e154 * np.array([[0.0, 0.01], [0.0, 1.0]]))
    for name, (s, p), error in (("diag.json", (huge, huge), "exceeds 1"),
                                ("skew.json", skew, "commutator")):
        path = _write(tmp_path, name, cli.pair_file_doc(s, p, None))
        assert cli.main(["analyze", path]) == 2
        report = _report(capsys.readouterr().out)
        assert report["verdict"] == "not-gamma-contraction"
        assert error in report["error"]
        assert cli.main(["compare", path, path]) == 1
        assert "not a usable pair" in capsys.readouterr().err
    # entries whose squares overflow, with no RuntimeWarning (an error in
    # tier 1): norms are rescaled, radii are taken on A scaled by 2^-e
    eye2, eye3 = np.eye(2), np.eye(3)
    for name, s, p, w_f in (
            ("big.json", np.diag([1e200, 0.0]), np.array([[0.0, 1.0], [0.0, 1e200]]),
             None),
            ("i3.json", 1e300 * eye3, 0.3 * eye3, 1e300 * 0.7 / 0.91),
            ("i2.json", 1.7e308 * eye2, 0.5 * eye2, 1.7e308 / 1.5)):
        path = _write(tmp_path, name, cli.pair_file_doc(s, p, None))
        assert cli.main(["analyze", path]) == 2
        report = _report(capsys.readouterr().out)
        assert report["verdict"] == "not-gamma-contraction"
        assert report["flags"]["s_bound"] is False
        if w_f is None:
            # the commutator is 1e-200 relative to |S| |P|, so the pair
            # commutes; |P| = 1e200 then stops the fundamental solve
            assert report["flags"]["commuting"] is True
            assert report["fundamental"] is None
            assert "exceeds 1" in report["error"]
        else:
            assert report["fundamental"]["w_f"] == pytest.approx(w_f)
            assert report["fundamental"]["w_f_star"] == pytest.approx(w_f)
        assert cli.main(["compare", path, path]) == 1
        assert "not a usable pair" in capsys.readouterr().err



def _set_erange():
    """Leave errno at ERANGE, as any earlier overflow in the process may."""
    with pytest.raises(OverflowError):
        math.exp(1000.0)


def test_out_of_range_values_end_in_documented_codes(tmp_path, capsys):
    # an int beyond the float range is non-finite, in a pair or witness file
    ok = _write(tmp_path, "ok.json", _pair_doc(g.random_pure_gamma(1, seed=3)))
    for key, doc in (("S", {"schema_version": "1", "S": [[[10 ** 400, 0]]],
                            "P": [[[0.5, 0]]]}),
                     ("eta1", {"eta1": [[[1, -10 ** 400]]], "sigma": [[[1, 0]]]})):
        path = _write(tmp_path, f"{key}.json", doc)
        argv = (["analyze", path] if key == "S"
                else ["compare", ok, ok, "--witness", path])
        assert cli.main(argv) == cli.EXIT_INPUT
        want = "S[0][0][0]" if key == "S" else "eta1[0][0][1]"
        assert capsys.readouterr().err == f"error: {want}: non-finite value\n"
    # S = P = [[1e300 + 1e300j]]: s^2 overflows and the joint spectrum point
    # has NaN roots; abs() of a NaN complex keeps a stale errno, so after an
    # earlier overflow it raised "absolute value too large"
    huge = np.array([[1e300 + 1e300j]])
    path = _write(tmp_path, "huge.json", cli.pair_file_doc(huge, huge))
    _set_erange()
    assert cli.main(["analyze", path]) == cli.EXIT_NOT_GAMMA
    report = _report(capsys.readouterr().out)
    assert report["flags"]["spectrum_in_gamma"] is False
    _set_erange()
    assert cli.main(["compare", path, path]) == cli.EXIT_INPUT
    assert "exceeds 2" in capsys.readouterr().err
    # S - S*P, or F = (S - S*P) / (1 - |P|^2), overflows: F is non-finite,
    # its radii are inf and its residuals NaN, all written as null
    for s in (1.2e308 + 1.2e308j, 0.28 + 3e307j):
        path = _write(tmp_path, "solve.json", cli.pair_file_doc(
            np.array([[s]]), np.array([[0.875]])))
        assert cli.main(["analyze", path]) == cli.EXIT_NOT_GAMMA
        fund = _report(capsys.readouterr().out)["fundamental"]
        for key in ("residual_f", "residual_f_star", "pf_intertwine",
                    "w_f", "w_f_star"):
            assert fund[key] is None, (s, key)


_ORDINARY = st.integers(-1, 1) | st.floats(-1.0, 1.0)
_EXTREME = (st.integers(-10 ** 400, 10 ** 400) | st.floats(1e-320, 1.7e308)
            | st.floats(-1.7e308, -1e-320)
            | st.sampled_from([math.nan, math.inf, -math.inf]))
_NOT_A_NUMBER = st.booleans() | st.text(max_size=2) | st.none()


@st.composite
def _pair_file_text(draw) -> str:
    """Pair files of ordinary, extreme or malformed entries, a third each,
    so that many of them reach the solve, the model and the search."""
    kind = draw(st.integers(0, 2))
    number = (_ORDINARY, _ORDINARY | _EXTREME,
              _ORDINARY | _EXTREME | _NOT_A_NUMBER)[kind]
    cell = st.lists(number, min_size=2, max_size=2)
    if kind == 2:
        cell = cell | st.lists(number, max_size=3) | number
    n = draw(st.integers(1, 3))
    diagonal = draw(st.booleans())  # diagonal pairs commute
    doc = {"schema_version": "1"}
    for key in ("S", "P"):
        doc[key] = [[draw(cell) if i == j or not diagonal else [0, 0]
                     for j in range(n)] for i in range(n)]
        if kind == 2 and draw(st.booleans()):  # a missing, short or bad row
            doc[key][-1:] = draw(st.sampled_from([[], [[[0, 0]]], [3]]))
    return json.dumps(doc)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_pair_file_text())
def test_every_pair_file_ends_in_a_documented_code(text, tmp_path, capsys):
    # RuntimeWarnings are errors in tier 1, so a warning fails here too
    path = _write(tmp_path, "pair.json", text)
    assert cli.main(["analyze", path, "--vn-trials", "4"]) in range(7)
    assert cli.main(["compare", path, path, "--search", "1"]) in range(7)
    capsys.readouterr()


def test_console_script_target_is_the_cli_entry_point(monkeypatch, capsys):
    # tier 1 runs from the source tree, so the installed script is never
    # called; its [project.scripts] target must still resolve and run
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = dict(line.split(" = ", 1) for line in section.strip().splitlines())
    module, _, attr = scripts["gammaops"].strip('"').partition(":")
    target = getattr(importlib.import_module(module), attr)
    assert callable(target)
    monkeypatch.setattr(sys, "argv", ["gammaops", "--version"])
    with pytest.raises(SystemExit) as exc:
        target()
    assert exc.value.code == cli.EXIT_OK
    assert capsys.readouterr().out == f"gammaops {g.__version__}\n"

def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_lapack_and_memory_failures_end_in_documented_codes(
        tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "pair.json",
                  _pair_doc(g.random_pure_gamma(2, seed=51, max_norm=0.8)))
    monkeypatch.setattr(cli, "vn_probe",
                        _raise(np.linalg.LinAlgError("SVD did not converge")))
    assert cli.main(["analyze", path]) == cli.EXIT_BREACH
    err = capsys.readouterr().err
    assert err == "error: SVD did not converge\n"
    monkeypatch.undo()
    monkeypatch.setattr(cli, "solve_fundamental", _raise(MemoryError()))
    assert cli.main(["analyze", path]) == cli.EXIT_INPUT
    assert cli.main(["compare", path, path]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "error: MemoryError\n" * 2
    assert "Traceback" not in err
    # a QZ of the numerical radius's level-set pencil that fails to converge
    monkeypatch.undo()
    zggev = scipy.linalg.lapack.zggev

    def failing(*args, **kwargs):
        out = zggev(*args, **kwargs)
        return out if kwargs.get("lwork") == -1 else (*out[:-1], 1)

    monkeypatch.setattr(matcore.scipy.linalg.lapack, "zggev", failing)
    assert cli.main(["analyze", path]) == cli.EXIT_BREACH
    assert cli.main(["compare", path, path]) == cli.EXIT_BREACH
    err = capsys.readouterr().err
    assert err == "error: zggev failed (LAPACK info=1)\n" * 2


def test_rank_mismatch_gap_is_null(tmp_path, capsys):
    # defect ranks (0, 0) against (1, 1): the screen gap is infinite
    a = _write(tmp_path, "a.json", cli.pair_file_doc(
        np.zeros((2, 2)), np.diag([0.5, 0.5])))
    b = _write(tmp_path, "b.json", cli.pair_file_doc(
        np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]])))
    assert cli.main(["compare", a, b]) == cli.EXIT_DISTINCT
    report = _report(capsys.readouterr().out)
    assert report["screen"] == {"max_gap": None, "mismatch": True,
                                "worst_word": "rank"}


def test_report_is_one_line_of_the_same_json(tmp_path, capsys):
    # the report is written compact, one line, to stdout and to --json
    # alike, and parses to the report an indented dump gives, its
    # non-finite values null and its keys sorted
    report = {"b": [1.5, float("inf"), {"y": float("nan"), "x": -0.0}],
              "a": {"n": None, "s": "text", "t": (1, 2)}}
    path = str(tmp_path / "report.json")
    cli._emit(report, None)
    cli._emit(report, path)
    out = capsys.readouterr().out
    assert out == open(path, encoding="utf-8").read()
    assert out.endswith("\n") and out.count("\n") == 1
    assert out.index('"a"') < out.index('"b"')
    want = json.loads(json.dumps(cli._finite_or_null(report), indent=2))
    assert _report(out) == want
    assert want == {"a": {"n": None, "s": "text", "t": [1, 2]},
                    "b": [1.5, None, {"x": -0.0, "y": None}]}


def test_a_finite_report_is_dumped_without_the_null_walk(
        tmp_path, capsys, monkeypatch):
    # the strict dump refuses only a non-finite float, so a finite report is
    # written as it is, and only a refused one is walked for nulls
    walks = []
    walk = cli._finite_or_null

    def counted(node):
        walks.append(node)
        return walk(node)

    monkeypatch.setattr(cli, "_finite_or_null", counted)
    path = _write(tmp_path, "pair.json", _pair_doc(g.random_pure_gamma(3, seed=52)))
    assert cli.main(["analyze", path, "--vn-trials", "8"]) == 0
    assert cli.main(["compare", path, path, "--search", "2"]) == 0
    assert walks == []
    finite = {"b": [1.5, -0.0], "a": {"t": (1, 2)}}
    cli._emit(finite, None)
    refused = {"x": float("inf")}
    cli._emit(refused, None)
    assert walks[0] is refused
    assert capsys.readouterr().out.splitlines()[-2:] == [
        '{"a": {"t": [1, 2]}, "b": [1.5, -0.0]}', '{"x": null}']


#: The exit code of each verdict, as the README and the cli docstring give it.
DOCUMENTED_EXIT = {
    "ok": 0, "not-gamma-contraction": 2, "numerical-contract-breach": 3,
    "EQUIVALENT": 0, "NOT_EQUIVALENT": 4, "INCONCLUSIVE": 5,
    "purity-violation": 6,
}


def test_exit_code_is_the_documented_code_of_the_verdict(tmp_path, capsys):
    pair = g.random_pure_gamma(2, seed=50, max_norm=0.8)
    pure = _write(tmp_path, "pure.json", _pair_doc(pair))
    outside = _write(tmp_path, "outside.json", {
        "schema_version": "1", "S": [[[3.0, 0.0]]], "P": [[[1.0, 0.0]]]})
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    breach = _write(tmp_path, "breach.json",
                    cli.pair_file_doc(nilpotent, 0.9 * nilpotent))
    scalar = _write(tmp_path, "scalar.json", {
        "schema_version": "1", "S": [[[1.0, 0.0]]], "P": [[[0.25, 0.0]]]})
    other = _write(tmp_path, "other.json", {
        "schema_version": "1", "S": [[[1.0, 0.0]]], "P": [[[0.5, 0.0]]]})
    unitary = _write(tmp_path, "gu.json",
                     _pair_doc(g.random_gamma_unitary(2, seed=51)))
    r_star = g.solve_fundamental(pair).f_star.shape[0]
    wrong = _write(tmp_path, "wrong.json", {
        "eta1": cli.matrix_to_json(matcore.haar_unitary(
            r_star, np.random.default_rng(52))),
        "sigma": cli.matrix_to_json(np.eye(r_star))})
    runs = (["analyze", pure, "--vn-trials", "8"],
            ["analyze", outside, "--vn-trials", "8"],
            ["analyze", breach, "--vn-trials", "0"],
            ["compare", pure, pure, "--search", "4"],
            ["compare", scalar, other],
            ["compare", pure, pure, "--witness", wrong],
            ["compare", unitary, pure])
    seen = set()
    for argv in runs:
        code = cli.main(argv)
        verdict = _report(capsys.readouterr().out)["verdict"]
        assert code == DOCUMENTED_EXIT[verdict], (argv, verdict, code)
        seen.add(verdict)
    assert seen == set(DOCUMENTED_EXIT)


def test_analyze_explicit_truncation(tmp_path, capsys):
    pair = g.random_pure_gamma(2, seed=39, max_norm=0.8)
    path = _write(tmp_path, "p.json", _pair_doc(pair))
    assert cli.main(["analyze", path, "--trunc", "6", "--vn-trials", "8"]) == 0
    report = _report(capsys.readouterr().out)
    assert report["model"]["n_trunc"] == 6


def test_analyze_deep_truncation_rho_099(tmp_path, capsys):
    # normal P with rho(P) = 0.99 needs N = 2750 blocks, m = 5500: the
    # complement check must not build T_Theta or an m x m array
    rng = np.random.default_rng(40)
    u = matcore.haar_unitary(2, rng)
    t1 = u @ np.diag([0.995, -0.5j]) @ matcore.dagger(u)
    t2 = u @ np.diag([0.99 / 0.995, 0.6]) @ matcore.dagger(u)
    pair = g.symmetrized_pair(t1, t2)
    path = _write(tmp_path, "deep.json", _pair_doc(pair))
    assert cli.main(["analyze", path, "--vn-trials", "0"]) == 0
    model = _report(capsys.readouterr().out)["model"]
    assert model["n_trunc"] == 2750
    assert model["residuals"]["complement_identity"] <= 1e-12


def test_analyze_rejects_bad_counts_as_malformed_input(tmp_path, capsys):
    path = _write(tmp_path, "p.json",
                  _pair_doc(g.random_pure_gamma(2, seed=44, max_norm=0.8)))
    for extra in (["--trunc", "0"], ["--trunc", "-3"], ["--trunc", "x"],
                  ["--vn-trials", "-1"], ["--vn-trials", "abc"]):
        assert cli.main(["analyze", path] + extra) == cli.EXIT_INPUT, extra
        err = capsys.readouterr().err
        assert extra[0] in err and "Traceback" not in err


def test_analyze_truncation_above_cap_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "p.json",
                  _pair_doc(g.random_pure_gamma(2, seed=45, max_norm=0.8)))
    assert cli.main(["analyze", path, "--trunc", "5000"]) == cli.EXIT_INPUT
    assert "--trunc" in capsys.readouterr().err
    # auto truncation that misses its target below the cap stays a breach
    slow = _write(tmp_path, "slow.json", _pair_doc(g.symmetrized_pair(
        np.array([[0.999]]), np.array([[0.996]]))))
    assert cli.main(["analyze", slow, "--vn-trials", "8"]) == cli.EXIT_BREACH
    report = _report(capsys.readouterr().out)
    assert report["breaches"] == [
        f"|P^N| did not reach 1.0e-12 for N <= {matcore.TRUNCATION_CAP}"]


def test_compare_search_rejects_restarts_below_one(tmp_path, capsys):
    path = _write(tmp_path, "p.json",
                  _pair_doc(g.random_pure_gamma(2, seed=46, max_norm=0.8)))
    for restarts in ("0", "-3"):
        assert (cli.main(["compare", path, path, "--search", restarts])
                == cli.EXIT_INPUT)
        assert "--search" in capsys.readouterr().err


def test_usage_errors_exit_input_help_exits_ok(capsys):
    assert cli.main([]) == cli.EXIT_INPUT
    assert cli.main(["analyze"]) == cli.EXIT_INPUT
    assert (cli.main(["compare", "a.json", "b.json", "--search", "x"])
            == cli.EXIT_INPUT)
    assert cli.main(["--help"]) == cli.EXIT_OK
    assert cli.main(["analyze", "--help"]) == cli.EXIT_OK
    assert cli.main(["--version"]) == cli.EXIT_OK
    assert "gammaops" in capsys.readouterr().out


def test_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, "p.json",
                  _pair_doc(g.random_pure_gamma(2, seed=47, max_norm=0.8)))
    for argv in (["generate", "--dim", "2"], ["analyze", path],
                 ["compare", path, path]):
        assert cli.main([*argv, "--seed", "-1"]) == cli.EXIT_INPUT
        assert "--seed" in capsys.readouterr().err
        monkeypatch.setenv("GAMMAOPS_SEED", "-3")
        assert cli.main(argv) == cli.EXIT_INPUT
        assert "GAMMAOPS_SEED" in capsys.readouterr().err
        monkeypatch.delenv("GAMMAOPS_SEED")


def test_compare_bad_witness_file_is_malformed_input(tmp_path, capsys):
    # the trace screen separates these pairs, so a late witness check
    # would report them NOT_EQUIVALENT instead of rejecting the file
    a = _write(tmp_path, "a.json",
               _pair_doc(g.random_pure_gamma(2, seed=48, max_norm=0.8)))
    b = _write(tmp_path, "b.json",
               _pair_doc(g.random_pure_gamma(2, seed=49, max_norm=0.8)))
    assert cli.main(["compare", a, b]) == cli.EXIT_DISTINCT
    capsys.readouterr()
    missing = str(tmp_path / "missing.json")
    not_unitary = _write(tmp_path, "w.json", {
        "eta1": cli.matrix_to_json(2.0 * np.eye(2)),
        "sigma": cli.matrix_to_json(np.eye(2))})
    for wfile in (missing, not_unitary):
        assert cli.main(["compare", a, b, "--witness", wfile]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert wfile in captured.err


def test_compare_past_the_truncation_cap_is_inconclusive(tmp_path, capsys):
    # rho(P) = 0.999 puts auto truncation past its cap, so the model
    # confirmation of a witness that passes both invariant halves cannot
    # run: an inconclusive verdict naming the cap, not a malformed input
    rng = np.random.default_rng(47)
    u = matcore.haar_unitary(2, rng)
    t1 = u @ np.diag([0.9995, -0.5j]) @ matcore.dagger(u)
    t2 = u @ np.diag([0.999 / 0.9995, 0.6]) @ matcore.dagger(u)
    pair_a = g.symmetrized_pair(t1, t2)
    v = matcore.haar_unitary(2, rng)
    pair_b = g.validate(v @ pair_a.s @ matcore.dagger(v),
                        v @ pair_a.p @ matcore.dagger(v))
    w, _ = g.witness_from_ambient(v, g.solve_fundamental(pair_a),
                                  g.solve_fundamental(pair_b))
    a = _write(tmp_path, "a.json", _pair_doc(pair_a))
    b = _write(tmp_path, "b.json", _pair_doc(pair_b))
    wfile = _write(tmp_path, "w.json", {"eta1": cli.matrix_to_json(w.eta1),
                                        "sigma": cli.matrix_to_json(w.sigma)})
    capped = f"|P^N| did not reach 1.0e-12 for N <= {matcore.TRUNCATION_CAP}"
    for extra in (["--witness", wfile], ["--search", "2"]):
        assert cli.main(["compare", a, b] + extra) == cli.EXIT_INCONCLUSIVE, extra
        report = _report(capsys.readouterr().out)
        assert report["verdict"] == "INCONCLUSIVE"
        equivalence = report["equivalence"]
        assert equivalence["reason"].endswith(capped)
        assert "model_confirmation" not in equivalence
        assert equivalence["fstar_residual"] <= 1e-12
        assert equivalence["coincidence"]["max_residual"] <= matcore.COINCIDE_TOL


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    runs = [["--version"], ["analyze"], ["bogus"], ["--version"],
            ["generate", "--dim", "2", "--seed", "1"],
            ["analyze", "--trunc", "0", "missing.json"]]
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(cli.main(argv))
    assert fresh == [cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_INPUT, cli.EXIT_OK,
                     cli.EXIT_OK, cli.EXIT_INPUT]
    fresh_out = capsys.readouterr()
    cli._parser.cache_clear()
    built.clear()
    assert [cli.main(argv) for argv in runs] == fresh
    assert capsys.readouterr() == fresh_out
    assert len(built) == 1


def test_search_stops_at_the_first_candidate_past_the_truncation_cap(
        tmp_path, capsys, monkeypatch):
    # the cap depends only on the two pairs: after the first candidate that
    # passes both invariant halves meets it, every later one would too.
    # The pair is normal, so its reduced system is rounding alone, and its
    # nullspace, taken on the pairs' scale, gives the ambient candidate:
    # that candidate is the first, restarts_used 1
    rng = np.random.default_rng(47)
    u = matcore.haar_unitary(2, rng)
    t1 = u @ np.diag([0.9995, -0.5j]) @ matcore.dagger(u)
    t2 = u @ np.diag([0.999 / 0.9995, 0.6]) @ matcore.dagger(u)
    pair_a = g.symmetrized_pair(t1, t2)
    v = matcore.haar_unitary(2, rng)
    a = _write(tmp_path, "a.json", _pair_doc(pair_a))
    b = _write(tmp_path, "b.json", cli.pair_file_doc(
        v @ pair_a.s @ matcore.dagger(v), v @ pair_a.p @ matcore.dagger(v)))
    attempts = []
    confirm = invariant._model_confirmation

    def counted(*args):
        attempts.append(1)
        return confirm(*args)

    monkeypatch.setattr(invariant, "_model_confirmation", counted)
    assert cli.main(["compare", a, b, "--search", "20"]) == cli.EXIT_INCONCLUSIVE
    report = _report(capsys.readouterr().out)
    assert report["equivalence"]["reason"].endswith(
        f"|P^N| did not reach 1.0e-12 for N <= {matcore.TRUNCATION_CAP}")
    assert len(attempts) == 1
    assert report["search"]["restarts_used"] == 1
