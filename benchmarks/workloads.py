"""Workload inputs, expected outcomes and output checks.

Every input is made from the workload seed and written as a pair file; the
program sees only those files, driven through ``gammaops.cli.main``.  The
checks re-read each JSON report against the bounds the CLI documents, with
the bounds written out here so that a change to the program's own
constants cannot loosen them.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Documented bounds (README "Guarantees under test", cli.py breach rules).
RESIDUAL_TOL = 1e-8       # fundamental residuals, times 1 + |S|
RADIUS_TOL = 1e-8         # numerical radii of F and F_* at most 1 + this
MODEL_TOL = 1e-7          # model residuals, times 1 + |S|, plus 10 tail (1 + |S|)
COINCIDE_TOL = 1e-8       # characteristic-function coincidence
FSTAR_TOL = 1e-8          # adjoint fundamental conjugation, times 1 + |F_*|
CONFIRM_TOL = 1e-7        # model-level confirmation of a found witness
SCREEN_TOL = 1e-6         # trace-word screen gap
AUTO_TAIL_TARGET = 1e-12  # |P^N| target of the automatic truncation

SEARCH_RESTARTS = 20
MODEL_KEYS = ("isometry_defect", "complement_identity", "intertwine_s",
              "intertwine_p", "fstar_defect_identity")
DIMS = (2, 6, 12)

# Spans every workload must exercise.
_COMMON_SPANS = (
    "cli.main", "cli.load_pair_file", "gamma_pair.validate",
    "matcore.numerical_radius", "matcore.joint_eigs_commuting",
    "fundamental.solve_fundamental", "fundamental.defect_pair",
    "charfn.theta_coeffs", "model.model_space", "model.model_operators",
    "model.auto_truncation",
)
_ANALYZE_SPANS = _COMMON_SPANS + (
    "gamma_pair.vn_probe", "gamma_domain.sup_norm_on_gamma",
    "gamma_domain.sup_norm_on_gamma_refined",
    "gamma_domain.eval_matrix_sym_poly", "fundamental.check_pf_intertwining",
    "cli.matrix_to_json", "charfn.toeplitz_mult", "model.verify_model",
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation with its expected exit code and report check.

    ``repeat`` is how often a timed pass runs it; the warm-up runs it once.
    """

    label: str
    argv: tuple[str, ...]
    expect_code: int
    check: Callable[[dict], list[str]]
    repeat: int = 1


@dataclass
class Workload:
    ops: list[Op]
    expected_spans: tuple[str, ...]
    setup_notes: dict = field(default_factory=dict)
    after_warmup: Callable[[dict[str, dict]], None] | None = None


class SetupError(RuntimeError):
    """Generated inputs miss the regime their workload is defined by."""


# ---------------------------------------------------------------- pair files

def write_pair(path: str, s: np.ndarray, p: np.ndarray, label: str) -> None:
    def enc(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in m]
    doc = {"schema_version": "1", "S": enc(s), "P": enc(p),
           "metadata": {"label": label}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def read_pair(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)

    def dec(rows):
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    return dec(doc["S"]), dec(doc["P"])


def _generate(cli, path: str, n: int, seed: int, kind: str) -> None:
    code = cli.main(["generate", "--dim", str(n), "--seed", str(seed),
                     "--kind", kind, "--out", path])
    if code != 0:
        raise SetupError(f"gammaops generate exited {code} for {path}")


def _haar(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def _seed_stream(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(1, 2**31 - 1))


# -------------------------------------------------------------------- checks

def _bad(value, limit) -> bool:
    return not (isinstance(value, (int, float)) and value <= limit)


def _check_analyze(report: dict, norm_s: float, pure: bool,
                   n_trunc: int | None) -> list[str]:
    problems = []
    if report.get("verdict") != "ok":
        problems.append(f"verdict {report.get('verdict')!r}")
    if report.get("breaches"):
        problems.append(f"breaches {report['breaches']}")
    scale = 1.0 + norm_s
    fund = report.get("fundamental") or {}
    for key in ("residual_f", "residual_f_star", "pf_intertwine"):
        if _bad(fund.get(key), RESIDUAL_TOL * scale):
            problems.append(f"fundamental {key} = {fund.get(key)}")
    for key in ("w_f", "w_f_star"):
        if _bad(fund.get(key), 1.0 + RADIUS_TOL):
            problems.append(f"numerical radius {key} = {fund.get(key)}")
    model = report.get("model")
    if not pure:
        if model is not None:
            problems.append("model built for a pair that is not pure")
        return problems
    if model is None:
        return problems + ["no model for a pure pair"]
    residuals = model.get("residuals", {})
    limit = MODEL_TOL * scale + 10.0 * model.get("tail", math.inf) * scale
    for key in MODEL_KEYS:
        if _bad(residuals.get(key), limit):
            problems.append(f"model {key} = {residuals.get(key)}")
    if n_trunc is not None and model.get("n_trunc") != n_trunc:
        problems.append(f"n_trunc {model.get('n_trunc')}, expected {n_trunc}")
    return problems


def _check_found(report: dict, fstar_bound: float) -> list[str]:
    problems = []
    eq = report.get("equivalence") or {}
    conf = eq.get("model_confirmation") or {}
    if report.get("verdict") != "EQUIVALENT":
        problems.append(f"verdict {report.get('verdict')!r}")
    if (report.get("search") or {}).get("status") != "FOUND":
        problems.append(f"search {report.get('search')}")
    if "witness" not in report:
        problems.append("no witness in the report")
    if _bad(eq.get("fstar_residual"), fstar_bound):
        problems.append(f"fstar_residual {eq.get('fstar_residual')}")
    if _bad((eq.get("coincidence") or {}).get("max_residual"), COINCIDE_TOL):
        problems.append(f"coincidence {eq.get('coincidence')}")
    for key in ("conjugation", "unitarity"):
        if _bad(conf.get(key), CONFIRM_TOL):
            problems.append(f"model confirmation {key} = {conf.get(key)}")
    return problems


def _check_distinct(report: dict) -> list[str]:
    problems = []
    if report.get("verdict") != "NOT_EQUIVALENT" or not report.get("conclusive"):
        problems.append(f"verdict {report.get('verdict')!r}")
    if not (report.get("screen") or {}).get("mismatch"):
        problems.append("trace screen did not separate the pairs")
    return problems


def witness_margin(report: dict, fstar_bound: float) -> float:
    """How many times its bound the reported best witness misses by."""
    eq = report.get("equivalence") or {}
    fstar = eq.get("fstar_residual") or 0.0
    coinc = (eq.get("coincidence") or {}).get("max_residual") or 0.0
    return max(fstar / fstar_bound, coinc / COINCIDE_TOL)


def _check_not_found(report: dict, fstar_bound: float) -> list[str]:
    problems = []
    search = report.get("search") or {}
    if report.get("verdict") != "INCONCLUSIVE":
        problems.append(f"verdict {report.get('verdict')!r}")
    if (search.get("status") != "NOT_FOUND"
            or search.get("restarts_used") != 2 * SEARCH_RESTARTS):
        problems.append(f"search {search}")
    gap = (report.get("screen") or {}).get("max_gap")
    if _bad(gap, SCREEN_TOL / 2):
        problems.append(f"screen gap {gap} above half the screen tolerance")
    if not witness_margin(report, fstar_bound) >= 2.0:
        problems.append("best witness misses its bound by less than 2x")
    return problems


# ----------------------------------------------------------------- workloads

def _torus_pair(n: int, rng: np.random.Generator):
    """Commuting normal pair with a fixed joint spectrum on the torus.

    The n spectral points have angles (k + 1/2)/n and frac((k + 1/2) g), g
    the golden-ratio conjugate, so they spread over the torus for every n
    and no point has z1 = z2, where |z1 + z2| = 2 would put S on the bound
    of its norm.  Only the unitary basis comes from ``rng``.  The probe's cost depends on the
    spectrum alone (the sup of |q| and |q(S, P)| are basis-free), so it is
    the same for every seed.
    """
    k = np.arange(n)
    z1 = np.exp(2j * np.pi * (k + 0.5) / n)
    z2 = np.exp(2j * np.pi * (((k + 0.5) * (math.sqrt(5.0) - 1.0) / 2.0) % 1.0))
    u = _haar(n, rng)
    ud = u.conj().T
    return (u * (z1 + z2)) @ ud, (u * (z1 * z2)) @ ud


def analyze_probe(seed: int, workdir: str, gammaops) -> Workload:
    """``analyze`` with the default 200-trial probe on pairs made from the seed.

    Why: ``vn_probe`` is about 80% of each ~0.2 s operation and
    ``numerical_radius`` about 10%; the model stays under 3% (m <= 156).
    Probe and radius work shows here, model work should not.  Per n, five
    symmetrized pairs from ``gammaops generate`` (pure, rho(P) <= 0.7225)
    and one gamma-unitary pair (not pure: no model, rank-0 defects).  The
    gamma-unitary pair is built here with the fixed torus spectrum of
    ``_torus_pair``: with a random spectrum, as ``generate`` draws it, the
    number of probe polynomials that need the refined sup ranged from 2 to
    28 per input over 20 seeds, which moved the pass time by up to 20%
    between seeds.  With the fixed spectrum every seed refines 3, 7 and
    14 polynomials at n = 2, 6 and 12.
    """
    seeds = _seed_stream(seed)
    rng = np.random.default_rng([seed, 2])
    ops = []
    for n in DIMS:
        for k in range(5):
            label = f"symmetrized-n{n}-{k}"
            path = os.path.join(workdir, label + ".json")
            _generate(gammaops.cli, path, n, next(seeds), "symmetrized")
            s, _ = read_pair(path)
            ops.append(Op(label, ("analyze", path), 0, functools.partial(
                _check_analyze, norm_s=_norm(s), pure=True, n_trunc=None)))
        label = f"gamma-unitary-n{n}"
        path = os.path.join(workdir, label + ".json")
        s, p = _torus_pair(n, rng)
        write_pair(path, s, p, label)
        ops.append(Op(label, ("analyze", path), 0, functools.partial(
            _check_analyze, norm_s=_norm(s), pure=False, n_trunc=None)))
    return Workload(ops, _ANALYZE_SPANS)


def _normal_pure_pair(n: int, rho: float, rng: np.random.Generator):
    """Commuting normal contractions T1, T2 with rho(T1 T2) = rho exactly."""
    ra = rng.uniform(0.2, 1.0, n)
    rb = np.minimum(rng.uniform(0.2, 1.0, n), 0.95 * rho / ra)
    x = rng.uniform(math.sqrt(rho), 1.0)
    ra[0], rb[0] = x, rho / x
    a = ra * np.exp(2j * np.pi * rng.uniform(size=n))
    b = rb * np.exp(2j * np.pi * rng.uniform(size=n))
    u = _haar(n, rng)
    ud = u.conj().T
    return (u * a) @ ud, (u * b) @ ud


def model_deep(seed: int, workdir: str, gammaops) -> Workload:
    """``analyze`` on pure pairs with exact rho(P) in {0.72, 0.9}.

    Why: ``model`` and ``charfn`` do over 90% of the work.  Auto truncation
    gives N = 85 or 263 and model dimension m = N r* from 170 to 3156, on
    both sides of the dense/power-iteration switch at m = 600.  rho = 0.99
    is left out: it would allocate 16 GiB per model operator today.  The
    rho = 0.9, n = 2 pair (m = 526, the largest dense complement check) runs
    five times per pass, so the median latency falls inside that one input
    instead of between two unrelated ones.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for rho in (0.72, 0.9):
        # |P^N| = rho^N for normal P
        n_trunc = next(k for k in itertools.count(1)
                       if rho ** k <= AUTO_TAIL_TARGET)
        for n in DIMS:
            t1, t2 = _normal_pure_pair(n, rho, rng)
            pair = gammaops.symmetrized_pair(t1, t2)
            label = f"rho{rho}-n{n}"
            path = os.path.join(workdir, label + ".json")
            write_pair(path, pair.s, pair.p, label)
            ops.append(Op(label, ("analyze", path), 0, functools.partial(
                _check_analyze, norm_s=_norm(pair.s), pure=True,
                n_trunc=n_trunc), repeat=5 if (rho, n) == (0.9, 2) else 1))
    return Workload(ops,
                    _ANALYZE_SPANS + ("matcore.op_norm_hermitian",))


def compare_search(seed: int, workdir: str, gammaops) -> Workload:
    """``compare a b --search 20`` on one triple of pairs per n.

    Why: exercises ``invariant``, the pointwise resolvent path of ``charfn``
    (``theta_at``) and the recomputation of fundamental operators.  The
    planted conjugate is FOUND (exit 0), the independent pair is DISTINCT by
    the trace screen (exit 4), and the conjugate of (S + eps P, P) is
    NOT_FOUND after all restarts (exit 5).  eps puts the screen gap at 0.4
    of the screen tolerance (at most half is required); the best witness
    must miss its bound by at least 2x, which is checked on every operation.
    One triple per n: the near-equivalent searches take most of the time,
    and their cost moved by no more between seeds than between two runs of
    one seed (1.3-1.9 s at n = 2, 2.0-3.1 s at n = 12), so one triple keeps
    a pass short (about 6.5 s) without making it depend on the seed.  The
    independent pair runs three times per pass, so the median latency falls
    inside the n = 12 screen operations.
    """
    seeds = _seed_stream(seed)
    rng = np.random.default_rng([seed, 1])
    ops, notes, bounds = [], {}, {}
    search = ("--search", str(SEARCH_RESTARTS))
    for n in DIMS:
        tag = f"n{n}"
        base = os.path.join(workdir, f"a-{tag}.json")
        _generate(gammaops.cli, base, n, next(seeds), "symmetrized")
        other = os.path.join(workdir, f"independent-{tag}.json")
        _generate(gammaops.cli, other, n, next(seeds), "symmetrized")
        s, p = read_pair(base)
        u = _haar(n, rng)
        ud = u.conj().T
        fp_a = gammaops.solve_fundamental(gammaops.validate(s, p))
        fstar_bound = FSTAR_TOL * (1.0 + _norm(fp_a.f_star))

        def near_gap(eps):
            pair = gammaops.validate(u @ (s + eps * p) @ ud, u @ p @ ud)
            screen = gammaops.trace_word_screen(
                fp_a, gammaops.solve_fundamental(pair))
            return pair, screen.max_gap

        _, gap0 = near_gap(1e-6)
        eps = 1e-6 * (0.4 * SCREEN_TOL) / gap0
        near, gap = near_gap(eps)
        if not gap <= SCREEN_TOL / 2:
            raise SetupError(f"{tag}: screen gap {gap:.3e} for eps {eps:.3e}")
        conj = os.path.join(workdir, f"conjugate-{tag}.json")
        write_pair(conj, u @ s @ ud, u @ p @ ud, f"conjugate-{tag}")
        near_path = os.path.join(workdir, f"near-{tag}.json")
        write_pair(near_path, near.s, near.p, f"near-{tag}")
        notes[f"near-{tag}"] = {"eps": eps, "screen_gap": gap,
                                "screen_margin": SCREEN_TOL / gap}
        bounds[f"near-{tag}"] = fstar_bound
        ops += [
            Op(f"conjugate-{tag}", ("compare", base, conj) + search, 0,
               functools.partial(_check_found, fstar_bound=fstar_bound)),
            Op(f"independent-{tag}", ("compare", base, other) + search, 4,
               _check_distinct, repeat=3),
            Op(f"near-{tag}", ("compare", base, near_path) + search, 5,
               functools.partial(_check_not_found, fstar_bound=fstar_bound)),
        ]

    def record_margins(reports: dict[str, dict]) -> None:
        for label, bound in bounds.items():
            notes[label]["witness_margin"] = witness_margin(
                reports.get(label, {}), bound)

    spans = _COMMON_SPANS + (
        "matcore.polar_unitary", "charfn.theta_at", "charfn.coincide_check",
        "invariant.search_witness", "invariant.verify_equivalence",
        "invariant.trace_word_screen", "invariant.witness_from_ambient",
        "cli.matrix_to_json")
    return Workload(ops, spans, notes, record_margins)


BUILDERS = {
    "analyze-probe": analyze_probe,
    "model-deep": model_deep,
    "compare-search": compare_search,
}


def report_facts(report: dict) -> dict:
    """Exact per-operation quantities read from a report.

    ``dense_bytes`` is computed, not measured: 16 (2 m^2 + N^2 r* r) for the
    dense T, V and T_Theta of an ``analyze`` model, and 16 (4 m^2) for the
    T and V of the two models a found witness is confirmed on; m = N r*.
    """
    search = report.get("search") or {}
    facts = {"searched": int(bool(search)),
             "found": int(search.get("status") == "FOUND"),
             "restarts": int(search.get("restarts_used", 0)),
             "n_trunc": 0, "dense_bytes": 0}
    model = report.get("model")
    conf = (report.get("equivalence") or {}).get("model_confirmation")
    if model:
        fund = report["fundamental"]
        big_n, r, r_star = model["n_trunc"], len(fund["F"]), len(fund["F_star"])
        m = big_n * r_star
        facts.update(n_trunc=big_n,
                     dense_bytes=16 * (2 * m * m + big_n ** 2 * r_star * r))
    elif conf:
        big_n = int(conf["n_trunc"])
        m = big_n * len(report["witness"]["eta1"])
        facts.update(n_trunc=big_n, dense_bytes=16 * 4 * m * m)
    return facts
