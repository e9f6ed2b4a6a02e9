"""Batch front door: JSON pairs in, machine-readable reports out.

Pair files carry complex matrices as nested arrays of [re, im] pairs under
schema_version "1".  Exit codes are a total function of the verdicts:

    analyze   0 ok, 2 not a valid pair for this geometry, 3 numerical
              contract breach, 1 malformed input
    compare   0 equivalent, 4 conclusively distinct, 5 inconclusive,
              6 purity violation, 1 malformed input or an unusable pair
    generate  0 written, 1 bad parameters or unwritable path

Usage errors (bad options or arguments) are malformed input and exit 1.
A LAPACK routine that does not converge ends any command with 3, running
out of memory with 1.
Reports are strict JSON: a non-finite value is written as null.
The environment variable GAMMAOPS_SEED overrides the built-in default seed
wherever no explicit --seed is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, matcore
from .exceptions import (
    DimensionMismatch,
    GammaOpsError,
    NotCommuting,
    NotContraction,
    NotPure,
    NumericalContractBreach,
    PairFileError,
    TruncationCapExceeded,
)
from .fundamental import check_pf_intertwining, residual_bound, solve_fundamental
from .gamma_pair import (
    random_gamma_unitary,
    random_pure_gamma,
    validate,
    vn_probe,
)
from .invariant import (
    SEARCH_DISTINCT,
    SEARCH_FOUND,
    VERDICT_EQUIVALENT,
    VERDICT_NOT_EQUIVALENT,
    Witness,
    search_witness,
    trace_word_screen,
    verify_equivalence,
)
from .model import model_space, verify_model

SCHEMA_VERSION = "1"
DEFAULT_SEED = 0

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_GAMMA = 2
EXIT_BREACH = 3
EXIT_DISTINCT = 4
EXIT_INCONCLUSIVE = 5
EXIT_NOT_PURE = 6

VERDICT_INCONCLUSIVE = "INCONCLUSIVE"

#: The exit code of each report verdict, the only place one is chosen.
EXIT_BY_VERDICT = {
    "ok": EXIT_OK,
    "not-gamma-contraction": EXIT_NOT_GAMMA,
    "numerical-contract-breach": EXIT_BREACH,
    VERDICT_EQUIVALENT: EXIT_OK,
    VERDICT_NOT_EQUIVALENT: EXIT_DISTINCT,
    VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE,
    "purity-violation": EXIT_NOT_PURE,
}

#: The exit code of an error that ends a run; the first matching class wins.
#: A LAPACK routine that does not converge breaks the numerical contract.
EXIT_BY_ERROR = ((NotPure, EXIT_NOT_PURE), (NumericalContractBreach, EXIT_BREACH),
                 (np.linalg.LinAlgError, EXIT_BREACH), (GammaOpsError, EXIT_INPUT),
                 (MemoryError, EXIT_INPUT))


#: The largest finite float: -MAX <= x <= MAX fails for NaN, for the
#: infinities and for an int beyond the float range alike.
_FLOAT_MAX = sys.float_info.max
_NUMBER = (int, float)


def matrix_from_json(node, name: str) -> np.ndarray:
    """Parse a nested array of [re, im] pairs, diagnosing the first failing field.

    One row-major walk checks each row, cell and number once; a number is a
    JSON int or float (not a bool) of modulus at most the largest float.  The
    checked array is then converted at once.
    """
    if not isinstance(node, list) or not node:
        raise PairFileError(f"{name}: expected a non-empty array of rows")
    width = len(node[0]) if isinstance(node[0], list) else 0
    for i, row in enumerate(node):
        if not isinstance(row, list) or not row:
            raise PairFileError(f"{name}[{i}]: expected a non-empty row array")
        if len(row) != width:
            raise PairFileError(f"{name}[{i}]: ragged row, expected {width} "
                                f"entries, got {len(row)}")
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise PairFileError(f"{name}[{i}][{j}]: expected [re, im] pair")
            re, im = cell  # unrolled: a loop over the pair costs 3x
            if type(re) not in _NUMBER:
                raise PairFileError(f"{name}[{i}][{j}][0]: expected a number, "
                                    f"got {type(re).__name__}")
            if not -_FLOAT_MAX <= re <= _FLOAT_MAX:
                raise PairFileError(f"{name}[{i}][{j}][0]: non-finite value")
            if type(im) not in _NUMBER:
                raise PairFileError(f"{name}[{i}][{j}][1]: expected a number, "
                                    f"got {type(im).__name__}")
            if not -_FLOAT_MAX <= im <= _FLOAT_MAX:
                raise PairFileError(f"{name}[{i}][{j}][1]: non-finite value")
    return np.array(node, np.float64).view(np.complex128)[..., 0]


def matrix_to_json(m) -> list:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return np.stack((m.real, m.imag), -1).tolist()


def _read_json_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PairFileError(f"{path}: {exc.strerror or exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PairFileError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise PairFileError(f"{path}: top level must be an object")
    return doc


def load_pair_file(path: str) -> tuple[np.ndarray, np.ndarray, dict]:
    """Read and validate a pair file, returning (S, P, metadata)."""
    doc = _read_json_doc(path)
    version = doc.get("schema_version")
    if version is None:
        raise PairFileError("schema_version: missing required field")
    if version != SCHEMA_VERSION:
        raise PairFileError(
            f"schema_version: expected \"{SCHEMA_VERSION}\", got {version!r}")
    mats = {}
    for key in ("S", "P"):
        if key not in doc:
            raise PairFileError(f"{key}: missing required field")
        m = matrix_from_json(doc[key], key)
        if m.shape[0] != m.shape[1]:
            raise PairFileError(
                f"{key}: must be square, got {m.shape[0]}x{m.shape[1]}")
        mats[key] = m
    if mats["S"].shape != mats["P"].shape:
        raise PairFileError(
            f"S and P: dimensions differ, {mats['S'].shape[0]} vs "
            f"{mats['P'].shape[0]}")
    metadata = doc.get("metadata")
    if not isinstance(metadata, dict):
        metadata = {}
    return mats["S"], mats["P"], metadata


def pair_file_doc(s, p, metadata: dict | None = None) -> dict:
    doc = {"schema_version": SCHEMA_VERSION,
           "S": matrix_to_json(s), "P": matrix_to_json(p)}
    if metadata:
        doc["metadata"] = metadata
    return doc


def load_witness_file(path: str) -> Witness:
    """Read a witness file: eta1 and sigma required.

    An ambient U is not read: nothing would check it.  A ``sigma_star`` is
    not read either: eta1 is the one adjoint-side unitary of the invariant.
    """
    doc = _read_json_doc(path)
    for key in ("eta1", "sigma"):
        if key not in doc:
            raise PairFileError(f"{key}: missing required field")
    eta1 = matrix_from_json(doc["eta1"], "eta1")
    sigma = matrix_from_json(doc["sigma"], "sigma")
    try:
        return Witness(eta1=eta1, sigma=sigma)
    except ValueError as exc:
        raise PairFileError(f"{path}: {exc}") from exc


def _resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("GAMMAOPS_SEED")
    if env is not None:
        try:
            return _int_at_least(env, 0)
        except argparse.ArgumentTypeError as exc:
            raise PairFileError(f"GAMMAOPS_SEED: {exc}") from exc
    return DEFAULT_SEED


def _finite_or_null(node):
    """A copy of a JSON tree with every non-finite float replaced by None."""
    if isinstance(node, float):
        return node if math.isfinite(node) else None
    if isinstance(node, dict):
        return {key: _finite_or_null(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_finite_or_null(value) for value in node]
    return node


def _emit(report: dict, json_path: str | None) -> None:
    """Write a report as one line of strict JSON; only a report that holds a
    non-finite float, which the strict dump refuses, is walked for nulls."""
    try:
        text = json.dumps(report, sort_keys=True, allow_nan=False)
    except ValueError:
        text = json.dumps(_finite_or_null(report), sort_keys=True, allow_nan=False)
    text += "\n"
    if json_path:
        try:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise PairFileError(f"{json_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _finish(report: dict, args, t0: float) -> int:
    """Stamp the elapsed time, emit the report and return its verdict's code."""
    report["elapsed_s"] = time.perf_counter() - t0
    _emit(report, args.json)
    return EXIT_BY_VERDICT[report["verdict"]]


def _tool_block() -> dict:
    return {"name": "gammaops", "version": __version__}


def _residual_rows(fp, *more) -> list:
    """Rows of S - S*P = D_P F D_P, of its adjoint and of each (key, label,
    value) in ``more``, all bounded by RESIDUAL_BREACH_TOL (1 + |S|), the
    bound under which ``solve_fundamental`` shares one radius."""
    bound = residual_bound(fp.pair)
    return [(key, label, value, bound) for key, label, value in (
        ("residual_f", "fundamental equation residual", fp.residual_f),
        ("residual_f_star", "adjoint fundamental equation residual",
         fp.residual_f_star), *more)]


def _checked(rows, breaches: list) -> dict:
    """Report values of (key, label, value, bound) rows; each value not <= its
    bound, NaN included, adds a breach naming it with its value and bound."""
    for key, label, value, bound in rows:
        if not value <= bound:
            breaches.append(f"{label} ({key}) = {float(value)!r} exceeds its "
                            f"bound {float(bound)!r}")
    return {key: float(value) for key, _, value, _ in rows}


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    seed = _resolve_seed(args.seed)
    s, p, metadata = load_pair_file(args.input)
    report = {
        "tool": _tool_block(),
        "input": {"path": args.input, "n": int(s.shape[0]),
                  "metadata": metadata},
        "seed": seed,
    }
    try:
        pair = validate(s, p)
    except NotCommuting as exc:
        report["error"] = str(exc)
        report["verdict"] = "not-gamma-contraction"
        return _finish(report, args, t0)

    probe = vn_probe(pair, trials=args.vn_trials, seed=seed)
    report["probe"] = {
        "worst_ratio": probe.worst_ratio,
        "certified_not_gamma": probe.certified_not_gamma,
        "trials": probe.trials,
        "max_deg": probe.max_deg,
        "certificate": (matrix_to_json(probe.worst_coeffs)
                        if probe.certified_not_gamma else None),
    }
    report["flags"] = {"commuting": True,  # validate refused the pair otherwise
                       **dataclasses.asdict(pair.flags),
                       "vn_probe_passed": probe.passed,
                       "necessary_ok": pair.necessary_ok}
    report["joint_spectrum"] = [
        {"s": [pt.s.real, pt.s.imag], "p": [pt.p.real, pt.p.imag]}
        for pt in pair.joint_spectrum]

    breaches = []
    scale = 1.0 + pair.norm_s
    report["fundamental"] = fp = None
    try:
        fp = solve_fundamental(pair)
        radius = 1.0 + matcore.RADIUS_BREACH_TOL
        rows = _residual_rows(fp, ("pf_intertwine", "PF intertwining residual",
                                   check_pf_intertwining(fp))) + [
            ("w_f", "numerical radius of F", fp.w_f, radius),
            ("w_f_star", "numerical radius of F_star", fp.w_f_star, radius)]
        report["fundamental"] = {"F": matrix_to_json(fp.f),
                                 "F_star": matrix_to_json(fp.f_star),
                                 **_checked(rows, breaches)}
    except NotContraction as exc:
        report["error"] = str(exc)
    except NumericalContractBreach as exc:
        breaches.append(str(exc))

    report["model"] = None
    if (fp is not None and pair.flags.pure and pair.necessary_ok
            and not probe.certified_not_gamma):
        try:
            md = model_space(fp, n_trunc=args.trunc)
            tail, ledger = verify_model(fp, md)
            # explicit shallow truncations legitimately carry O(tail) error
            limit = (matcore.MODEL_BREACH_TOL * scale
                     + matcore.TAIL_SLACK * tail * scale)
            rows = [(key, "model residual", value, limit)
                    for key, value in ledger.items()]
            report["model"] = {"n_trunc": md.n_trunc, "tail": tail,
                               "residuals": _checked(rows, breaches)}
        except TruncationCapExceeded as exc:
            breaches.append(str(exc))

    report["breaches"] = breaches
    if not pair.necessary_ok or probe.certified_not_gamma:
        report["verdict"] = "not-gamma-contraction"
    elif breaches:
        report["verdict"] = "numerical-contract-breach"
    else:
        report["verdict"] = "ok"
    return _finish(report, args, t0)


def _witness_block(w: Witness) -> dict:
    block = {
        "eta1": matrix_to_json(w.eta1),
        "sigma": matrix_to_json(w.sigma),
    }
    if w.u_ambient is not None:
        block["U"] = matrix_to_json(w.u_ambient)
    return block


def _equivalence_block(rep) -> dict:
    """The fields of an EquivalenceReport, those it does not carry left out."""
    return {k: v for k, v in dataclasses.asdict(rep).items() if v is not None}


def cmd_compare(args) -> int:
    t0 = time.perf_counter()
    seed = _resolve_seed(args.seed)
    s_a, p_a, meta_a = load_pair_file(args.input_a)
    s_b, p_b, meta_b = load_pair_file(args.input_b)
    witness = load_witness_file(args.witness) if args.witness else None
    report = {
        "tool": _tool_block(),
        "inputs": [
            {"path": args.input_a, "n": int(s_a.shape[0]), "metadata": meta_a},
            {"path": args.input_b, "n": int(s_b.shape[0]), "metadata": meta_b},
        ],
        "seed": seed,
    }
    try:
        pair_a = validate(s_a, p_a)
        pair_b = validate(s_b, p_b)
        for pair in (pair_a, pair_b):
            if not pair.flags.s_bound:
                raise PairFileError(
                    f"not a usable pair: |S| = {pair.norm_s:.12g} exceeds 2")
        fp_a = solve_fundamental(pair_a)
        fp_b = solve_fundamental(pair_b)
    except (NotCommuting, NotContraction, NumericalContractBreach) as exc:
        raise PairFileError(f"not a usable pair: {exc}") from exc
    # (F_*, Theta) is a pair's invariant only where F, F_* solve their equations
    for path, fp in ((args.input_a, fp_a), (args.input_b, fp_b)):
        breaches = []
        _checked(_residual_rows(fp), breaches)
        if breaches:
            raise PairFileError(f"not a usable pair: {path}: {'; '.join(breaches)}")
    if not (pair_a.flags.pure and pair_b.flags.pure):
        report["verdict"] = "purity-violation"
        return _finish(report, args, t0)

    if witness is not None:
        screen = trace_word_screen(fp_a, fp_b)
    else:
        result = search_witness(fp_a, fp_b, restarts=args.search, seed=seed)
        screen = result.screen
    report["screen"] = dataclasses.asdict(screen)
    if screen.mismatch:
        report["verdict"] = VERDICT_NOT_EQUIVALENT
        report["conclusive"] = True
        return _finish(report, args, t0)

    if witness is not None:
        report["witness_source"] = "file"
        try:
            rep = verify_equivalence(fp_a, fp_b, witness)
        except DimensionMismatch as exc:
            raise PairFileError(f"witness does not fit the pairs: {exc}") from exc
        report["witness"] = _witness_block(witness)
        report["equivalence"] = _equivalence_block(rep)
        report["verdict"] = (rep.verdict if rep.equivalent or rep.conclusive
                             else VERDICT_INCONCLUSIVE)
        return _finish(report, args, t0)

    report["witness_source"] = "search"
    report["search"] = {"status": result.status,
                        "restarts_used": result.restarts_used}
    for key in ("ambient_gap", "ambient_gap_bound", "fstar_gap",
                "fstar_gap_bound", "defect_sigma_min", "defect_bound"):
        if getattr(result, key) is not None:
            report["search"][key] = getattr(result, key)
    report["search"]["refusals"] = [
        {"test": test, "value": value, "bound": bound}
        for test, value, bound in result.refusals]
    if result.report is not None:
        report["equivalence"] = _equivalence_block(result.report)
    if result.status == SEARCH_FOUND:
        report["witness"] = _witness_block(result.witness)
        report["verdict"] = VERDICT_EQUIVALENT
    elif result.status == SEARCH_DISTINCT:
        report["verdict"] = VERDICT_NOT_EQUIVALENT
        report["conclusive"] = True
    else:
        report["verdict"] = VERDICT_INCONCLUSIVE
    return _finish(report, args, t0)


def cmd_generate(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.kind == "symmetrized":
        pair = random_pure_gamma(args.dim, seed, max_norm=matcore.GENERATE_MAX_NORM)
    else:
        pair = random_gamma_unitary(args.dim, seed)
    metadata = {"kind": args.kind, "seed": seed,
                "label": f"{args.kind}-n{args.dim}-seed{seed}"}
    _emit(pair_file_doc(pair.s, pair.p, metadata), args.out)
    return EXIT_OK


def _int_at_least(value: str, low: int) -> int:
    try:
        n = int(value)
    except ValueError:
        n = low - 1
    if n < low:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {low}, got {value!r}")
    return n


def _trunc_arg(value: str) -> int | None:
    if value == "auto":
        return None
    n = _int_at_least(value, 1)
    if n > matcore.TRUNCATION_CAP:
        raise argparse.ArgumentTypeError(
            f"expected at most {matcore.TRUNCATION_CAP} blocks, got {value!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammaops",
        description="Diagnostics for commuting operator pairs on the "
                    "symmetrized bidisc.")
    parser.add_argument("--version", action="version",
                        version=f"gammaops {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full diagnostic pipeline on one pair")
    pa.add_argument("input", help="pair file (JSON)")
    pa.add_argument("--trunc", type=_trunc_arg, default="auto",
                    help="model truncation: block count or 'auto'")
    pa.add_argument("--vn-trials", type=lambda v: _int_at_least(v, 0),
                    default=matcore.PROBE_TRIALS,
                    help="random polynomials in the spectral-set probe")
    pa.add_argument("--seed", type=lambda v: _int_at_least(v, 0), default=None,
                    help="probe seed (default: GAMMAOPS_SEED or 0)")
    pa.add_argument("--json", default=None, metavar="PATH",
                    help="write the report here instead of stdout")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("compare", help="decide unitary equivalence of two pairs")
    pc.add_argument("input_a", help="first pair file")
    pc.add_argument("input_b", help="second pair file")
    group = pc.add_mutually_exclusive_group()
    group.add_argument("--witness", default=None, metavar="PATH",
                       help="witness file with eta1/sigma")
    group.add_argument("--search", type=lambda v: _int_at_least(v, 1),
                       default=matcore.SEARCH_RESTARTS, metavar="RESTARTS",
                       help="heuristic witness search restarts (default %(default)s)")
    pc.add_argument("--seed", type=lambda v: _int_at_least(v, 0), default=None,
                    help="search seed (default: GAMMAOPS_SEED or 0)")
    pc.add_argument("--json", default=None, metavar="PATH",
                    help="write the report here instead of stdout")
    pc.set_defaults(func=cmd_compare)

    pg = sub.add_parser("generate", help="write a random pair file")
    pg.add_argument("--dim", type=lambda v: _int_at_least(v, 1), required=True,
                    help="matrix size")
    pg.add_argument("--seed", type=lambda v: _int_at_least(v, 0), default=None,
                    help="generator seed (default: GAMMAOPS_SEED or 0)")
    pg.add_argument("--kind", choices=("symmetrized", "gamma-unitary"),
                    default="symmetrized")
    pg.add_argument("--out", default=None, metavar="PATH",
                    help="output path (default: stdout)")
    pg.set_defaults(func=cmd_generate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help or --version and 2 on a usage error
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_BY_ERROR) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for cls, code in EXIT_BY_ERROR if isinstance(exc, cls))


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
