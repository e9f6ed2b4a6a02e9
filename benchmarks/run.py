"""Benchmark of the gammaops CLI on seeded inputs, closed loop, one client.

Run from the repository root:

    python3 benchmarks/run.py --workload analyze-probe --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``analyze-probe``,
``model-deep`` and ``compare-search``.  The inputs are made from ``--seed``
and handed to ``gammaops.cli.main`` as pair files, in this process, with
BLAS pinned to one thread.  Each timed loop runs whole passes over the
workload's operations until ``--seconds`` have elapsed, so every run times
the same mix of inputs.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of traced
passes that alternate with untraced ones.  The line before it is the full
report with provenance, which is also written to ``benchmarks/out/``.

Seeds 1 to 10 are the development seeds.  Seed 7919 is held out: confirm a
claimed gain on it after the change is written.
"""

import os
import sys
import time

_T0 = time.perf_counter()
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# the program must see only the generated files, not a seed from outside
os.environ.pop("GAMMAOPS_SEED", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import CoverageError, Tracer  # noqa: E402
from workloads import BUILDERS, Op, SetupError, report_facts  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh-process set-ups per run; setup_s takes their median.
SETUP_SAMPLES = 3

#: Operations needed before latency_p90_ms is reported (ten beyond it).
P90_MIN_SAMPLES = 100


class SelfCheckError(RuntimeError):
    """The benchmark's own consistency checks failed."""


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gammaops
        import gammaops.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"error: cannot import gammaops from {src}: {exc}")
    if Path(gammaops.__file__).resolve().parent != src / "gammaops":
        raise SystemExit(f"error: gammaops imported from {gammaops.__file__}, "
                         f"not from {src}")
    return gammaops


@dataclass
class OpResult:
    label: str
    seconds: float
    problems: list
    facts: dict
    report: dict
    speed: float = math.nan


#: Seconds that ``reference_work()`` takes on the reference machine, a shared
#: 2-vCPU Xeon virtual machine in its faster state (about the median of 15 calls).
REF_WORK_S = 0.014
REF_ROUNDS = 10

_REF_RNG = np.random.default_rng(0)
_REF_SMALL = _REF_RNG.standard_normal((48, 48)) + 1j * _REF_RNG.standard_normal((48, 48))
_REF_BIG = _REF_RNG.standard_normal((600, 600)) + 1j * _REF_RNG.standard_normal((600, 600))


def _reference_round() -> None:
    np.linalg.eigvalsh(_REF_SMALL @ _REF_SMALL.conj().T)
    for k in range(8):
        np.linalg.svd(_REF_SMALL[k:k + 12, k:k + 12], compute_uv=False)
    acc = 0.0
    for row in _REF_SMALL[:24]:
        acc += float(np.abs(row).max())
    _REF_BIG.conj() @ _REF_BIG[:, 0]


def reference_work() -> float:
    """Seconds of a fixed mix of interpreter, small-LAPACK and memory work.

    It runs no gammaops code, so a change to the program cannot change it.
    One untimed round first refills the caches the last operation used.
    """
    _reference_round()
    t = time.perf_counter()
    for _ in range(REF_ROUNDS):
        _reference_round()
    return time.perf_counter() - t


def machine_speed() -> float:
    """Median of five ``reference_work`` times over ``REF_WORK_S``."""
    return statistics.median(reference_work() for _ in range(5)) / REF_WORK_S


class Runner:
    """Executes operations through ``gammaops.cli.main`` and checks them."""

    def __init__(self, cli, ops: list[Op], report_path: str):
        self.cli = cli
        self.ops = ops
        self.report_path = report_path

    def execute(self, op: Op) -> OpResult:
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        problems = []
        t = time.perf_counter()
        try:
            code = self.cli.main([*op.argv, "--json", self.report_path])
        except SystemExit as exc:
            code = exc.code
            problems.append(f"SystemExit({exc.code})")
        except Exception as exc:  # a failed operation must not end the run
            code = None
            problems.append(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t
        facts, report = {}, {}
        if code != op.expect_code:
            problems.append(f"exit code {code}, expected {op.expect_code}")
        if not problems:
            try:
                with open(self.report_path, encoding="utf-8") as fh:
                    report = json.load(fh)
                problems += op.check(report)
                facts = report_facts(report)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable report: {type(exc).__name__}: {exc}")
        return OpResult(op.label, seconds, problems, facts, report)

    def one_pass(self, tracer: Tracer | None = None, warmup: bool = False,
                 reference: bool = False) -> list[OpResult]:
        """Each operation ``repeat`` times, interleaved; once in a warm-up.

        With ``reference``, ``reference_work`` runs after every operation.
        """
        rounds = 1 if warmup else max(op.repeat for op in self.ops)
        out = []
        for k in range(rounds):
            for op in self.ops:
                if k >= op.repeat:
                    continue
                if tracer is not None:
                    tracer.begin_op(op.label)
                out.append(self.execute(op))
                if reference:
                    out[-1].speed = reference_work() / REF_WORK_S
        return out

    def timed(self, seconds: float) -> list[list[OpResult]]:
        """Whole passes over the operations until ``seconds`` have elapsed."""
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(self.one_pass(reference=True))
            if time.perf_counter() - t0 >= seconds:
                return passes

    def timed_with_trace(self, seconds: float, tracer: Tracer
                         ) -> tuple[list[list[OpResult]], list[list[OpResult]]]:
        """Untraced and traced passes alternate until each ran ``seconds``.

        Alternating keeps slow drift of the machine out of their ratio.
        """
        plain, traced = [], []
        spent = [0.0, 0.0]
        while min(spent) < seconds:
            t = time.perf_counter()
            plain.append(self.one_pass(reference=True))
            spent[0] += time.perf_counter() - t
            tracer.install()
            t = time.perf_counter()
            traced.append(self.one_pass(tracer))
            spent[1] += time.perf_counter() - t
            tracer.uninstall()
        return plain, traced


def ops_per_s(passes: list[list[OpResult]]) -> float:
    """Median over passes of operations per second of wall time.

    Every pass runs the same mix, so the median keeps a slow spell of the
    machine that covers less than half of the passes out of the figure.
    """
    return statistics.median(len(p) / sum(r.seconds for r in p) for p in passes)


def pass_speed(p: list[OpResult]) -> float:
    """Machine speed during a pass: median of the reference runs after its ops."""
    return statistics.median(r.speed for r in p)


def ops_per_ref_s(passes: list[list[OpResult]]) -> float:
    """``ops_per_s`` with each pass scaled to reference machine speed."""
    return statistics.median(len(p) / sum(r.seconds for r in p) * pass_speed(p)
                             for p in passes)


def flat(passes: list[list[OpResult]]) -> list[OpResult]:
    return [r for p in passes for r in p]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gammaops").glob("*.py")) + sorted(
            HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()
    try:
        return {"sha": git("rev-parse", "HEAD") or None,
                "dirty": bool(git("status", "--porcelain", "--", "src"))}
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}


def provenance(seed: int, gammaops) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_pinned": int(BLAS_THREADS)},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "gammaops": gammaops.__version__,
        "git": git_revision(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def setup_in_fresh_process(workload: str, seed: int) -> tuple[float, float]:
    """Import plus input generation timed in a new interpreter, and its speed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, cwd=str(ROOT))
    if proc.returncode != 0:
        raise SelfCheckError(f"set-up probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["speed"])


def exact_signatures(tracer: Tracer, results: list[OpResult],
                     first_op: int) -> dict[str, list[str]]:
    """Span call counts and report facts of each operation, per input label."""
    counts = tracer.counts_by_op()
    out: dict[str, list[str]] = {}
    for i, res in enumerate(results):
        sig = json.dumps({"calls": counts.get(first_op + i, Counter()),
                          "facts": res.facts}, sort_keys=True)
        out.setdefault(res.label, []).append(sig)
    return out


def check_exact_counts(signatures: dict[str, list[str]], workload: str,
                       seed: int, digest: str) -> None:
    """Exact counts must repeat across passes and across runs of one seed."""
    varying = sorted(label for label, sigs in signatures.items()
                     if len(set(sigs)) != 1)
    if varying:
        raise SelfCheckError("exact counts differ between passes for: "
                             + ", ".join(varying))
    current = {label: sigs[0] for label, sigs in signatures.items()}
    path = OUT / f"counts_{workload}_seed{seed}.json"
    if path.exists():
        stored = json.loads(path.read_text(encoding="utf-8"))
        if stored.get("source_sha256") == digest and stored["ops"] != current:
            changed = sorted(k for k in current if stored["ops"].get(k) != current[k])
            raise SelfCheckError(f"exact counts differ from the run recorded in "
                                 f"{path.name} for: {', '.join(changed)}")
    path.write_text(json.dumps({"source_sha256": digest, "ops": current},
                               indent=1), encoding="utf-8")


def layer_metrics(tracer: Tracer, traced_passes: list[list[OpResult]],
                  untraced_passes: list[list[OpResult]],
                  ops: range) -> dict[str, float]:
    metrics = tracer.layer_metrics(ops)
    grid = metrics["gamma_domain.sup_norm_on_gamma.calls"]
    metrics["gamma_domain.refine_ratio"] = (
        metrics["gamma_domain.sup_norm_on_gamma_refined.calls"] / grid
        if grid else 0.0)
    facts = [r.facts for r in flat(traced_passes)]
    searched = sum(f.get("searched", 0) for f in facts)
    models = [f["n_trunc"] for f in facts if f.get("n_trunc")]
    metrics["invariant.restarts_per_op"] = (
        sum(f.get("restarts", 0) for f in facts) / len(facts))
    metrics["invariant.found_ratio"] = (
        sum(f.get("found", 0) for f in facts) / searched if searched else 0.0)
    metrics["model.n_trunc"] = statistics.fmean(models) if models else 0.0
    metrics["model.dense_bytes_computed"] = float(
        max(f.get("dense_bytes", 0) for f in facts))
    metrics["trace_overhead"] = (ops_per_s(traced_passes)
                                 / ops_per_s(untraced_passes))
    return metrics


def run(args, gammaops, workdir: str) -> int:
    workload = BUILDERS[args.workload](args.seed, workdir, gammaops)
    own_setup = (time.perf_counter() - _T0, machine_speed())
    fresh = [setup_in_fresh_process(args.workload, args.seed)
             for _ in range(SETUP_SAMPLES - 1)]
    runner = Runner(gammaops.cli, workload.ops, os.path.join(workdir, "report.json"))
    tracer = Tracer() if args.trace else None

    # warm-up: one pass over the distinct inputs, traced only for counts
    if tracer is not None:
        tracer.install()
    warm = runner.one_pass(tracer, warmup=True, reference=True)
    warmup_s = sum(r.seconds for r in warm)
    if tracer is not None:
        tracer.uninstall()
    if workload.after_warmup is not None:
        workload.after_warmup({r.label: r.report for r in warm})
    setups = [own_setup] + fresh
    setup_s = statistics.median(t for t, _ in setups) + warmup_s
    setup_ref_s = (statistics.median(t / speed for t, speed in setups)
                   + warmup_s / pass_speed(warm))

    if tracer is None:
        untraced_passes, traced_passes = runner.timed(args.seconds), []
    else:
        first_op = tracer.op + 1
        untraced_passes, traced_passes = runner.timed_with_trace(
            args.seconds, tracer)
    untraced, traced = flat(untraced_passes), flat(traced_passes)
    results = warm + untraced + traced
    lat = [r.seconds for r in untraced]
    # each operation scaled by the reference run right after it
    lat_ref = [r.seconds / r.speed for r in untraced]
    e2e = {
        "ops_per_s": ops_per_ref_s(untraced_passes),
        "latency_p50_ms": statistics.median(lat_ref) * 1e3,
        "setup_s": setup_ref_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    by_label: dict[str, list[float]] = {}
    for r in untraced:
        by_label.setdefault(r.label, []).append(r.seconds * 1e3)
    extra = {"latency_samples": len(lat),
             "machine_speed_by_pass": [pass_speed(p) for p in untraced_passes],
             "wall_clock": {
                 "ops_per_s": ops_per_s(untraced_passes),
                 "ops_per_s_by_pass": [len(p) / sum(r.seconds for r in p)
                                       for p in untraced_passes],
                 "latency_p50_ms": statistics.median(lat) * 1e3,
                 "latency_ms_by_input": {k: statistics.median(v)
                                         for k, v in by_label.items()},
                 "setup_s": setup_s}}
    if len(lat) >= P90_MIN_SAMPLES:
        extra["latency_p90_ms"] = statistics.quantiles(lat_ref, n=10)[-1] * 1e3

    per_layer = {}
    if tracer is not None:
        ops = range(first_op, tracer.op + 1)
        tracer.check_coverage(workload.expected_spans, ops)
        per_layer = layer_metrics(tracer, traced_passes, untraced_passes, ops)
        signatures = exact_signatures(tracer, warm, 0)
        for label, sigs in exact_signatures(tracer, traced, first_op).items():
            signatures[label] += sigs
        check_exact_counts(signatures, args.workload, args.seed, source_digest())
        tracer.write(OUT / f"spans_{args.workload}_seed{args.seed}.jsonl")

    failures = [{"label": r.label, "problems": r.problems}
                for r in results if r.problems]
    attempted, failed = len(results), len(failures)
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(args.seed, gammaops),
        "setup": {"import_and_generate_s": [t for t, _ in setups],
                  "machine_speed": [speed for _, speed in setups],
                  "warmup_s": warmup_s, "warmup_machine_speed": pass_speed(warm),
                  "notes": workload.setup_notes},
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "end_to_end": e2e | extra,
        "per_layer": per_layer, "failures": failures[:20],
    }
    text = json.dumps(full, sort_keys=True)
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
     ).write_text(text + "\n", encoding="utf-8")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = per_layer if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(text)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    gammaops = import_program()
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_probe:
            BUILDERS[args.workload](args.seed, workdir, gammaops)
            setup_s = time.perf_counter() - _T0
            print(json.dumps({"setup_s": setup_s, "speed": machine_speed()}))
            return 0
        return run(args, gammaops, workdir)
    except (SetupError, SelfCheckError, CoverageError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
