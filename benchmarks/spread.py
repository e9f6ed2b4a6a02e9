"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 benchmarks/spread.py --workloads model-deep --seeds 1-10

Each (workload, seed) is one run of ``run.py`` with ``run_seconds`` from
BENCHMARK.json.  For every metric the table shows the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  A spread above a third of its bound (``setup_s`` excepted)
is flagged, and so is a run that is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", default=None, help="write the summary here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"seeds": args.seeds, "run_seconds": spec["run_seconds"]}
    flagged = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr.strip()}")
                return 1
            result = json.loads(lines[-1])
            provenance = json.loads(lines[-2])["provenance"]
            if not result["correct"]:
                print(f"{workload} seed {seed}: not correct "
                      f"(failed {result['failed']} of {result['attempted']})")
                flagged += 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            summary[workload][name] = {"median": statistics.median(vals),
                                       "q1": q1, "q3": q3, "spread": spread,
                                       "values": vals}
            over = name != "setup_s" and spread > bounds[name] / 3
            flagged += over
            print(f"  {name:16s} median {statistics.median(vals):12.5g}  "
                  f"spread {spread:7.4f}  bound {bounds[name]}"
                  + ("  ABOVE A THIRD OF THE BOUND" if over else ""))
        summary[workload]["provenance"] = provenance
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n",
                                  encoding="utf-8")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
