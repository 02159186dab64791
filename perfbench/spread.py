"""Run-to-run spread of the end-to-end metrics, one set of seeded runs at a time.

    python3 perfbench/spread.py --runs 10 --first-seed 1 --label set-a --out perfbench/baseline.json

Runs ``run.py --trace 0`` once per seed on each workload and reports, per
metric, the median and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound in ``BENCHMARK.json``.  With ``--out`` the set is stored under
its label; once the file holds two sets, the drift of each median from the
first set to the second is reported against the bound as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--label", default="set")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    result = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in names:
        runs = [run_once(workload, seed, args.seconds) for seed in seeds]
        failed = sum(r["failed"] for r in runs)
        ok &= failed == 0
        print(f"{workload}: {len(runs)} runs, {sum(r['attempted'] for r in runs)} ops, {failed} failed")
        per_metric = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            steady = spread < bound / 3
            ok &= spread <= bound
            per_metric[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
            print(f"  {name:<12} median {median:<12.6g} spread {spread:7.2%}  bound {bound:.0%}"
                  f"{'' if steady else '  (above a third of the bound)'}")
        result["workloads"][workload] = per_metric

    if args.out:
        record = json.loads(args.out.read_text()) if args.out.exists() else {}
        record["environment"] = {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_pinning": "not available on the measuring host",
            "frequency_control": "not available on the measuring host",
        }
        record.setdefault("sets", {})[args.label] = result
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        sets = list(record["sets"].values())
        if len(sets) >= 2:
            first, second = sets[0], sets[-1]
            print("median drift, last set against first:")
            for workload in names:
                for name, bound in bounds.items():
                    a = first["workloads"].get(workload, {}).get(name)
                    b = second["workloads"][workload][name]
                    if a is None:
                        continue
                    drift = (b["median"] - a["median"]) / a["median"]
                    ok &= abs(drift) <= bound
                    print(f"  {workload:<14} {name:<12} {drift:+7.2%}  bound {bound:.0%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
