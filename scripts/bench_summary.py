"""Fold paired perfbench runs of two checkouts into one BENCH_<n>.json.

Each checkout holds the `.perfbench_runs/<workload>-seed<n>-trace0/
result.json` files that `python3 perfbench/run.py ... --trace 0` left
there. Runs pair up by workload and seed. For every end-to-end metric of
`BENCHMARK.json` the summary gives each side's median and quartiles, the
number of pairs the change won (ties count for neither side), whether the
change stays within the metric's regression bound, and whether a gain
would count: the change wins at least nine tenths of the pairs and its
median beats the parent's by more than the parent's interquartile range.

Every untraced result in each checkout is used, so empty both
`.perfbench_runs/` directories before a paired series. Usage:

    python3 scripts/bench_summary.py PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --out BENCH_6.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_runs(checkout: Path) -> dict:
    """(workload, seed) -> result of every untraced run in a checkout."""
    runs = {}
    for path in sorted((checkout / ".perfbench_runs").glob("*-trace0/result.json")):
        res = json.loads(path.read_text())
        runs[(res["workload"], res["seed"])] = res
    return runs


def revision(checkout: Path, runs: dict) -> dict:
    """The commit the runs report, and whether the tree had local edits."""
    revs = sorted({r["env"]["git_revision"] or "unknown" for r in runs.values()})
    try:
        out = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                             cwd=checkout, capture_output=True, text=True,
                             timeout=30, check=True).stdout
        dirty = bool(out.strip())
    except (OSError, subprocess.SubprocessError):
        dirty = None
    return {"git_revision": revs[0] if len(revs) == 1 else revs,
            "uncommitted_changes": dirty}


def _quartiles(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def summarize_metric(spec: dict, parent: list, change: list) -> dict:
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p, c = _quartiles(parent), _quartiles(change)
    wins = sum(sign * (cv - pv) > 0 for pv, cv in zip(parent, change))
    gain = sign * (c["median"] - p["median"])  # > 0: the change is better
    worse_by = -gain / abs(p["median"]) if p["median"] else 0.0
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": p, "change": c, "pairs": len(parent), "change_wins": wins,
            "change_over_parent": c["median"] / p["median"] if p["median"] else None,
            "within_bound": worse_by <= spec["bound"],
            "gain_counts": (wins >= 0.9 * len(parent)
                            and gain > p["q3"] - p["q1"])}


def summarize(parent_dir: Path, change_dir: Path) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        raise SystemExit("no (workload, seed) pair has runs in both checkouts")
    envs = [r["env"] for r in list(parent.values()) + list(change.values())]
    out = {"parent": revision(parent_dir, parent),
           "change": revision(change_dir, change),
           "env": {k: sorted({str(e[k]) for e in envs})
                   for k in ("python", "numpy", "nproc", "blas_threads_reported")},
           "command": "python3 perfbench/run.py --workload W --seed S "
                      "--seconds T --trace 0",
           "workloads": {}}
    for wl in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == wl]
        p_runs = [parent[(wl, s)] for s in seeds]
        c_runs = [change[(wl, s)] for s in seeds]
        entry = {"seeds": seeds,
                 "seconds": sorted({r["seconds"] for r in p_runs + c_runs}),
                 "failures": {"parent": sum(len(r["failures"]) for r in p_runs),
                              "change": sum(len(r["failures"]) for r in c_runs)},
                 "metrics": {}}
        for spec in bench["end_to_end"]:
            name = spec["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            entry["metrics"][name] = summarize_metric(spec, pv, cv)
        out["workloads"][wl] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout the parent runs live in")
    ap.add_argument("change", type=Path, help="checkout the change runs live in")
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    summary = summarize(args.parent, args.change)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for wl, entry in summary["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{wl:<11} {name:<18} {m['parent']['median']:>10.4g} -> "
                  f"{m['change']['median']:>10.4g} {m['unit']:<9} "
                  f"wins {m['change_wins']}/{m['pairs']}"
                  f"{'' if m['within_bound'] else '  OUTSIDE BOUND'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
