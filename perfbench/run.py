"""gradfx benchmark: one workload, end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload graybox --seed 1 --seconds 10 --trace 0

Run from the root of a gradfx checkout; gradfx is imported from its
`src/`, never from an installed copy. With `--trace 0` the last line of
stdout is a JSON object holding the end-to-end metrics listed in
BENCHMARK.json; with `--trace 1` it holds the per-layer metrics. The
exit code is 0 only when every operation and output check passed.
Inputs, outputs and the trace are written under `.perfbench_runs/`.
"""

from __future__ import annotations

import os

# one compute thread: BLAS pinned before numpy is first imported
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def blas_threads(np):
    """Thread count numpy's bundled OpenBLAS reports, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(np, scipy) -> dict:
    return {"git_revision": git_revision(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads_pinned": BLAS_THREADS,
            "blas_threads_reported": blas_threads(np)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gradfx" / "__init__.py").is_file():
        print(f"error: no gradfx sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import gradfx.cli  # noqa: F401
    if not Path(sys.modules["gradfx"].__file__).resolve().is_relative_to(src):
        print("error: gradfx was not imported from this checkout",
              file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    import bench
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    runs = ROOT / ".perfbench_runs"
    workdir = runs / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        res = bench.run_workload(wl, args.seed, args.seconds,
                                 bool(args.trace), workdir, src)
    except Exception as e:  # noqa: BLE001 - report, print no result
        print(f"error: {wl.name} failed: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir / "corpus", ignore_errors=True)

    env = environment(np, scipy)
    ops = res["ops"]
    shown = res["layers"] if args.trace else res["metrics"]
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in sorted(res["metrics"].items()):
        n = res["counts"].get(name)
        print(f"  {name:<34} {value:>14.6g} {unit:<10}"
              + (f" n={n}" if n else ""))
    if args.trace:
        print("per-layer (median self time per traced step or call):")
        for name, (value, unit) in sorted(res["layers"].items()):
            print(f"  {name:<34} {value:>14.6g} {unit}")
        if "overhead_ms" in res:
            print(f"tracing overhead: {res['overhead_ms']:+.3f} ms per "
                  f"train step (traced minus untraced p50, n="
                  f"{res['overhead_counts'][0]}/{res['overhead_counts'][1]})")
    print(f"operations: {ops.attempted} attempted, {len(ops.failures)} "
          f"failed")
    for f in ops.failures:
        print(f"  FAILED {f}")

    missing = [m["name"] for m in wanted if m["name"] not in shown]
    for name in missing:
        print(f"  FAILED metric {name} was not measured")
    metrics = {m["name"]: {"value": shown[m["name"]][0], "unit": m["unit"]}
               for m in wanted if m["name"] in shown}
    correct = not ops.failures and not missing
    record = {"workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "counts": res["counts"], "failures": ops.failures,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in res["metrics"].items()}}
    if args.trace:
        tracer = res["trace"]
        record["layers"] = {k: {"value": v, "unit": u}
                            for k, (v, u) in res["layers"].items()}
        record["overhead_ms"] = res.get("overhead_ms")
        record["spans"] = {"fields": ["name", "start", "end", "parent",
                                      "step", "phase"],
                           "rows": tracer.dump()}
    (workdir / "result.json").write_text(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": len(ops.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
