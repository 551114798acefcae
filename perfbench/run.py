"""Benchmark of the vtreduce CLI: one closed-loop client per workload.

Run from the repository root:

    python3 perfbench/run.py --workload synth-analyze --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

Each run builds its inputs from ``--seed`` (see workloads.py), then starts
one worker in a fresh interpreter that sends ops back to back, the next
only when the last has finished, for ``--seconds`` (and at least 100 quiet
timed ops, see worker.py). Between ops it times how long fresh
interpreters take to import the package. BLAS is pinned to one thread.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones from a separate traced
run; both check every op's outputs. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans of a traced run are written to ``.perfbench_out/``.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 25
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "VTREDUCE_OUT_DIR"}
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(SRC)
    return env


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_PIN,
        "git_commit": git_commit(),
        "seed": args.seed,
        "seed_default": workloads.DEFAULT_SEED,
        "seed_heldout": workloads.HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def sync_tree(path: Path) -> None:
    """Write the inputs out to disk now: left dirty, the kernel wrote back
    the 133 MB of pipeline-qwen-self's inputs during the first timed ops."""
    for f in path.rglob("*"):
        if f.is_file():
            fd = os.open(f, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def run_workload(name: str, args, env: dict) -> dict:
    """Build inputs, run the worker; returns its result."""
    started = time.perf_counter()
    work = ROOT / ".perfbench_work" / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = workloads.make(name, args.seed, work / "inputs")
        (work / "inputs").mkdir(parents=True)
        wl.build()
        sync_tree(work / "inputs")
        build_s = time.perf_counter() - started
        spec = {
            "workload": name,
            "seed": args.seed,
            "trace": bool(args.trace),
            "seconds": args.seconds,
            "setup_probes": 0 if args.trace else SETUP_PROBES,
            "src": str(SRC),
            "inputs": str(work / "inputs"),
            "ops": str(work / "ops"),
            "spans_out": str(ROOT / ".perfbench_out" / f"spans-{name}-seed{args.seed}.jsonl"),
        }
        (work / "spec.json").write_text(json.dumps(spec))
        timeout = RUN_LIMIT_S - (time.perf_counter() - started)
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
                              env=env, capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            work.parent.rmdir()
    result["build_s"] = build_s
    return result


def quiet_latencies(result: dict) -> list[float]:
    return [lat for lat, quiet in zip(result["latencies_ms"], result["quiet"]) if quiet]


def end_to_end(result: dict) -> dict:
    quiet = quiet_latencies(result)
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "ops_per_s": len(quiet) / (sum(quiet) / 1e3),
        "op_p50_ms": statistics.median(quiet),
        "op_p90_ms": statistics.quantiles(quiet, n=10)[-1],
        "peak_rss_mib": result["peak_rss_mib"],
    }


def report(name: str, args, result: dict, declared: list) -> dict:
    """Print one workload's metrics with units and sample counts; return
    {metric: {"value", "unit"}} for the declared metrics."""
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"inputs built in {result['build_s']:.2f} s")
    if args.trace:
        values = result["metrics"]
        samples = f"median of {result['traced_ops']} traced ops"
    else:
        values = end_to_end(result)
        n_ops, n_quiet = len(result["latencies_ms"]), len(quiet_latencies(result))
        quiet = f"{n_quiet} quiet of {n_ops} timed ops"
        samples = {"setup_s": f"median of {len(result['setup_s'])} fresh interpreters",
                   "ops_per_s": quiet, "op_p50_ms": quiet, "op_p90_ms": quiet,
                   "peak_rss_mib": "ru_maxrss of the worker process"}
    metrics = {}
    for m in declared:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        n = samples if args.trace else samples[m["name"]]
        print(f"  {m['name']:<44} {value:>14.6g} {m['unit']:<6} {n}")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} {'frac':<6} "
          f"{failed} of {attempted} attempted ops")
    if not args.trace:
        everything = end_to_end({**result, "quiet": [True] * n_ops})
        for key, unit in (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms")):
            print(f"  {key + ' of all timed ops':<44} {everything[key]:>14.6g} {unit:<6} "
                  f"{n_ops} timed ops, quiet or not")
    if args.trace:
        for kind, shares in result["shares"].items():
            top = max(shares, key=shares.get)
            print(f"  largest self-time share among {kind}: {top} {shares[top]:.1%}")
    for failure in result["failures"][:5]:
        print(f"  FAILED {failure}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vtreduce" / "__init__.py").is_file():
        print(f"no vtreduce package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    env = child_env()
    print("env " + json.dumps(environment(args)))

    names = workloads.NAMES if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result = run_workload(name, args, env)
        found = report(name, args, result, declared)
        prefix = f"{name}/" if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in found.items()})
        attempted += result["attempted"]
        failed += len(result["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
