"""One closed-loop client: runs a workload's ops back to back through
``vtreduce.cli.main(argv)`` in this fresh interpreter, checks every op's
outputs, and prints one JSON result line.

Started by run.py as ``python worker.py SPEC.json``. The first cycle of
input variants is a warm-up: it is checked and counted as attempted, and
its artifacts are the reference for every later op on the same input, but
it is not timed. With tracing on, whole cycles alternate between untraced
and traced, so the overhead of tracing is measured within the run and
every traced artifact is compared with an untraced one.

The vCPUs of a shared host run 1.5-2x slower in bursts of 0.1-1 s, which
cover 10-40% of a run and move from run to run; thread CPU time slows
alike, so it is not steal. Each timed op is therefore bracketed by a short
fixed pure-Python loop, and an op counts as quiet when neither loop ran
more than ``QUIET`` times slower than the run's fast speed (the 5th
percentile). run.py takes throughput and latency percentiles over quiet
ops.

With tracing off, the set-up probes (fresh interpreter start to ``import
vtreduce.cli`` done) are spread over the run at cycle boundaries, so that
one burst cannot slow all of them.
"""

import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import spans
import workloads

MIN_OPS = 100  # quiet ops, so that at least ten samples lie beyond the p90
HARD_CAP_S = 120.0
QUIET = 1.3
REFERENCE_LOOPS = 80_000  # about 1.6 ms on a 2 vCPU AMD EPYC

# CLOCK_MONOTONIC, which perf_counter reads on Linux, is shared by all
# processes, so the probe's clock reading is comparable with ours.
_PROBE = "import time, vtreduce.cli; print(time.perf_counter())"


def reference_s() -> float:
    """Seconds of a fixed pure-Python loop: how fast this vCPU runs now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REFERENCE_LOOPS):
        x += i
    return time.perf_counter() - t0


def quiet_flags(refs: list[float]) -> list[bool]:
    """Which ops ran while the vCPU ran at its fast speed; ``refs`` holds
    the slower of the two reference loops around each op."""
    base = statistics.quantiles(refs, n=20)[0]
    return [r <= QUIET * base for r in refs]


def setup_probe_s() -> float:
    """Fresh interpreter start to ``import vtreduce.cli`` done, which every
    CLI call pays (the package and the CLI module)."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", _PROBE], check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout) - t0


class Runner:
    def __init__(self, spec: dict, cli):
        self.cli = cli
        self.wl = workloads.make(spec["workload"], spec["seed"], Path(spec["inputs"]))
        self.ops = Path(spec["ops"])
        self.tracer = spans.Tracer() if spec["trace"] else None
        self.reference: dict = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.timed: list[tuple[float, bool, float]] = []  # (latency s, traced, ref s)
        self.setup_probes = spec["setup_probes"]
        self.setup_s: list[float] = []
        self.used: dict[int, int] = {}  # traced op -> bytes of layers it used

    def run_op(self, i: int, traced: bool) -> float:
        op = self.ops / f"{i:06d}"
        calls = self.wl.calls(i, op)
        captured = io.StringIO()
        errors = []
        first_span = len(self.tracer.spans) if traced else 0
        if traced:
            self.tracer.install(i)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            for argv in calls:
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
                except Exception:  # a failed op is counted, not fatal
                    code = traceback.format_exc()
                if code != 0:
                    errors.append(f"{' '.join(argv[:2])}: exit {code}: "
                                  f"{captured.getvalue()[-400:]}")
                    break
        latency = time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
        if not errors:
            try:
                artifacts = self.wl.artifacts(op)
                if artifacts != self.reference.setdefault(self.wl.key(i), artifacts):
                    errors.append("artifacts differ from an earlier op on the same input")
                errors += self.wl.check(i, op, artifacts)
                if traced:
                    self._resolve_bytes(i, op, first_span)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors.append(f"output check: {exc!r}")
        shutil.rmtree(op, ignore_errors=True)
        self.attempted += 1
        if errors:
            self.failures.append(f"op {i}: " + "; ".join(errors))
        return latency

    def _resolve_bytes(self, i: int, op: Path, first_span: int) -> None:
        """Bundle bytes of this op's read and write spans, taken after the op
        so the stat calls stay out of its spans."""
        for span in self.tracer.spans[first_span:]:
            counts = span[5]
            if counts and "path" in counts:
                counts[span[0] + ".bytes"] = workloads.bundle_bytes(counts.pop("path"))
        self.used[i] = self.wl.used_bytes(i, op)

    def enough_ops(self) -> bool:
        if self.tracer is not None:
            return len(self.timed) >= MIN_OPS
        refs = [ref for _, _, ref in self.timed]
        return len(refs) >= MIN_OPS and sum(quiet_flags(refs)) >= MIN_OPS

    def run(self, seconds: float) -> None:
        n_keys = self.wl.n_keys
        for i in range(n_keys):
            self.run_op(i, traced=False)
        start = time.perf_counter()
        i = n_keys
        while True:
            elapsed = time.perf_counter() - start
            if i % n_keys == 0:
                if elapsed >= seconds and self.enough_ops():
                    break
                if elapsed >= HARD_CAP_S:
                    break
                if len(self.setup_s) < self.setup_probes * min(1.0, elapsed / seconds):
                    self.setup_s.append(setup_probe_s())
            traced = self.tracer is not None and (i // n_keys) % 2 == 1
            before = reference_s()
            latency = self.run_op(i, traced)
            self.timed.append((latency, traced, max(before, reference_s())))
            i += 1
        while len(self.setup_s) < self.setup_probes:
            self.setup_s.append(setup_probe_s())

    def per_layer(self) -> dict:
        """Per traced op, sum each span's self time and counters; report
        the median over traced ops."""
        selfs = spans.self_times(self.tracer.spans)
        per_op: dict = defaultdict(lambda: defaultdict(float))
        layer_self: dict = defaultdict(float)
        span_self: dict = defaultdict(float)
        for span, own in zip(self.tracer.spans, selfs):
            name, op, counts = span[0], span[4], span[5] or {}
            layer_self[name.split(".")[0]] += own
            span_self[name] += own
            values = per_op[op]
            values[name + ".self_ms"] += own * 1e3
            values[name + ".calls"] += 1
            for key, value in counts.items():
                values[key] += value
        for op, values in per_op.items():
            read = (values["trace_io.read_encoder_bundle.bytes"]
                    + values["trace_io.read_decoder_bundle.bytes"])
            values["trace_io.read.useful_frac"] = self.used.get(op, 0) / read if read else 0.0
            normals_s = values["rng.normals.self_ms"] / 1e3
            values["rng.draws_per_s"] = (
                values["rng.normals.draws"] / normals_s if normals_s else 0.0)
        traced = [lat for lat, t, _ in self.timed if t]
        plain = [lat for lat, t, _ in self.timed if not t]
        # traced vs untraced ops_per_s of one closed loop, i.e. mean latency
        overhead = statistics.fmean(traced) / statistics.fmean(plain) - 1.0

        ops = sorted(per_op)
        names = sorted({k for values in per_op.values() for k in values})
        metrics = {k: statistics.median(per_op[op][k] for op in ops) for k in names}
        metrics["tracing.overhead_frac"] = overhead

        total = sum(traced)
        shares = {
            "layers": {k: v / total for k, v in sorted(layer_self.items())},
            "spans": {k: v / total for k, v in sorted(span_self.items())},
        }
        return {"metrics": metrics, "shares": shares, "traced_ops": len(ops)}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = spans.self_times(self.tracer.spans)
        with open(path, "w") as fh:
            for (name, start, end, parent, op, counts), own in zip(self.tracer.spans, selfs):
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "op": op, "self_s": own, "counts": counts,
                }) + "\n")


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    from vtreduce import cli

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"vtreduce imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    runner = Runner(spec, cli)
    runner.run(spec["seconds"])
    plain = [(lat, ref) for lat, traced, ref in runner.timed if not traced]
    result = {
        "latencies_ms": [lat * 1e3 for lat, _ in plain],
        "quiet": quiet_flags([ref for _, ref in plain]),
        "setup_s": runner.setup_s,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if runner.tracer is not None:
        result.update(runner.per_layer())
        runner.write_spans(Path(spec["spans_out"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
