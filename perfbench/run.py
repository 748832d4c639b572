"""Time-to-verdict benchmark for commspec, with an optional traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid|large|general --seed N \
        --seconds S --trace 0|1

Operations go through ``commspec.cli.main`` in this process, one at a time
(a closed loop with one caller), with output captured in memory and checked
against ``perfbench/references.json``.  The run keeps cycling through the
workload's operations until ``--seconds`` have passed and every operation
ran at least once.

The baseline machine is a shared VM: its speed drifts by 20% and more
within minutes, and a fixed pure-Python kernel slows down with it.  So the
kernel runs 10 times before each operation and once every 50 ms during it
(from a timer signal, in this thread), its time is taken out of the
operation's time, and the rest is reported in reference seconds: scaled by
``CAL_REFERENCE_S`` over the mean kernel time.  The raw medians are
printed alongside.  Self times in the traced run are raw and include the
kernel's share (about 2%).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (sum of the
per-operation median times, i.e. one pass), ``slowest_op_s`` (largest
per-operation median), ``peak_rss_mb`` and ``setup_s`` (median over fresh
interpreters of importing commspec and building the CLI parser).
``--trace 1`` alternates untraced and traced passes and reports, per
wrapped function, self time (raw) and call count per pass, the size
counters, the CLI output size and the tracing overhead; spans go to
``.perfbench_work/spans-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
program's sources (``src/commspec``) the script exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
REFERENCES = Path(__file__).resolve().parent / "references.json"
SETUP_SAMPLES = 21
SAMPLE_INTERVAL_S = 0.05
PRE_SAMPLES = 10
CAL_REFERENCE_S = 0.001  # reference seconds: the kernel takes 1 ms
# Adjacency of a 4-regular circulant graph on 8 vertices.
_CAL_MATRIX = [[int((j - i) % 8 in (1, 2, 6, 7)) for j in range(8)] for i in range(8)]

_SETUP_CHILD = """
import io, sys, time
from contextlib import redirect_stdout
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from commspec import cli
with redirect_stdout(io.StringIO()):
    code = cli.main(["--help"])
print(time.perf_counter() - t0 if code == 0 else -1.0)
"""


def _kernel_time() -> float:
    """Time of a fixed walk-counting loop, the same kind of work as FL."""
    t0 = time.perf_counter()
    m = _CAL_MATRIX
    for _ in range(12):
        cols = list(zip(*m))
        m = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in _CAL_MATRIX]
    return time.perf_counter() - t0


def _kernel_times(n: int) -> list[float]:
    return [_kernel_time() for _ in range(n)]


class SpeedProbe:
    """Samples machine speed with the kernel, before and during a measurement.

    ``start`` runs the kernel ``PRE_SAMPLES`` times and arms a timer that
    runs it again every ``SAMPLE_INTERVAL_S`` in this thread, interrupting
    the measured code between bytecodes.
    """

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(_kernel_time())

    def start(self) -> None:
        self.samples = _kernel_times(PRE_SAMPLES)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """Disarm; return the kernel time spent since start and the speed factor."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return sum(self.samples[PRE_SAMPLES:]), reference_factor(self.samples)


def reference_factor(kernel_times: list[float]) -> float:
    """Scales a time measured at this speed to reference seconds."""
    return CAL_REFERENCE_S / statistics.mean(kernel_times)


class Runner:
    """Runs operations through the CLI and checks each output."""

    def __init__(self, cli, references: dict):
        self.cli = cli
        self.references = references
        self.probe = SpeedProbe()
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0

    def run(self, op: workloads.Op) -> tuple[float, float]:
        """Run one operation; return its time in reference and raw seconds."""
        out = io.StringIO()
        gc.collect()
        self.attempted += 1
        problem = None
        self.probe.start()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.cli.main(list(op.argv))
        except Exception as exc:  # an operation that raises is a failure
            problem = f"{op.name}: raised {exc!r}"
        finally:
            sampling, factor = self.probe.stop()
            elapsed = time.perf_counter() - t0 - sampling
        if problem is None:
            text = out.getvalue()
            self.output_bytes += len(text.encode())
            problem = workloads.mismatch(op, self.references[op.name], code, text)
        if problem:
            self.failed += 1
            print(f"mismatch: {problem}", file=sys.stderr)
        return elapsed * factor, elapsed


def load_cli(root: Path):
    """Import commspec.cli from the checkout's sources, or None."""
    src = root / "src"
    if not (src / "commspec" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    from commspec import cli

    return cli


def measure_setup(root: Path) -> tuple[float, float]:
    """Median time for a fresh interpreter to import commspec and build the parser.

    Returns reference and raw seconds.
    """
    samples = []
    raw = []
    for k in range(SETUP_SAMPLES + 1):
        before = _kernel_times(PRE_SAMPLES)
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(root / "src")],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        value = float(done.stdout)
        if value < 0:
            raise RuntimeError("commspec --help did not exit with code 0")
        factor = reference_factor(before + _kernel_times(PRE_SAMPLES))
        if k:  # the first child may compile bytecode; it is not timed
            samples.append(value * factor)
            raw.append(value)
    return statistics.median(samples), statistics.median(raw)


def end_to_end(runner: Runner, ops: list[workloads.Op], seconds: float) -> dict:
    times: dict[str, list[tuple[float, float]]] = {op.name: [] for op in ops}
    deadline = time.perf_counter() + seconds
    k = 0
    while k < len(ops) or time.perf_counter() < deadline:
        op = ops[k % len(ops)]
        times[op.name].append(runner.run(op))
        k += 1
    medians = []
    for name, samples in times.items():
        medians.append(statistics.median(t for t, _ in samples))
        print(f"op {name!r}: {len(samples)} runs, median {medians[-1]:.4f} s "
              f"(raw {statistics.median(r for _, r in samples):.4f} s)")
    return {
        "wall_s": (sum(medians), "s"),
        "slowest_op_s": (max(medians), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(runner: Runner, ops: list[workloads.Op], seconds: float, spans_path: Path) -> dict:
    tr = tracing.Tracer()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    per_pass: list[dict[str, float]] = []
    skipped: set[str] = set()
    deadline = time.perf_counter() + seconds
    while not traced_walls or time.perf_counter() < deadline:
        if len(plain_walls) <= len(traced_walls):
            plain_walls.append(sum(runner.run(op)[0] for op in ops))
            continue
        start = len(tr.spans)
        bytes_before = runner.output_bytes
        wall = 0.0
        with tr.installed():
            for op in ops:
                tr.op += 1
                wall += runner.run(op)[0]
        traced_walls.append(wall)
        totals = tracing.layer_totals(tr.spans, start)
        counters, unreadable = tracing.size_counters(tr.calls_io)
        tr.calls_io.clear()
        skipped |= unreadable
        values: dict[str, float] = {}
        for name in tracing.target_names():
            entry = totals.get(name, {"self_s": 0.0, "calls": 0})
            values[f"{name}.self_s"] = entry["self_s"]
            values[f"{name}.calls"] = entry["calls"]
        values.update(counters)
        values["cli.output_bytes"] = runner.output_bytes - bytes_before
        per_pass.append(values)

    if tr.absent:
        print("absent: " + " ".join(tr.absent))
    if skipped:
        print("counters skipped for: " + " ".join(sorted(skipped)))
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(
        json.dumps({"absent": tr.absent, "fields": ["name", "start", "end", "parent", "op"],
                    "spans": tr.spans})
    )
    units = dict(tracing.COUNTERS, **{"cli.output_bytes": "bytes"})
    metrics = {}
    for key in per_pass[0]:
        unit = "s" if key.endswith(".self_s") else units.get(key, "count")
        metrics[key] = (statistics.median(p[key] for p in per_pass), unit)
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli(ROOT)
    if cli is None:
        print(f"error: no commspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text())[args.workload]
    ops = workloads.build_ops(args.workload, args.seed, WORKDIR)
    runner = Runner(cli, references)

    if args.trace:
        spans_path = WORKDIR / f"spans-{args.workload}-{args.seed}.json"
        metrics = traced(runner, ops, args.seconds, spans_path)
    else:
        setup, setup_raw = measure_setup(ROOT)
        print(f"setup: raw median {setup_raw:.4f} s")
        metrics = end_to_end(runner, ops, args.seconds)
        metrics["setup_s"] = (setup, "s")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted} operations)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
