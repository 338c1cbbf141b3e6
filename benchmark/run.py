"""dpmsim benchmark: run one seeded workload and print its metrics.

    python3 benchmark/run.py --workload long_horizon --seed 0 --seconds 25 --trace 0

With --trace 0 it reports the end-to-end metrics of untraced passes; with
--trace 1 the per-layer split from traced and profiled passes. Every
operation's output is checked, and every pass after the first must
replay the first byte for byte. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. README.md
lists the workloads, the metrics and which layer moves which figure.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import importlib.util
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIO_GEN = ROOT / "tests" / "scenario_gen.py"
SPAN_DIR = BENCH_DIR / "out"

SETUP_LAUNCHES = 15
MIN_PASSES = 3
# Untimed checked passes before timing, for at least this long and this
# many operations: the first two operations of a fresh process (1-2 s
# each on long_horizon and crosscheck) run up to 1.7x slower than later ones.
WARMUP_SECONDS = 2.0
WARMUP_OPS = 3
MANIFEST_SEEDS = range(100)

SELF_SHARE_MODULES = (
    "engine", "energy", "pmic", "quantities", "wake", "scenario",
    "analysis", "report", "oracle", "yaml", "dataclasses",
)
CALL_COUNT_MODULES = ("engine", "energy", "pmic", "quantities", "wake", "dataclasses")

# The set-up probe: a fresh interpreter that imports dpmsim and parses the
# workload's first scenario text, handed over on stdin.
_SETUP_CHILD = """\
import sys, time
text = sys.stdin.read()
t0 = time.perf_counter()
import dpmsim
print(time.perf_counter() - t0)
dpmsim.parse_scenario(text)
"""


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def setup_launch(text: str) -> tuple[float, float]:
    """Wall seconds of one fresh-interpreter launch, and the import time
    the child reports."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD],
        input=text, capture_output=True, text=True, cwd=ROOT, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return wall, float(proc.stdout)


class Tracer:
    """Spans around each call into a layer, kept in memory.

    A span is [name, start, end, parent index, operation id, count], where
    count is the trace records of an engine run or the ticks of an oracle
    run. Self time is a span's duration minus its children's.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.passes = 0
        self._op_id = ""
        self._stack: list[int] = []

    def wrap_op(self, i, op):
        """The root span of operation i; operation 0 starts a new pass."""
        if i == 0:
            self.passes += 1
        self._op_id = f"{self.passes}:{i}"
        return self.wrap("op", op)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if name == "engine.run":
                span[5] = len(result.trace)
            elif name == "oracle.run":
                span[5] = result.ticks
            return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent, op, count in self.spans:
                f.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                    "parent": parent, "op": op, "count": count}) + "\n")


class EnginePeak:
    """The largest tracemalloc peak inside any one engine run. Tracing
    only inside runs keeps the oracle's per-tick allocations untraced."""

    def __init__(self):
        self.peak = 0

    def wrap(self, name, fn):
        if name != "engine.run":
            return fn

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured


def measure_peak_rss(workload: str, seed: int) -> int:
    """Peak resident bytes of a fresh process that runs one pass."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--peak-child"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"peak-memory pass failed:\n{proc.stderr}")
    return int(proc.stdout.split()[-1])


def _plain(name, fn):
    return fn


class Bench:
    """One workload's operations on one seed's inputs, with the replay
    digests and failure counts of every checked pass."""

    def __init__(self, workload, items, layer_functions):
        self.work = workload
        self.items = items
        self.layer_functions = layer_functions
        self.ref_digests: list[str | None] = []
        self.attempted = 0
        self.failed = 0
        # Over the first pass's traces and JSON reports, for the manifest.
        self.trace_sha = hashlib.sha256()
        self.json_sha = hashlib.sha256()

    @contextmanager
    def layers(self, wrap):
        """The layer table, with dpmsim.analysis.run pointed at its engine
        entry so the runs inside sweep_lux go through the same wrapper."""
        import dpmsim.analysis

        table = {name: wrap(name, fn) for name, fn in self.layer_functions.items()}
        saved = dpmsim.analysis.run
        dpmsim.analysis.run = table["engine.run"]
        try:
            yield table
        finally:
            dpmsim.analysis.run = saved

    def checked_pass(self, clock, wrap=_plain, op_wrap=None) -> list[tuple[float, float, float]]:
        """Run and check every operation once; return for each its start
        and end on perf_counter and its seconds of work on `clock`.

        The first call records the digests that later passes must replay.
        """
        first = not self.ref_digests
        times = []
        with self.layers(wrap) as table:
            for i, item in enumerate(self.items):
                op = op_wrap(i, self.work.op) if op_wrap else self.work.op
                problems: list[str] = []
                start, w0 = perf_counter(), clock()
                try:
                    out = op(table, item)
                    times.append((start, perf_counter(), clock() - w0))
                    checked = self.work.check(out)
                    problems = checked.problems
                except Exception:
                    times.append((start, perf_counter(), clock() - w0))
                    checked = None
                    problems = ["raised:\n" + traceback.format_exc()]
                if first:
                    self.ref_digests.append(checked.digest if checked else None)
                    if checked:
                        self.trace_sha.update(checked.trace.encode())
                        self.json_sha.update(checked.json.encode())
                elif checked and checked.digest != self.ref_digests[i]:
                    problems.append("replay is not byte-identical to the first pass")
                self.attempted += 1
                if problems:
                    self.failed += 1
                    print(f"FAIL {self.work.name} op {i}: " + "; ".join(problems), file=sys.stderr)
        return times

    def unchecked_pass(self, wrap=_plain) -> None:
        """Run every operation once for a measurement that checks would
        distort. Failures were already counted by the checked passes."""
        with self.layers(wrap) as table:
            for item in self.items:
                try:
                    self.work.op(table, item)
                except Exception:
                    pass

    def timed_passes(self, speed: hostspeed.HostSpeed, seconds: float, min_passes: int = MIN_PASSES,
                     between=None, **kw):
        """Checked passes until `seconds` have gone by (at least min_passes),
        sampling host speed into `speed` and calling `between` after each.
        Returns each pass's time and every operation's latency, both in
        reference-speed seconds."""
        passes = []
        start = perf_counter()
        with speed.sampling():
            while len(passes) < min_passes or perf_counter() - start < seconds:
                gc.collect()
                passes.append(self.checked_pass(speed.clock, **kw))
                if between:
                    between()
        scaled = [[speed.scaled(*t) for t in times] for times in passes]
        return [sum(times) for times in scaled], [t for times in scaled for t in times]

    def engine_peak_pass(self) -> int:
        meter = EnginePeak()
        gc.collect()
        self.unchecked_pass(meter.wrap)
        return meter.peak

    def profile_pass(self) -> pstats.Stats:
        profile = cProfile.Profile()
        gc.collect()
        profile.enable()
        try:
            self.unchecked_pass()
        finally:
            profile.disable()
        return pstats.Stats(profile)


def _module_of(filename: str) -> str | None:
    package = str(SRC / "dpmsim") + os.sep
    if filename.startswith(package):
        return filename[len(package):].removesuffix(".py")
    if f"{os.sep}yaml{os.sep}" in filename:
        return "yaml"
    if os.path.basename(filename) == "dataclasses.py":
        return "dataclasses"
    return None


def profile_metrics(stats: pstats.Stats, records: int) -> dict:
    """Self-time share per module (of all profiled self time) and calls
    per trace record for the modules the engine reaches."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    total = 0.0
    for (filename, _, _), (_, ncalls, tottime, _, _) in stats.stats.items():
        total += tottime
        module = _module_of(filename)
        if module:
            self_s[module] = self_s.get(module, 0.0) + tottime
            calls[module] = calls.get(module, 0) + ncalls
    out = {}
    for m in SELF_SHARE_MODULES:
        out[f"{m}.self_share"] = (self_s.get(m, 0.0) / total if total else 0.0, "ratio")
    for m in CALL_COUNT_MODULES:
        out[f"{m}.calls_per_record"] = (calls.get(m, 0) / records if records else 0.0, "calls/record")
    return out


def span_metrics(tracer: Tracer, passes: int, scale: float) -> dict:
    """Per-call medians and per-pass counts from the traced passes, with
    times multiplied by the host-speed `scale`."""
    spans = tracer.spans
    durations: dict[str, list[float]] = {}
    for name, start, end, *_ in spans:
        durations.setdefault(name, []).append(end - start)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    sweep_self = [end - start - child_time[i]
                  for i, (name, start, end, *_) in enumerate(spans) if name == "analysis.sweep"]
    probes = sum(1 for name, _, _, parent, *_ in spans
                 if name == "engine.run" and parent is not None and spans[parent][0] == "analysis.sweep")
    records = sum(s[5] for s in spans if s[0] == "engine.run")
    ticks = sum(s[5] for s in spans if s[0] == "oracle.run")
    run_s = sum(durations.get("engine.run", []))
    oracle_rates = [s[5] / (s[2] - s[1]) / 1e6 / scale for s in spans if s[0] == "oracle.run"]

    def ms(name):
        return _median(durations.get(name, [])) * scale * 1e3

    return {
        "scenario.parse_ms": (ms("scenario.parse"), "ms"),
        "scenario.parse_calls": (len(durations.get("scenario.parse", [])) // passes, "count"),
        "engine.run_ms": (ms("engine.run"), "ms"),
        "engine.records": (records // passes, "count"),
        "engine.us_per_record": (run_s * scale / records * 1e6 if records else 0.0, "us"),
        "engine.format_trace_ms": (ms("engine.format_trace"), "ms"),
        "report.json_ms": (ms("report.json"), "ms"),
        "report.csv_ms": (ms("report.csv"), "ms"),
        "report.text_ms": (ms("report.text"), "ms"),
        "analysis.compare_ms": (ms("analysis.compare"), "ms"),
        "analysis.sweep_self_ms": (_median(sweep_self) * scale * 1e3, "ms"),
        "analysis.sweep_probes": (probes // passes, "count"),
        "oracle.run_s": (_median(durations.get("oracle.run", [])) * scale, "s"),
        "oracle.ticks": (ticks // passes, "count"),
        "oracle.mticks_per_s": (_median(oracle_rates), "Mticks/s"),
        "oracle.compare_ms": (ms("oracle.compare"), "ms"),
    }


def manifest(bench: Bench, dpmsim) -> list[str]:
    """SHA-256 of traces and reports that a speed-only change must keep."""
    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    lines = [f"manifest {bench.work.name} trace {bench.trace_sha.hexdigest()}",
             f"manifest {bench.work.name} json {bench.json_sha.hexdigest()}"]
    for path in sorted((ROOT / "scenarios").glob("*.scenario")):
        report = dpmsim.run(dpmsim.parse_scenario(path.read_text()))
        lines.append(f"manifest scenarios/{path.name} trace {sha(dpmsim.format_trace(report))}")
    # Imported read-only: no bytecode is written into tests/.
    spec = importlib.util.spec_from_file_location("scenario_gen", SCENARIO_GEN)
    scenario_gen = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(scenario_gen)
    finally:
        sys.dont_write_bytecode = dont_write
    combined = hashlib.sha256()
    for seed in MANIFEST_SEEDS:
        digest = sha(dpmsim.format_trace(dpmsim.run(scenario_gen.random_scenario(seed))))
        combined.update(digest.encode())
        lines.append(f"manifest random_scenario({seed}) trace {digest}")
    lines.append(f"manifest random_scenario(0-{MANIFEST_SEEDS[-1]}) combined {combined.hexdigest()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--peak-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "dpmsim" / "__init__.py").is_file():
        print(f"benchmark: no dpmsim sources at {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and the children it starts, so that the
    # reference calls time the same vCPU as the work they scale.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import dpmsim

    if Path(dpmsim.__file__).resolve().parent != SRC / "dpmsim":
        print(f"benchmark: imported dpmsim from {dpmsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import LAYER_FUNCTIONS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    work = WORKLOADS[args.workload]
    bench = Bench(work, work.items(args.seed), LAYER_FUNCTIONS)
    if args.peak_child:
        bench.unchecked_pass()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
        return 0

    # Every time reported is in reference-speed seconds (see hostspeed.py).
    # Set-up probes run one after each timed pass rather than all at once,
    # so that they sample the same stretch of host time as the passes; the
    # reference calls pause while a probe runs.
    first_text = work.first_text(bench.items[0])
    setup_launch(first_text)  # unmeasured: warms the file cache
    setup: list[tuple[float, float, float, float]] = []  # start, end, wall, import seconds
    speed = hostspeed.HostSpeed()

    def probe_setup():
        if len(setup) < SETUP_LAUNCHES:
            with speed.paused():
                start = perf_counter()
                wall, imported = setup_launch(first_text)
                setup.append((start, perf_counter(), wall, imported))

    peak_rss = measure_peak_rss(work.name, args.seed) if args.trace == 0 else 0
    bench.timed_passes(hostspeed.HostSpeed(), WARMUP_SECONDS, min_passes=-(-WARMUP_OPS // len(bench.items)))
    metrics: dict[str, tuple[float, str]] = {}
    notes: list[str] = []
    if args.trace == 0:
        walls, ops = bench.timed_passes(speed, args.seconds, between=probe_setup)
    else:
        # Untraced and traced passes alternate, so that the tracing overhead
        # compares passes from the same stretch of host time.
        tracer = Tracer(speed.clock)
        walls, traced_walls = [], []
        start = perf_counter()
        while len(traced_walls) < MIN_PASSES or perf_counter() - start < args.seconds:
            walls += bench.timed_passes(speed, 0, 1, between=probe_setup)[0]
            traced_walls += bench.timed_passes(speed, 0, 1, wrap=tracer.wrap, op_wrap=tracer.wrap_op)[0]
    with speed.sampling():
        while len(setup) < SETUP_LAUNCHES:
            probe_setup()
    setup_s = [speed.scaled(start, end, wall) for start, end, wall, _ in setup]
    import_s = [speed.scaled(start, end, imported) for start, end, _, imported in setup]

    if args.trace == 0:
        deciles = statistics.quantiles(ops, n=10)
        metrics = {
            "wall_s": (_median(walls), "s"),
            "setup_s": (_median(setup_s), "s"),
            "peak_mb": (peak_rss / 1e6, "MB"),
            "op_p50_ms": (_median(ops) * 1e3, "ms"),
            "op_p90_ms": (deciles[8] * 1e3, "ms"),
        }
        notes.append(f"samples: {len(walls)} passes, {len(ops)} operations, "
                     f"{len(setup)} set-up launches")
        notes.append(speed.note("timed passes"))
    else:
        metrics = span_metrics(tracer, tracer.passes, speed.scale())
        records = metrics["engine.records"][0]
        metrics["dpmsim.import_s"] = (_median(import_s), "s")
        metrics["engine.peak_mb"] = (bench.engine_peak_pass() / 1e6, "MB")
        metrics["tracing.overhead_share"] = (_median(traced_walls) / _median(walls) - 1.0, "ratio")
        metrics.update(profile_metrics(bench.profile_pass(), records))
        span_file = SPAN_DIR / f"spans_{work.name}_seed{args.seed}.jsonl"
        tracer.write(span_file)
        notes.append(f"samples: {len(walls)} untraced and {tracer.passes} traced passes; "
                     f"spans in {span_file.relative_to(ROOT)}")
        notes.append(speed.note("timed passes"))

    for line in manifest(bench, dpmsim):
        print(line)
    print(f"workload {work.name} seed {args.seed}")
    for note in notes:
        print(note)
    print(f"fail_ratio {bench.failed / bench.attempted!r} ({bench.failed}/{bench.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
