"""Benchmark of the opennet command line, driven in-process.

    python3 benchmarks/run.py --workload bisim-equal --seed 0 --seconds 36 --trace 0

One client runs a closed loop: each CLI call (`opennet.cli.main(argv)`)
starts only after the previous one returned, on the documents that set-up
wrote.  The loop runs whole passes over the workload's ops until the time
is up and at least MIN_OPS ops ran.  Every call is checked against the
exit code and facts known from how its inputs were built, and against the
stdout digest of the same call earlier in the run and, when recorded, in
`digests.json`.

Every pass repeats the same deterministic calls, so a call that ran slower
than its own fastest repeat was slowed by the host, not by the program.
The end-to-end metrics therefore take each call at its best time in the
run: the latency quantiles, and `ops_per_s` as calls over their summed
best times.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` untraced and traced passes alternate
and it carries the per-layer metrics of a traced pass instead; the spans
of every traced pass are written to `.bench_spans/<workload>-seed<n>.json`.
Metric names and units are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
SPANS = ROOT / ".bench_spans"

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100
MAX_SECONDS = 150.0
SETUP_REPEATS = 9
TAIL_SAMPLES = 10

# metric names and units are those BENCHMARK.json declares
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def percentile(values, q: float) -> float:
    """The q-quantile by linear interpolation between order statistics.

    Refused (ValueError) unless at least TAIL_SAMPLES samples lie beyond
    it, so a 90th percentile needs 100 samples.
    """
    n = len(values)
    if n * (1.0 - q) < TAIL_SAMPLES - 1e-9:
        raise ValueError(
            f"the {q:.0%} percentile of {n} samples has fewer than "
            f"{TAIL_SAMPLES} samples beyond it")
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def best_times(keys, times) -> list:
    """Each call's time replaced by the fastest time of the same call in the run."""
    best = {}
    for key, seconds in zip(keys, times):
        best[key] = min(seconds, best.get(key, seconds))
    return [best[key] for key in keys]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_docs(workload, directory: Path):
    for name, text in workload.docs.items():
        (directory / name).write_text(text, encoding="utf-8")


def resolve(argv, directory: Path) -> list:
    """CLI arguments with each @document replaced by its written path."""
    return [str(directory / a[1:]) if a.startswith("@") else a for a in argv]


def pass_ops(workload):
    """One pass: every op `repeat` times, repeats spread over the pass."""
    rounds = max(op.repeat for op in workload.ops)
    return [op for r in range(rounds) for op in workload.ops if op.repeat > r]


def call(cli, argv):
    """Run one CLI call; returns (seconds, exit code or exception, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed op, not a stop
            code = exc
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue()


class Checker:
    """Independent checks of each call's outcome; remembers what it saw."""

    def __init__(self, recorded: dict):
        self.recorded = recorded
        self.seen = {}  # op key -> stdout digest in this run
        self.verdicts = {}  # (op key, digest) -> error message or None
        self.failures = []

    def __call__(self, op, key, code, stdout) -> bool:
        got = digest(stdout)
        error = None
        if code != op.exit_code:
            error = f"exit {code!r}, expected {op.exit_code}"
        elif self.seen.setdefault(key, got) != got:
            error = "stdout differs from an earlier pass of this run"
        elif self.recorded.get(key, got) != got:
            error = "stdout differs from the recorded digest"
        else:
            if (key, got) not in self.verdicts:
                self.verdicts[(key, got)] = self._known_answer(op, stdout)
            error = self.verdicts[(key, got)]
        if error:
            self.failures.append(f"{op.family} {' '.join(op.argv)}: {error}")
        return error is None

    @staticmethod
    def _known_answer(op, stdout):
        if op.check is None:
            return None
        try:
            return op.check(json.loads(stdout))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"


def run_pass(cli, calls, checker):
    """Time every call of one pass; returns (op seconds list, ok count)."""
    times, ok = [], 0
    for op, key, argv in calls:
        seconds, code, stdout = call(cli, argv)
        times.append(seconds)
        ok += checker(op, key, code, stdout)
    return times, ok


def time_setup(name: str, seed: int, scratch: Path) -> float:
    """Median wall time of fresh-interpreter set-ups (see setup_probe.py)."""
    samples = []
    for i in range(SETUP_REPEATS):
        target = scratch / f"setup{i}"
        target.mkdir()
        start = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to its step
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(target)],
            check=True, cwd=ROOT,
        )
        samples.append(time.perf_counter() - start)
        # removed at once: once the disk has caught up, each unlink waits on it
        shutil.rmtree(target)
    return statistics.median(samples)


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from opennet import cli

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        setup_s = time_setup(name, seed, scratch)
        workload = workloads.build(name, seed)
        docs = scratch / "docs"
        docs.mkdir()
        write_docs(workload, docs)
        calls = [(op, workload.op_key(op), resolve(op.argv, docs)) for op in pass_ops(workload)]
        checker = Checker(json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"])
        loop = Loop(cli, calls, checker, spans.Tracer() if traced else None)
        loop.run(seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if traced:
        path = SPANS / f"{name}-seed{seed}.json"
        write_spans(loop.span_passes, path)
        print(f"spans of {len(loop.span_passes)} traced passes written to {path}",
              file=sys.stderr)
    for line in checker.failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    attempted = len(loop.times)
    beyond = attempted - int(0.9 * (attempted - 1)) - 1
    print(f"{name}: {attempted} ops in {loop.passes} passes of {len(calls)} over "
          f"{loop.elapsed:.1f} s; op_p90_ms has {beyond} samples beyond it")
    return summarize(loop, setup_s)


def write_spans(span_passes, path: Path):
    """Every traced pass's spans as JSON: one list of span records per pass."""
    path.parent.mkdir(exist_ok=True)
    records = [[dataclasses.asdict(span) for span in batch] for batch in span_passes]
    path.write_text(json.dumps({"passes": records}) + "\n", encoding="utf-8")


def summarize(loop, setup_s: float) -> dict:
    """The result object: end-to-end metrics, or layer metrics when traced."""
    attempted = len(loop.times)
    correct = loop.ok == attempted
    if loop.tracer is not None:
        metrics = layer_summary(loop.layer_passes)
        if any(p.get(k) != loop.layer_passes[0].get(k)
               for p in loop.layer_passes for k in COUNT_NAMES):
            print("guard counts differ between traced passes", file=sys.stderr)
            correct = False
        (plain_s, plain_n), (traced_s, traced_n) = loop.wall[False], loop.wall[True]
        metrics["trace.ops_per_s"] = traced_n / traced_s
        metrics["trace.slowdown"] = (traced_s / traced_n) / (plain_s / plain_n)
        units = LAYER_UNITS
    else:
        best = best_times(loop.keys, loop.times)
        metrics = {
            "op_p50_ms": 1000.0 * percentile(best, 0.5),
            "op_p90_ms": 1000.0 * percentile(best, 0.9),
            "ops_per_s": len(best) / sum(best),
            "ok_share": loop.ok / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - loop.ok,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


class Loop:
    """The closed loop: whole passes until the time is up and MIN_OPS ran.

    With a tracer, untraced and traced passes alternate; each traced pass
    yields one dict of layer metrics.  `times` and `keys` hold every call's
    seconds and op key.
    """

    def __init__(self, cli, calls, checker, tracer=None):
        self.cli, self.calls, self.checker, self.tracer = cli, calls, checker, tracer
        self.times, self.keys, self.ok, self.passes, self.elapsed = [], [], 0, 0, 0.0
        self.wall = {False: [0.0, 0], True: [0.0, 0]}  # traced? -> [seconds, ops]
        self.layer_passes = []
        self.span_passes = []

    def run(self, seconds: float):
        start = time.perf_counter()
        while True:
            self._pass(self.tracer is not None and self.passes % 2 == 1)
            self.elapsed = time.perf_counter() - start
            enough = self.elapsed >= seconds and len(self.times) >= MIN_OPS
            if self.tracer is not None:
                enough = enough and len(self.layer_passes) >= 2
            if enough or self.elapsed >= MAX_SECONDS:
                return

    def _pass(self, tracing: bool):
        if tracing:
            self.tracer.reset()
            self.tracer.install()
        began = time.perf_counter()
        try:
            times, ok = run_pass(self.cli, self.calls, self.checker)
        finally:
            if tracing:
                self.tracer.uninstall()
        wall = self.wall[tracing]
        wall[0] += time.perf_counter() - began
        wall[1] += len(times)
        if tracing:
            self.layer_passes.append(self.tracer.layer_metrics())
            self.span_passes.append(self.tracer.spans)
        self.times += times
        self.keys += [key for _, key, _ in self.calls]
        self.ok += ok
        self.passes += 1


COUNT_NAMES = [k for k, unit in LAYER_UNITS.items() if unit == "count"]


def layer_summary(layer_passes) -> dict:
    """Per-pass layer numbers: median self times, counts of the first pass."""
    out = {}
    for key, unit in LAYER_UNITS.items():
        values = [p.get(key, 0.0 if unit == "ms" else 0) for p in layer_passes]
        out[key] = statistics.median(values) if unit == "ms" else values[0]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
