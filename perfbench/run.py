"""margmap benchmark: greedy MMAP solves and accuracy sweeps, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py                   # every workload, untraced then traced
    python3 perfbench/run.py --workload greedy-all --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --write-manifest  # rewrite BENCHMARK.json and perfbench/choices.json
    python3 perfbench/run.py --make-golden     # recompute the golden answers (changes the baseline)

One workload run is a closed loop: one client in this process issues one
operation at a time, with no threads. It prints every metric as
``name value unit`` and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics and ``--trace 1`` the per-layer ones; spans of a
traced run are written to ``.perfbench/spans/``. The program is imported
from ``src/`` next to this directory; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import manifest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_PROBES = 3  # cold set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 150


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-manifest", action="store_true")
    p.add_argument("--make-golden", action="store_true")
    p.add_argument("--setup-probe", metavar="RUN_DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "margmap" / "__init__.py").is_file():
        print(f"error: the margmap sources are missing ({SRC / 'margmap'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = manifest.RUN_SECONDS
    if args.write_manifest:
        manifest.write_manifest(ROOT)
        return 0
    if args.make_golden:
        return make_golden()
    if args.setup_probe:
        return setup_probe(args.workload, Path(args.setup_probe))
    if args.workload is None:
        return run_all(args, [w["name"] for w in manifest.WORKLOADS])
    return run_workload(args)


def setup_probe(name: str, run_dir: Path) -> int:
    """One cold set-up: import, read and parse the model, run the warm-up operation."""
    start = time.perf_counter()
    import margmap.uaiio
    import workloads

    wl = workloads.WORKLOADS[name]
    model_path = run_dir / "model.uai"
    model = margmap.uaiio.parse_uai(model_path.read_text())
    inst, golden = json.loads((run_dir / "warmup.json").read_text())
    result = wl.run(model, model_path, inst, run_dir / f"probe{time.monotonic_ns()}")
    setup_s = time.perf_counter() - start
    error = wl.check(model, inst, golden, result, {})
    print(json.dumps({"setup_s": setup_s, "error": error}))
    return 0


def timed(fn, *args):
    """Run one operation; return (seconds, result, error message or None)."""
    start = time.perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as err:  # a failed operation is counted, not fatal
        result, error = None, f"{type(err).__name__}: {err}"
    return time.perf_counter() - start, result, error


class Run:
    """One workload run: its inputs, its operations and their checks."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        import workloads

        self.wl = workloads.WORKLOADS[name]
        self.run_dir = run_dir
        text, pool = self.wl.model_text(), self.wl.pool()
        self.errors = self.wl.input_errors(seed, text, pool)
        self.model_path = run_dir / "model.uai"
        self.model_path.write_text(text)
        self.instances = list(zip(pool, self.wl.golden()["pool"]))
        self.order = self.wl.sequence(seed)
        self.model = None
        self.records = []  # (instance, golden, result, error, traced)
        self.queries = []  # logical marginal queries per checked record
        self.count = 0

    def op(self, index: int):
        inst = self.instances[index][0]
        self.count += 1
        return self.wl.run(self.model, self.model_path, inst, self.run_dir / f"op{self.count}")

    def record(self, index: int, seconds_result_error, traced: bool = False) -> float:
        seconds, result, error = seconds_result_error
        inst, golden = self.instances[index]
        self.records.append((inst, golden, result, error, traced))
        return seconds

    def check(self) -> int:
        """Check every recorded operation and count its queries; return the failures."""
        cache, failed = {}, 0
        for inst, golden, result, error, _ in self.records:
            queries = 0
            if error is None:
                try:
                    error = self.wl.check(self.model, inst, golden, result, cache)
                    queries = self.wl.queries(result)
                except Exception as err:  # a check that cannot run is a failed check
                    error = f"check raised {type(err).__name__}: {err}"
            self.queries.append(queries)
            if error is not None:
                failed += 1
                self.errors.append(error)
        return failed


def run_workload(args) -> int:
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            return traced_run(args, run_dir)
        return untraced_run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def untraced_run(args, run_dir: Path) -> int:
    import margmap.uaiio

    run = Run(args.workload, args.seed, run_dir)
    warmup = next(run.order)
    (run_dir / "warmup.json").write_text(json.dumps(run.instances[warmup]))

    setups, probe_failures = [], 0
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--setup-probe", str(run_dir)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        try:
            reply = json.loads(probe.stdout.strip().splitlines()[-1])
            setups.append(reply["setup_s"])
            error = reply["error"]
        except (IndexError, ValueError, KeyError):
            error = f"set-up probe failed: {probe.stderr.strip()[-500:]}"
        if error is not None:
            probe_failures += 1
            run.errors.append(error)

    run.model = margmap.uaiio.parse_uai(run.model_path.read_text())
    run.record(warmup, timed(run.op, warmup))

    durations = []
    loop_start = time.perf_counter()
    while True:
        index = next(run.order)
        durations.append(run.record(index, timed(run.op, index)))
        wall = time.perf_counter() - loop_start
        if wall >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = run.check() + probe_failures
    queries = sum(run.queries[1:])
    attempted = len(run.records) + SETUP_PROBES
    ops = len(durations)
    metrics = {
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "op_s.p50": (statistics.median(durations), "s"),
        "ops_per_s": (ops / wall, "1/s"),
        "mar_queries_per_s": (queries / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"ops": (ops, "count"), "failed_frac": (failed / attempted, "1")}
    if ops >= 100:
        extra["op_s.p90"] = (statistics.quantiles(durations, n=10)[8], "s")
    return report(args, run, metrics, extra, attempted, failed)


def traced_run(args, run_dir: Path) -> int:
    """Set-up and N operations under the tracer; the same N operations untraced give the overhead."""
    import margmap.uaiio
    from spans import Tracer

    run = Run(args.workload, args.seed, run_dir)
    tracer = Tracer()
    warmup = next(run.order)
    with tracer.installed():
        tracer.begin_op()
        run.model = margmap.uaiio.parse_uai(run.model_path.read_text())
        run.record(warmup, timed(run.op, warmup), traced=True)

    n_ops = max(1, round(args.seconds / (2 * run.wl.nominal_op_s)))
    plain = traced = 0.0
    for i in range(n_ops):
        index = next(run.order)
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.installed():
                    tracer.begin_op()
                    traced += run.record(index, timed(run.op, index), traced=True)
            else:
                plain += run.record(index, timed(run.op, index))
    tracer.save(WORK / "spans" / f"{args.workload}-seed{args.seed}.npz")

    failed = run.check()
    totals = tracer.totals()
    traced_records = [(rec, q) for rec, q in zip(run.records, run.queries) if rec[4]]
    traced_queries = sum(q for _, q in traced_records)
    if traced_queries != totals.get("heuristic.mar_calls", 0.0):
        run.errors.append(
            f"{traced_queries} queries counted from outputs, "
            f"{totals.get('heuristic.mar_calls', 0.0):g} from traces"
        )
    instances = totals.get("bench.instances", 0.0)
    values = {
        "bench.greedy_runs_per_instance": totals["heuristic.solve.calls"] / instances if instances else 0.0,
        "bench.skipped": float(sum(
            rec[2]["stderr"].count("skipped:") for rec, _ in traced_records if isinstance(rec[2], dict)
        )),
        "trace.overhead_frac": 1.0 - plain / traced,
    }
    metrics = {
        m["name"]: (values.get(m["name"], totals.get(m["name"], 0.0)), m["unit"])
        for m in manifest.PER_LAYER
    }
    extra = {"trace.ops": (n_ops, "count"), "failed_frac": (failed / len(run.records), "1")}
    return report(args, run, metrics, extra, len(run.records), failed)


def report(args, run: Run, metrics: dict, extra: dict, attempted: int, failed: int) -> int:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for error in run.errors[:5]:
        print(f"  error: {error}")
    print(json.dumps({
        "correct": not run.errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process, untraced and then traced."""
    code = 0
    results = {}
    for name in names:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=2 * CHILD_TIMEOUT_S,
            )
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if child.returncode != 0 or not lines:
                print(child.stderr, file=sys.stderr)
                code = 1
                continue
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def make_golden() -> int:
    import workloads

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="golden-", dir=WORK))
    try:
        for wl in workloads.WORKLOADS.values():
            workloads.make_golden(wl, work)
            print(f"wrote {workloads.GOLDEN_DIR / (wl.name + '.json')}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
