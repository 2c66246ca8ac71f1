"""Benchmark of the sobolev-constants CLI, end to end and layer by layer.

    python3 perfbench/run.py [--workload verify_all|point_query|grid_sweep|all]
        [--seed N] [--seconds S] [--trace 0|1]

The checkout is the directory above perfbench/: the package is taken from
its src/, the golden snapshot from its golden/.  Scratch files go to
<checkout>/.perfbench/work-<pid> and are removed at exit; a record of each
run (manifest, samples, problems) is kept in <checkout>/.perfbench/.
Without --workload, all three workloads run in turn and the last line names
each metric <workload>.<metric>.

One client drives the CLI in a closed loop: each op is one or two fresh child
processes, and the next op starts when the previous one has exited.

--trace 0 times ops untraced for --seconds (and at least MIN_OPS ops, so the
tail percentile has ten samples beyond it) and reports the end-to-end
metrics named in BENCHMARK.json.  --trace 1 alternates untraced ops with ops
run through traced_cli.py, which wraps the package's public functions from
outside, and reports the per-layer metrics; their timings are medians over
the traced ops, their counts those of the first traced op.

Every op's output is checked: exit code 0, no failing check, the
closed-form constants against an mpmath oracle, and byte-identical tables for
ops with the same inputs.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 11  # the tail percentile needs ten samples beyond it
MIN_TRACED = 3  # traced and untraced ops each, in a traced run
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
LOOP_LIMIT_S = 120.0  # no op starts later than this into the loop, whatever the op count
RUN_BUDGET_S = 160.0  # children still running this long after the run began are killed
IMPORT_MODULES = ("sobolev_constants.cli", "scipy.optimize", "scipy.integrate", "numpy")


@dataclass
class Child:
    wall_s: float
    rss_kb: int
    code: Optional[int]  # None when killed at the timeout
    stdout: str
    stderr: str


@dataclass
class OpResult:
    index: int
    key: str
    traced: bool
    wall_s: float
    rss_kb: int
    pairs: int
    digest: str = ""
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OMP_NUM_THREADS"] = "1"
    return env


def spawn(argv: List[str], cwd: Path, env: Dict[str, str], timeout: float) -> Child:
    """Run one child to completion, killing it after `timeout` seconds; wall
    time from spawn to exit, peak RSS from os.wait4."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    timed_out = threading.Event()
    with out_path.open("wb") as out, err_path.open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out.is_set() else proc.returncode
    return Child(wall, usage.ru_maxrss, code, out_path.read_text(), err_path.read_text())


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file():
            h.update(f.relative_to(path).as_posix().encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def tree_fingerprint() -> str:
    """Digest of the checkout's program, golden snapshot, tests and benchmark
    (bytecode caches excluded), plus whether a stray results/ directory
    exists: the run must leave them as it found them."""
    h = hashlib.sha256()
    files = [ROOT / "BENCHMARK.json", ROOT / "pyproject.toml"]
    for top in ("src", "golden", "tests", HERE.name):
        files += sorted(f for f in (ROOT / top).rglob("*") if f.is_file() and "__pycache__" not in f.parts)
    for f in files:
        if f.is_file():
            h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    h.update(b"results" if (ROOT / "results").exists() else b"")
    return h.hexdigest()


def fold_spans(result: OpResult, span_files: List[Path], stdouts: List[str]) -> None:
    """Sum the per-name calls / total / self times and the counters of the
    op's traced commands into result.layers (seconds) and result.counts."""
    for path in span_files:
        names, counters, spans = tracer.load_spans(path)
        for name, stats in tracer.aggregate(names, spans).items():
            result.counts[f"{name}.calls"] = result.counts.get(f"{name}.calls", 0) + stats["calls"]
            for stat in ("total_s", "self_s"):
                key = f"{name}.{stat}"
                result.layers[key] = result.layers.get(key, 0.0) + stats[stat]
        for key, value in counters.items():
            result.counts[key] = result.counts.get(key, 0) + value
    result.counts["verify.failed_checks"] = sum(
        line.startswith("[FAIL]") for text in stdouts for line in text.splitlines()
    )


def tail(values: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the 11th-largest sample, at percentile
    100 (n - 10) / n.  With fewer than 11 samples no such percentile exists
    and the maximum is returned, at percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def check_ops(results: List[OpResult], tasks: list) -> None:
    """Run the deferred oracle tasks and the determinism checks, appending
    problems to the ops they concern."""
    by_index = {r.index: r for r in results}
    for task in tasks:
        want = oracle.expected(task.p, task.alpha, task.d)
        by_index[task.op].problems += oracle.mismatches(want, task.printed, task.label)
    first: Dict[str, OpResult] = {}
    for r in results:
        if r.problems:
            continue
        ref = first.setdefault(r.key, r)
        if r.digest != ref.digest:
            r.problems.append(f"tables differ from op{ref.index}, which had the same inputs")
        if r.traced:
            ref = first.setdefault(f"{r.key}#traced", r)
            if r.counts != ref.counts:
                r.problems.append(f"trace counts differ from op{ref.index}, which had the same inputs")


class Bench:
    """One benchmark run: the workload, its scratch directory, the child
    environment, and the path prefix under which the run's record is kept."""

    def __init__(self, wl, work: Path, record_prefix: Path) -> None:
        self.wl = wl
        self.work = work
        self.record_prefix = record_prefix
        self.env = child_env()
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def spawn(self, argv: List[str], cwd: Path) -> Child:
        return spawn(argv, cwd, self.env, max(self.deadline - time.perf_counter(), 1.0))

    def median_child_wall(self, argv: List[str], repeats: int) -> float:
        """Median spawn-to-exit time of `argv`, after one untimed warm-up."""
        walls = []
        for i in range(repeats + 1):
            child = self.spawn(argv, self.work)
            if child.code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {child.code}: {child.stderr.strip()[-300:]}")
            if i:
                walls.append(child.wall_s)
        return statistics.median(walls)

    def import_times(self) -> Dict[str, float]:
        """Cumulative import time of each IMPORT_MODULES entry, in seconds, as
        `python -X importtime` reports it (median over repeats; 0 when the
        module is not imported)."""
        samples: Dict[str, List[float]] = {m: [] for m in IMPORT_MODULES}
        argv = [sys.executable, "-X", "importtime", "-c", "import sobolev_constants.cli"]
        for _ in range(IMPORTTIME_REPEATS):
            child = self.spawn(argv, self.work)
            if child.code != 0:
                raise RuntimeError(f"importtime child exited {child.code}: {child.stderr.strip()[-300:]}")
            seen = {}
            for line in child.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() in samples and parts[1].strip().isdigit():
                    seen[parts[2].strip()] = int(parts[1]) * 1e-6
            for m in IMPORT_MODULES:
                samples[m].append(seen.get(m, 0.0))
        return {f"import.{m}_s": statistics.median(v) for m, v in samples.items()}

    def run_op(self, index: int, traced: bool) -> Tuple[OpResult, list]:
        op_dir = self.work / f"op{index}"
        out = op_dir / "out"
        op_dir.mkdir()
        op = self.wl.op(index, out)
        result = OpResult(index, op.key, traced, 0.0, 0, op.pairs)
        stdouts: List[str] = []
        tasks: list = []
        span_files: List[Path] = []
        for n, cmd in enumerate(op.commands):
            if traced:
                span_files.append(op_dir / f"spans{n}.json")
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(span_files[-1]), "--", *cmd]
            else:
                argv = [sys.executable, *workloads.CLI, *cmd]
            child = self.spawn(argv, op_dir)
            result.wall_s += child.wall_s
            result.rss_kb = max(result.rss_kb, child.rss_kb)
            stdouts.append(child.stdout)
            if child.code != 0:
                what = "timed out" if child.code is None else f"exited {child.code}"
                result.problems.append(f"{cmd[0]} {what}: {child.stderr.strip()[-300:]}")
                break
        if not result.problems:
            try:
                problems, tasks = self.wl.check(index, out, stdouts)
                result.problems += problems
                result.digest = digest_dir(out)
                if traced:
                    fold_spans(result, span_files, stdouts)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                result.problems.append(f"unreadable output: {exc!r}")
            if traced and index == 1:  # the first traced op keeps its raw spans
                for f in span_files:
                    for suffix in ("", ".bin"):
                        shutil.copy(f"{f}{suffix}", f"{self.record_prefix}-{f.name}{suffix}")
        shutil.rmtree(op_dir)
        return result, tasks

    def loop(self, seconds: float, trace: bool) -> Tuple[List[OpResult], float]:
        """Closed loop, one client, for `seconds` and at least MIN_OPS ops
        (MIN_TRACED of each kind when tracing); then the oracle and
        determinism checks.  Returns the ops and the loop's wall time."""
        results: List[OpResult] = []
        tasks: list = []
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            if elapsed >= LOOP_LIMIT_S:
                break
            if trace:
                n_traced = sum(r.traced for r in results)
                if elapsed >= seconds and min(n_traced, len(results) - n_traced) >= MIN_TRACED:
                    break
            elif elapsed >= seconds and len(results) >= MIN_OPS:
                break
            index = len(results)
            result, op_tasks = self.run_op(index, traced=trace and index % 2 == 1)
            results.append(result)
            tasks += op_tasks
        loop_s = time.perf_counter() - t0
        check_ops(results, tasks)
        return results, loop_s

    def end_to_end(self, seconds: float) -> Tuple[Dict[str, float], List[OpResult], List[str]]:
        setup = self.median_child_wall([sys.executable, "-c", "import sobolev_constants.cli"], SETUP_REPEATS)
        results, loop_s = self.loop(seconds, trace=False)
        walls = [r.wall_s for r in results]
        ok = [r for r in results if not r.problems]
        tail_s, tail_pct = tail(walls)
        metrics = {
            "op_latency_p50_s": statistics.median(walls),
            "op_latency_tail_s": tail_s,
            "ops_per_s": len(ok) / loop_s,
            "pairs_per_s": sum(r.pairs for r in ok) / loop_s,
            "peak_rss_mb": max(r.rss_kb for r in results) / 1024.0,
            "setup_s": setup,
            "correct_ops_ratio": len(ok) / len(results),
        }
        notes = [
            f"op_latency_tail_s is percentile {tail_pct:.1f} of n={len(walls)} ops",
            f"failed_ops_ratio {1.0 - metrics['correct_ops_ratio']:.6g} ({len(results) - len(ok)} of {len(results)})",
            f"loop {loop_s:.3f} s",
        ]
        return metrics, results, notes

    def per_layer(self, seconds: float, names: List[str]) -> Tuple[Dict[str, float], List[OpResult], List[str]]:
        metrics = self.import_times()
        results, loop_s = self.loop(seconds, trace=True)
        traced = [r for r in results if r.traced and not r.problems]
        untraced = [r for r in results if not r.traced]
        if not traced or not untraced:
            raise RuntimeError("a traced run needs a successful traced op and an untraced op")
        first = traced[0]
        metrics["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - statistics.median(
            r.wall_s for r in untraced
        )
        for name in names:
            if name in metrics:
                continue
            if name not in tracer.METRICS:
                raise ValueError(f"unknown per-layer metric {name!r}")
            if name.endswith(("total_s", "self_s")):
                metrics[name] = statistics.median(r.layers.get(name, 0.0) for r in traced)
            else:
                # a function that was never called has no span and counts 0
                metrics[name] = first.counts.get(name, 0)
        notes = [
            f"traced ops {len(traced)}, untraced ops {len(untraced)}, loop {loop_s:.3f} s",
            f"counts from op{first.index}, whose spans are kept as {self.record_prefix.name}-spans*",
        ]
        return metrics, results, notes


def manifest(wl, seed: int, trace: bool) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": 1,
        "omp_num_threads": 1,
        **wl.manifest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: Dict[str, str]) -> dict:
    """One run of one workload; prints its notes, manifest and metrics and
    returns the result object."""
    record_dir = ROOT / ".perfbench"
    record_prefix = record_dir / f"{name}-seed{seed}-trace{int(trace)}"
    work = record_dir / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        before = tree_fingerprint()
        wl = workloads.WORKLOADS[name](seed, ROOT, work)
        bench = Bench(wl, work, record_prefix)
        info = manifest(wl, seed, trace)
        if trace:
            metrics, results, notes = bench.per_layer(seconds, list(units))
        else:
            metrics, results, notes = bench.end_to_end(seconds)
        info["tree_unchanged"] = tree_fingerprint() == before
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in results if r.problems]
    metrics = {m: metrics[m] for m in units}
    ops = [
        {"index": r.index, "key": r.key, "traced": r.traced, "wall_s": r.wall_s, "rss_kb": r.rss_kb, "problems": r.problems}
        for r in results
    ]
    record = {"manifest": info, "metrics": metrics, "notes": notes, "ops": ops}
    Path(f"{record_prefix}.json").write_text(json.dumps(record, indent=1) + "\n")

    for r in failed[:10]:
        print(f"{name} op{r.index} failed: {'; '.join(r.problems)[:500]}")
    if not info["tree_unchanged"]:
        print(f"{name}: error: the checkout's sources changed during the run")
    for note in notes:
        print(f"{name}: {note}")
    print(f"{name}: manifest " + json.dumps(info, sort_keys=True))
    for m, unit in units.items():
        print(f"{name}: {m} = {metrics[m]!r} {unit}")
    return {
        "correct": not failed and info["tree_unchanged"],
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    required = ("src/sobolev_constants/cli.py", "golden/fitted_constants.json", "BENCHMARK.json")
    missing = [p for p in required if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a sobolev-constants checkout, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, seconds, bool(args.trace), units)))
        return 0
    # every workload in turn; the summary names each metric <workload>.<metric>
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        result = run_workload(name, args.seed, seconds, bool(args.trace), units)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
