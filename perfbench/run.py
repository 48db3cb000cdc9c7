"""conformal-wm benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the repository root:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The CLI runs in process (``cli.main(argv)``) on inputs generated from the
seed, one thread, in a closed loop: each iteration starts when the last
has finished. With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced iterations and
reports the per-layer metrics. Human-readable lines start with ``#``; the
last line is the JSON result. perfbench/README.md documents the metrics.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import tracer as tr
from workloads import WORKLOADS, call_decisions, call_digest, check_call, import_cli

HERE = Path(__file__).resolve().parent
RUN_DIR = ".perfbench_run"  # scratch and results, under the checkout
THREADS_ENV_VAR = "CONFORMAL_WM_THREADS"
MIN_ITERATIONS = 3  # in process, after the fresh-process one
MIN_PAIRS = 2  # traced run: untraced/traced pairs

_SETUP_CODE = ("import sys, time; t0 = float(sys.argv[1]); sys.path.insert(0, sys.argv[2]); "
               "import conformal_wm.cli; print(time.monotonic() - t0)")


class Runner:
    """Runs a workload's CLI calls in process and checks every call's outputs.

    The first successful run of a call is checked against the workload's
    oracle and sets the call's reference digest; every later run, in this
    process or another, must reproduce that digest.
    """

    def __init__(self, cli, calls, data):
        self.cli = cli
        self.calls = calls
        self.data = data
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list[str | None] = [None] * len(calls)
        self.decisions = 0

    def iteration(self) -> float | None:
        """Wall seconds of one iteration, or None when a call in it failed."""
        gc.collect()
        codes = []
        start = time.perf_counter()
        for call in self.calls:
            try:
                codes.append(self.cli.main(list(call.argv)))
            except (Exception, SystemExit) as exc:
                codes.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        return wall if self.verify(self.calls, codes) else None

    def verify(self, calls, codes) -> bool:
        """Count the attempted calls of one iteration; record why any failed."""
        ok = True
        for i, (call, code) in enumerate(zip(calls, codes)):
            self.attempted += 1
            problems = [f"{call.method}: exit {code}"] if code != 0 else []
            if not problems:
                got = call_digest(call)
                if self.reference[i] is None:
                    problems = check_call(call, self.data)
                    if not problems:
                        self.reference[i] = got
                        self.decisions += call_decisions(call)
                elif got != self.reference[i]:
                    problems = [f"{call.method}: output digest differs from the first run"]
            if problems:
                ok = False
                self.failed += 1
                self.problems += problems
        return ok


def _repeat(seconds: float, step, min_steps: int, start: float) -> None:
    """Run ``step`` until the next one would end ``seconds`` after ``start``."""
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_steps and elapsed + statistics.median(durations) > seconds:
            return
        if elapsed > 2 * seconds:  # far slower than expected: stop early
            return


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"min": min(values), "q1": q1, "median": statistics.median(values), "q3": q3,
            "mean": statistics.fmean(values), "n": len(values)}


def setup_time(src: Path) -> float:
    """Fresh interpreter start until ``conformal_wm.cli`` is imported.

    Both ends read the system-wide monotonic clock, so the child reports
    the time since the parent was about to spawn it.
    """
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, repr(t0), str(src)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def fresh_process(root: Path, workload: str, inputs: Path, out: Path) -> dict:
    """One iteration in a new interpreter: exit codes, wall time, peak RSS."""
    proc = subprocess.run([sys.executable, str(HERE / "once.py"), workload, str(inputs),
                           str(out)], cwd=root, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"once.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def code_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted([*root.glob("src/conformal_wm/*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*argv):
        return subprocess.run(["git", *argv], cwd=root, capture_output=True, text=True,
                              timeout=60, check=True).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def environment(root: Path, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_git(root),
        "code_sha256": code_digest(root),
        "threads": 1,
        f"{THREADS_ENV_VAR}_was": args.threads_env,  # cleared for the run
    }


def end_to_end(root: Path, args, runner: Runner, inputs: Path, work: Path) -> tuple[dict, dict]:
    """Time iterations for ``--seconds``, after a fresh-process and a warm-up one.

    The fresh-process iteration gives peak RSS and the warm-up pays the
    in-process one-off costs; both are checked but not timed. A set-up
    sample follows every timed iteration, so set-up and wall samples spread
    over the same stretch of the run.
    """
    src = root / "src"
    start = time.perf_counter()
    fresh_out = work / "fresh"
    fresh = fresh_process(root, args.workload, inputs, fresh_out)
    runner.verify(WORKLOADS[args.workload].calls(inputs, fresh_out), fresh["codes"])
    runner.iteration()
    walls: list = []
    setup: list = []

    def step():
        walls.append(runner.iteration())
        setup.append(setup_time(src))

    _repeat(args.seconds, step, MIN_ITERATIONS, start)
    walls = [w for w in walls if w is not None] or [float("nan")]
    wall = _summary(walls)
    # Means over the whole run: the host's slow stretches last from seconds
    # to minutes, and a mean weighs each by the time it lasts, where a
    # median or minimum jumps between the host's fast and slow speeds.
    metrics = {
        "wall_s": (wall["mean"], "s"),
        "decisions_per_s": (runner.decisions / wall["mean"], "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (fresh["maxrss_kib"] / 1024.0, "MiB"),
    }
    detail = {"wall_s": wall, "wall_samples": walls, "setup_s": _summary(setup),
              "decisions_per_iteration": runner.decisions}
    return metrics, detail


def per_layer(root: Path, args, runner: Runner, out_dir: Path) -> tuple[dict, dict]:
    tracer = tr.Tracer()
    untraced: list = []
    traced: list = []
    counts: list = []

    def pair():
        untraced.append(runner.iteration())
        tracer.iteration_id = len(traced)
        tracer.counts = Counter()
        tracer.install()
        try:
            traced.append(runner.iteration())
        finally:
            tracer.uninstall()
        counts.append(tracer.counts)

    start = time.perf_counter()
    runner.iteration()  # warm-up, as in the untraced run
    _repeat(args.seconds, pair, MIN_PAIRS, start)
    tracer.write_spans(out_dir / f"{args.workload}-spans.csv")

    if any(c != counts[0] for c in counts[1:]):
        runner.problems.append("count metrics differ between traced iterations")
    first = {name: counts[0][name] for name in tr.COUNT_METRICS}
    record = root / RUN_DIR / "counts" / f"{args.workload}-{args.seed}-{code_digest(root)[:16]}.json"
    if record.exists():
        if json.loads(record.read_text(encoding="utf-8")) != first:
            runner.problems.append(f"count metrics differ from the earlier run in {record.name}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(first, sort_keys=True), encoding="utf-8")

    times = list(tracer.self_times().values())
    traced_ok = [w for w in traced if w is not None] or [float("nan")]
    untraced_ok = [w for w in untraced if w is not None] or [float("nan")]
    # The two iterations of a pair run seconds apart, under the same host load.
    overheads = [t - u for u, t in zip(untraced, traced) if u is not None and t is not None]
    # means across iterations, as for wall_s; they add up to trace.wall_s
    values = {name: statistics.fmean(t[name] for t in times) for name in tr.TIME_METRICS}
    values.update(first)
    values.update(tr.ratios(counts[0]))
    values["trace.wall_s"] = statistics.fmean(traced_ok)
    values["trace.overhead_s"] = statistics.median(overheads or [float("nan")])
    metrics = {name: (values[name], unit) for name, unit in tr.PER_LAYER}
    detail = {"traced_wall_s": _summary(traced_ok), "untraced_wall_s": _summary(untraced_ok),
              "spans": len(tracer.start), "unwrapped_targets": tracer.missing}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # every workload runs on one thread: simulate gets --threads 1, and no
    # inherited cap may override it
    args.threads_env = os.environ.pop(THREADS_ENV_VAR, None)

    root = Path.cwd()
    if not (root / "src" / "conformal_wm" / "cli.py").is_file():
        print(f"perfbench: {root} holds no src/conformal_wm/cli.py; "
              "run from the repository root", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out_dir = root / RUN_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    work = root / RUN_DIR / f"work-{args.workload}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        inputs.mkdir(parents=True)
        data = workload.generate(inputs, args.seed)
        cli = import_cli(root)
        runner = Runner(cli, workload.calls(inputs, work / "out"), data)
        if args.trace:
            metrics, detail = per_layer(root, args, runner, out_dir)
        else:
            metrics, detail = end_to_end(root, args, runner, inputs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = runner.failed == 0 and not runner.problems
    env = environment(root, args)
    error_rate = runner.failed / runner.attempted
    report = {"env": env, "correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "error_rate": error_rate,
              "problems": runner.problems, "metrics": metrics, **detail}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str), encoding="utf-8")

    print(f"# env {json.dumps(env, sort_keys=True)}")
    if "wall_s" in detail:
        w = detail["wall_s"]
        print(f"# iteration wall time: mean {w['mean']:.4f} s, min {w['min']:.4f}, "
              f"q1 {w['q1']:.4f}, median {w['median']:.4f}, q3 {w['q3']:.4f}, "
              f"n {w['n']} iterations")
    print(f"# error_rate {error_rate:.4g} ({runner.failed} failed / {runner.attempted} "
          f"CLI invocations)")
    for problem in list(dict.fromkeys(runner.problems))[:20]:
        print(f"# problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
