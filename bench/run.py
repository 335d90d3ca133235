"""Benchmark: drive the subuniform CLI in-process on seed-generated sets.

    python3 bench/run.py --workload oracle-n8 --seed 1 --seconds 40 --trace 0

One process, no threads, one client in a closed loop: each task is one
``subuniform.cli.run_command`` call on a set file this benchmark wrote,
and the next task starts when the previous one returns.  A set-up is
a fresh import of the package, set generation, set-file writes and one
small warm-up call per command.  A run repeats cycles while the
predicted end of the next cycle stays within --seconds; a cycle is
three set-ups and then one pass over the workload's fixed task list,
using the package the last set-up imported.  Spreading the set-ups over
the run keeps setup_s (their median) from resting on one speed regime
of the machine.

--trace 0 prints the end-to-end metrics, measured untraced.  --trace 1
makes each cycle an untraced pass followed by a traced one (see
tracing.py) and prints the per-layer metrics; spans go to
bench/out/trace-<workload>.json.

Every task's output is checked outside the timed region: exit code,
identical ``exact`` blocks in every pass, an independent re-derivation
(check.py) and, at the default seed, the sha256 digest of the ``exact``
block recorded in digests.json.  The last stdout line is the JSON
result; progress and failure reasons go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import check
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

DEFAULT_SEED = 1
SETUPS_PER_CYCLE = 3  # set-ups before each pass; setup_s is their median
TASK_LIMIT_S = 30.0   # per task; an overrun counts as a failed task
HARD_LIMIT_S = 150.0  # no task starts after this, so the run ends within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_s_p50": "s",
    "task_s_max": "s",
    "peak_rss_mb": "MB",
}


class TaskTimeout(BaseException):
    """Raised by the interval timer when a task overruns its limit."""


def _on_alarm(signum, frame):
    raise TaskTimeout()


def load_package():
    """Import subuniform from this checkout's src/, fresh each time."""
    for key in [k for k in sys.modules if k == "subuniform" or k.startswith("subuniform.")]:
        del sys.modules[key]
    cli = importlib.import_module("subuniform.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"subuniform imported from {cli.__file__}, not {SRC}")
    return cli


def call(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run_command(list(argv))
    return code, out.getvalue(), err.getvalue()


def setup(name: str, seed: int, work_dir: str):
    """One full set-up; returns (seconds, cli module, warm-up failures)."""
    t0 = perf_counter()
    cli = load_package()
    workload = workloads.build(name, seed, work_dir)
    workloads.write_sets(work_dir, workload.sets + workload.warmup_sets)
    failures = []
    for argv in workload.warmup:
        code, _, err = call(cli, argv)
        if code not in (0, 1):  # 1 is a verification outcome, still a full run
            failures.append(f"warm-up {' '.join(argv)}: exit {code} {err.strip()}")
    return perf_counter() - t0, cli, failures


class Runner:
    """Set-ups and passes of one run; keeps every attempt's outcome.

    A cycle is SETUPS_PER_CYCLE fresh set-ups followed by one pass over
    the task list with the package the last set-up imported.  With a
    tracer, a cycle is an untraced pass and then a traced one, each after
    its own set-ups, so the traced-minus-untraced difference of a cycle
    compares passes a few seconds apart.
    """

    def __init__(self, name: str, seed: int, work_dir: str, hard_deadline: float) -> None:
        self.name, self.seed, self.work_dir = name, seed, work_dir
        self.hard_deadline = hard_deadline
        self.tasks = workloads.build(name, seed, work_dir).tasks
        self.attempts: dict[str, list] = {t.task_id: [] for t in self.tasks}
        self.dead: set[str] = set()
        self.setups: list[float] = []
        self.warm_failures: list[str] = []
        self.untraced: list[tuple[float, dict[str, float]]] = []
        self.traced: list[tuple[float, dict[str, float]]] = []
        self.snapshots: list[dict[str, float]] = []

    def set_up(self):
        for _ in range(SETUPS_PER_CYCLE):
            gc.collect()  # frees the package a previous set-up imported
            seconds, cli, failures = setup(self.name, self.seed, self.work_dir)
            self.setups.append(seconds)
            self.warm_failures.extend(failures)
        return cli

    def run_pass(self, cli, tracer=None) -> tuple[float, dict[str, float]]:
        times: dict[str, float] = {}
        start = perf_counter()
        for task in self.tasks:
            if task.task_id in self.dead:
                continue
            limit = min(TASK_LIMIT_S, self.hard_deadline - perf_counter())
            if limit <= 0:
                self.attempts[task.task_id].append(("run time limit reached", None, None))
                self.dead.add(task.task_id)
                continue
            if tracer is not None:
                tracer.task = task.task_id
            signal.setitimer(signal.ITIMER_REAL, limit)
            t0 = perf_counter()
            try:
                code, out, err = call(cli, task.argv)
                times[task.task_id] = perf_counter() - t0
                outcome = (None, code, out)
            except TaskTimeout:
                self.dead.add(task.task_id)
                outcome = (f"overran the {limit:g} s task limit", None, None)
            except (Exception, SystemExit) as exc:  # the program itself failed
                outcome = (f"raised {exc!r}", None, None)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self.attempts[task.task_id].append(outcome)
        return perf_counter() - start, times

    def cycle(self, tracer=None) -> None:
        self.untraced.append(self.run_pass(self.set_up()))
        if tracer is None:
            return
        cli = self.set_up()
        tracer.install()
        try:
            self.traced.append(self.run_pass(cli, tracer))
        finally:
            tracer.uninstall()
        self.snapshots.append(tracer.snapshot())
        tracer.reset_totals()

    def measure(self, budget_s: float, tracer=None) -> None:
        """Whole cycles while the next one is predicted to end within budget_s."""
        start = perf_counter()
        durations = []
        while True:
            t0 = perf_counter()
            self.cycle(tracer)
            durations.append(perf_counter() - t0)
            now = perf_counter()
            if now - start + statistics.median(durations) > budget_s or now >= self.hard_deadline:
                return


def verify(runner: Runner, seed: int, recorded: dict | None) -> tuple[int, int, list[str], dict]:
    """Check every attempt; returns (attempted, failed, reasons, first digests)."""
    attempted = failed = 0
    reasons: list[str] = []
    digests: dict[str, str] = {}
    for task in runner.tasks:
        first = None
        verdict = None
        for error, code, out in runner.attempts[task.task_id]:
            attempted += 1
            if error is None:
                try:
                    exact = json.loads(out)["exact"]
                except (ValueError, KeyError) as exc:
                    error = f"unreadable report: {exc!r}"
            if error is None:
                d = check.digest(exact)
                if first is None:
                    first = d
                    digests[task.task_id] = d
                    verdict = check.check(task, code, exact)
                    if verdict is None and recorded is not None and recorded.get(task.task_id) != d:
                        verdict = f"exact digest differs from the one recorded at seed {seed}"
                if d != first:
                    error = "exact block changed between passes"
                else:
                    error = verdict
            if error is not None:
                failed += 1
                reasons.append(f"{task.task_id}: {error}")
    return attempted, failed, reasons, digests


def end_to_end(runner: Runner) -> dict[str, float]:
    passes = runner.untraced
    per_task: dict[str, list[float]] = {}
    for _, times in passes:
        for task_id, t in times.items():
            per_task.setdefault(task_id, []).append(t)
    samples = [t for times in per_task.values() for t in times]
    return {
        "setup_s": statistics.median(runner.setups),
        "wall_s": statistics.median(wall for wall, _ in passes),
        "task_s_p50": statistics.median(samples) if samples else float("nan"),
        "task_s_max": max((statistics.median(v) for v in per_task.values()), default=float("nan")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner: Runner) -> dict[str, float]:
    """Median over traced passes of each layer metric, plus trace totals."""
    snapshots = runner.snapshots
    out = {key: statistics.median(s[key] for s in snapshots) for key in snapshots[0]}
    task_s = [sum(times.values()) for _, times in runner.traced]
    out["trace.task_s"] = statistics.median(task_s)
    out["trace.unattributed_s"] = statistics.median(
        t - s["trace.self_sum_s"] for t, s in zip(task_s, snapshots)
    )
    out["trace.overhead_s"] = statistics.median(
        traced - untraced for (traced, _), (untraced, _) in zip(runner.traced, runner.untraced)
    )
    return out


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit as BENCHMARK.json lists them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="store this run's exact-block digests as the reference (default seed only)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs the default seed {DEFAULT_SEED}")

    units = tracing.UNITS if args.trace else END_TO_END
    if declared_units(bool(args.trace)) != units:
        print("bench: BENCHMARK.json lists other metrics or units than run.py and tracing.py",
              file=sys.stderr)
        return 2

    hard_deadline = perf_counter() + HARD_LIMIT_S
    signal.signal(signal.SIGALRM, _on_alarm)
    work_dir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, work_dir, hard_deadline)
        if args.trace:
            tracer = tracing.Tracer()
            runner.measure(args.seconds, tracer)
            metrics = per_layer(runner)
        else:
            runner.measure(args.seconds)
            metrics = end_to_end(runner)
        recorded = None
        if args.seed == DEFAULT_SEED and not args.record_digests:
            with open(DIGESTS, encoding="utf-8") as handle:
                recorded = json.load(handle).get(args.workload, {})
        attempted, failed, reasons, digests = verify(runner, args.seed, recorded)
        attempted += len(runner.warm_failures)
        failed += len(runner.warm_failures)
        reasons = runner.warm_failures + reasons
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write(
                os.path.join(OUT_DIR, f"trace-{args.workload}.json"),
                {"workload": args.workload, "seed": args.seed, "metrics": metrics},
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.record_digests and failed == 0:
        stored = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS, encoding="utf-8") as handle:
                stored = json.load(handle)
        stored[args.workload] = digests
        with open(DIGESTS, "w", encoding="utf-8") as handle:
            json.dump(stored, handle, indent=1, sort_keys=True)
            handle.write("\n")
    for reason in reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "subuniform", "cli.py")):
        print(f"bench: no subuniform sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.exit(main())
