"""classprod benchmark: fixed CLI workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout root is the parent of this directory and
must hold ``src/classprod``.  Inputs are generated from ``--seed`` under
``.bench_run/work``; results and spans go to ``.bench_run/out``.

``--trace 0`` measures end to end: for ``--seconds`` seconds (and at
least ``MIN_ITERATIONS`` times) it launches the workload's CLI command,
one process at a time, with a fresh set-up probe before the first and
some later ones, and reports means of ``wall_s``, ``cpu_s``,
``peak_rss_mb`` (all from ``os.wait4`` on the child) and ``setup_s``.  ``--trace 1`` runs the CLI once untraced, then
repeats a traced in-process pass (``tracing.py``) for ``--seconds``
seconds and reports the per-layer metrics.

Every child's exit code and stdout sha256 are checked against
``expected.json``; a mismatch or crash counts as failed and the run goes
on.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when
every check passed, 1 when one failed, and 2 when the benchmark cannot
run at all (for instance without ``src/classprod``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Lower bound on measured iterations per run, whatever ``--seconds`` says.
MIN_ITERATIONS = 3
#: No iteration or traced pass starts once the run would pass this mark.
RUN_BUDGET_S = 150.0
#: Largest share of a run's time that set-up probes may take.
PROBE_SHARE = 0.25
#: A child still running after this long is killed and counts as failed.
CHILD_TIMEOUT_S = 120.0

#: Per-layer counts that must repeat exactly from pass to pass.
EXACT_COUNTS = ("groups.mul_calls", "classes.class_count", "verify.pairs",
                "verify.mul_per_pair")


@dataclass
class ChildRun:
    """One finished child process, measured by the parent."""

    exit_code: int
    start_ns: int  # CLOCK_MONOTONIC at launch
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], env: dict, cwd: str, work_dir: str,
              timeout_s: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run one process to completion and measure it.

    The child gets its own session, so on timeout it and any workers it
    started are killed together.  CPU time and peak RSS come from
    ``os.wait4`` and include the workers the child reaped.
    """
    with tempfile.TemporaryFile(dir=work_dir) as out, \
            tempfile.TemporaryFile(dir=work_dir) as err:
        start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(timeout_s, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (say, by SIGTERM): take the child down with us.
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
        wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        # Nothing the child started may outlive it.
        _kill_group(proc.pid)
        out.seek(0)
        err.seek(0)
        return ChildRun(proc.returncode, start_ns, wall_s,
                        usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024, out.read(), err.read())


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def calibrate() -> float:
    """Seconds for a fixed pure-stdlib loop; tracks the machine's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def _parse_jsonl(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.decode().splitlines() if line]


class Checker:
    """Counts attempted and failed children against the pinned values."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def _record(self, ok: bool, what: str, run: ChildRun) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            tail = run.stderr.decode(errors="replace").strip()[-400:]
            print(f"FAILED {what}: exit={run.exit_code} {tail}",
                  file=sys.stderr)
        return ok

    def cli(self, run: ChildRun) -> bool:
        ok = (run.exit_code == self.expected["exit_code"]
              and hashlib.sha256(run.stdout).hexdigest()
              == self.expected["stdout_sha256"])
        return self._record(ok, "cli run", run)

    def probe(self, run: ChildRun) -> bool:
        ok = run.exit_code == 0
        if ok:
            try:
                ok = (json.loads(run.stdout)["orders"]
                      == self.expected["orders"])
            except (ValueError, KeyError):
                ok = False
        return self._record(ok, "set-up probe", run)


def measure_end_to_end(workload, env, work_dir, checker, seconds):
    """Run the CLI for ``seconds`` seconds, with set-up probes between.

    A probe precedes the first CLI run, and then any CLI run while probes
    have taken at most ``PROBE_SHARE`` of the time so far.  A probe that
    costs as much as the command itself (a large table load) thus runs
    every fourth time or so, and leaves room for more CLI runs.
    """
    cli_argv = [sys.executable, "-m", "classprod", *workload.cli_args]
    probe_argv = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
                  workload.name, ROOT]
    runs, setups = [], []
    begin = time.perf_counter()
    longest = 0.0
    probing_s = 0.0
    while True:
        elapsed = time.perf_counter() - begin
        if len(runs) >= MIN_ITERATIONS and elapsed >= seconds:
            break
        if runs and elapsed + 1.5 * longest > RUN_BUDGET_S:
            break
        t0 = time.perf_counter()
        if probing_s <= PROBE_SHARE * elapsed:
            probe = run_child(probe_argv, env, ROOT, work_dir)
            probing_s += time.perf_counter() - t0
            ok = checker.probe(probe)
            setup_s = ((json.loads(probe.stdout)["done_ns"] - probe.start_ns)
                       / 1e9 if ok else probe.wall_s)
            setups.append({"ok": ok, "setup_s": setup_s})
        run = run_child(cli_argv, env, ROOT, work_dir)
        runs.append({"ok": checker.cli(run), "exit_code": run.exit_code,
                     "wall_s": run.wall_s, "cpu_s": run.cpu_s,
                     "peak_rss_mb": run.peak_rss_mb})
        longest = max(longest, time.perf_counter() - t0)
    # Means over the children that passed their checks, if any did.  The
    # machine's speed switches state every few seconds; a mean weighs the
    # states by time spent in them, where a median jumps between them.
    good = [r for r in runs if r["ok"]] or runs
    metrics = {name: statistics.fmean(r[name] for r in good)
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    good = [p for p in setups if p["ok"]] or setups
    metrics["setup_s"] = statistics.fmean(p["setup_s"] for p in good)
    return metrics, {"runs": runs, "setups": setups}


def measure_traced(workload, env, work_dir, checker, seconds, seed,
                   calib_s):
    """One untraced CLI run, then traced passes for ``seconds`` seconds."""
    import tracing

    begin = time.perf_counter()
    run = run_child([sys.executable, "-m", "classprod", *workload.cli_args],
                    env, ROOT, work_dir)
    shown = {}
    if checker.cli(run):
        shown = workload.report_counts(_parse_jsonl(run.stdout))
    pinned = {k: checker.expected[k]
              for k in ("verify.pairs", "classes.class_count")}
    tracer = tracing.Tracer()
    passes = []
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - begin
        if passes and (elapsed >= seconds
                       or elapsed + 1.5 * longest > RUN_BUDGET_S):
            break
        t0 = time.perf_counter()
        tracer.trace = len(passes)
        checker.attempted += 1
        try:
            metrics, cpu_s = tracing.traced_pass(workload, ROOT, seed, tracer)
        except Exception:
            # The program under test raised; record it and stop tracing.
            checker.failed += 1
            traceback.print_exc()
            break
        metrics["bench.trace_overhead"] = cpu_s / run.cpu_s
        passes.append(metrics)
        longest = max(longest, time.perf_counter() - t0)
        # The traced pass must certify what the report and the pins say.
        mismatched = [name for want in (pinned, shown)
                      for name, value in want.items()
                      if metrics[name] != value]
        mismatched += [name for name in EXACT_COUNTS
                       if metrics[name] != passes[0][name]]
        if mismatched:
            checker.failed += 1
            print(f"FAILED traced pass {len(passes)}: {mismatched}",
                  file=sys.stderr)
    # Exact counts are equal in every pass (checked above); times vary.
    metrics = {name: value if name in EXACT_COUNTS
               else statistics.median(p[name] for p in passes)
               for name, value in (passes[0] if passes else {}).items()}
    metrics["cli.pool_busy_frac"] = run.cpu_s / (workload.jobs * run.wall_s)
    metrics["bench.calib_s"] = calib_s
    return metrics, {"passes": passes, "cli_run": {
        "exit_code": run.exit_code, "wall_s": run.wall_s,
        "cpu_s": run.cpu_s, "peak_rss_mb": run.peak_rss_mb}}, tracer


def metric_units() -> dict[str, str]:
    """Every metric's unit, as ``BENCHMARK.json`` declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run_one(workload, expected: dict, seed: int, seconds: int,
            trace: int) -> dict:
    """Measure one workload in one mode; print and save its result."""
    from workloads import RUN_DIR, WORK_DIR

    units = metric_units()
    work_dir = os.path.join(ROOT, WORK_DIR)
    out_dir = os.path.join(ROOT, RUN_DIR, "out")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC)

    calib_s = statistics.median(calibrate() for _ in range(3))
    workload.write_inputs(ROOT, seed)
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "bench.calib_s": calib_s}
    print(f"workload {workload.name} seed={seed} trace={trace}")
    print("machine " + json.dumps(facts, sort_keys=True))

    checker = Checker(expected)
    stem = f"{workload.name}-seed{seed}-trace{trace}"
    if trace:
        metrics, detail, tracer = measure_traced(
            workload, env, work_dir, checker, seconds, seed, calib_s)
        with open(os.path.join(out_dir, f"spans-{stem}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": workload.name, "seed": seed,
                       "spans": tracer.records()}, fh)
    else:
        metrics, detail = measure_end_to_end(workload, env, work_dir,
                                             checker, seconds)
    fail_frac = checker.failed / checker.attempted
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(f"fail_frac {fail_frac:.6g} ratio ({checker.failed} of "
          f"{checker.attempted} checks failed)")

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "workload": workload.name, "seed": seed,
                   "seconds": seconds, "machine": facts,
                   "fail_frac": fail_frac, "detail": detail}, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload "
                             "in both modes")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "classprod", "__init__.py")):
        print(f"error: no classprod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected 'all' or "
              f"one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(BENCH_DIR, "expected.json"),
              encoding="utf-8") as fh:
        expected = json.load(fh)

    if args.workload != "all":
        result = run_one(WORKLOADS[args.workload], expected[args.workload],
                         args.seed, args.seconds, args.trace)
    else:
        # Every workload in both modes; metrics are keyed workload/metric.
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name, workload in WORKLOADS.items():
            for trace in (0, 1):
                one = run_one(workload, expected[name], args.seed,
                              args.seconds, trace)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                result["metrics"].update(
                    (f"{name}/{k}", v) for k, v in one["metrics"].items())
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
