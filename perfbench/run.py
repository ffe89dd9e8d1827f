"""towertop benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Load is a closed loop with one client: jobs run one at a
time, in one process, and the CLI workload starts one child process at
a time.

Set-up (imports plus input generation) is timed in fresh child
processes, several times, and reported as the median.  The timed phase
then repeats the workload's fixed job list in rounds, at least three,
until the next round would overrun ``--seconds``, and reports from each
job's median time; every answer is checked after its round, outside the
timing.

Every end-to-end time is taken at the reference host speed: a fixed
gauge of the benchmark's own code runs before and after each job and
each set-up process, and a time measured between two gauge readings is
scaled by the gauge's reference reading over their mean.  A slower host
stretches the job and the gauge alike, so the ratio holds while raw
times drift; the raw times are printed and recorded beside the scaled
ones.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs one untraced round and one traced round and
reports the per-layer metrics from the traced one, plus the gap between
the two as the tracing overhead.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
a wrong answer, an exception or a failed child exits with status 1.
Results and spans are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from random import Random

from spans import CALL_LAYERS, COUNTERS, TIME_LAYERS, Tracer, merge_into, per_layer_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150
GAUGE_ROWS = [[(7 * i + 3 * j) % 7 - 3 for j in range(60)] for i in range(20)]
GAUGE_PASSES = 3
GAUGE_REFERENCE_S = 0.0015
STARTUP_GAUGE = [sys.executable, "-c", "import argparse, decimal, email.message, fractions, inspect, json, logging"]
STARTUP_REFERENCE_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def setup(workload: str, seed: int, size: str, docs: str):
    """Imports plus input generation: the jobs of one workload."""
    import workloads

    rng = Random(seed)
    if workload == "cli-samples":
        return workloads.cli_jobs(rng, docs, size)
    return workloads.library_jobs(workload, rng, size)


def compute_gauge() -> tuple:
    """(wall, CPU) seconds of the fastest of a few fixed passes of row operations.

    The gauge is the benchmark's own code, never towertop's: integer row
    operations of the kind towertop's eliminations are made of.  The
    fastest pass drops an interrupt caught in one.  Garbage collection is
    held off so that a job's garbage is not collected on the gauge's time.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(GAUGE_PASSES):
            t0, c0 = time.perf_counter(), time.process_time()
            a = [row[:] for row in GAUGE_ROWS]
            for i in range(1, len(a)):
                for j in range(i):
                    q = a[i][j] - a[j][i]
                    a[i] = [x + q * y for x, y in zip(a[i], a[j])]
                    a[i] = [x % 1000003 for x in a[i]]
            reading = (time.perf_counter() - t0, time.process_time() - c0)
            best = reading if best is None or reading[0] < best[0] else best
        return best
    finally:
        if collecting:
            gc.enable()


def startup_gauge(scratch: str) -> tuple:
    """(wall, CPU) seconds of a fresh interpreter importing fixed standard modules."""
    start = time.perf_counter()
    out, usage = run_child(STARTUP_GAUGE, os.environ, scratch)
    if isinstance(out, Failure):
        raise RuntimeError(f"start-up gauge failed: {out.message}")
    return time.perf_counter() - start, usage.ru_utime + usage.ru_stime


def gauge_for(child: bool, scratch: str):
    """(read, reference): the gauge that tracks a kind of work, and its reading at the reference speed.

    Work in this process follows the compute gauge.  A child process
    spends most of its time starting and importing, which a slow host
    stretches less than it stretches arithmetic; it follows the start-up
    gauge.
    """
    if child:
        return (lambda: startup_gauge(scratch)), STARTUP_REFERENCE_S
    return compute_gauge, GAUGE_REFERENCE_S


def at_reference_speed(seconds: float, before: float, after: float, reference: float) -> float:
    """``seconds`` measured between two gauge readings, at the reference speed.

    The reference host reads ``reference`` on the gauge.
    """
    return seconds * reference / ((before + after) / 2)


def timed_setup(args, scratch: str) -> tuple:
    """Median time of fresh processes that only do the set-up: (normalised, raw)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    read, reference = gauge_for(True, scratch)
    times, raw = [], []
    before = read()[0]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        out, _ = run_child(cmd, os.environ, scratch)
        raw.append(time.perf_counter() - start)
        after = read()[0]
        times.append(at_reference_speed(raw[-1], before, after, reference))
        before = after
        if isinstance(out, Failure):
            raise RuntimeError(f"set-up failed: {out.message}")
    return statistics.median(times), statistics.median(raw)


class Failure:
    def __init__(self, message: str):
        self.message = message

    def __repr__(self) -> str:
        return f"Failure({self.message!r})"


def run_child(argv, env, scratch: str):
    """Run one command; returns (stdout or Failure, child rusage).

    The child is reaped with a blocking wait4: a wait with a timeout
    polls, and its sleeps would round every time up to tens of ms.
    """
    with tempfile.TemporaryFile(dir=scratch) as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read().decode("utf-8", "replace")
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        if proc.returncode != 0:
            err.seek(0)
            tail = err.read().decode("utf-8", "replace").strip().splitlines()[-1:]
            return Failure(f"exit {proc.returncode}: {' '.join(tail)}"), usage
    return out, usage


class Round:
    """One pass over the job list: per-job times and answers.

    The gauge runs before the first job and after every job.  ``times``
    and ``cpu_times`` are each job's wall and CPU time at the reference
    speed, scaled by the mean of the gauge readings on either side of
    it; ``raw_times`` and ``raw_cpu_times`` are as measured.  A
    workload's jobs are all CLI commands or all library calls, so one
    gauge serves the round.
    """

    def __init__(self, jobs, scratch: str, tracer=None):
        self.times, self.cpu_times, self.raw_times, self.raw_cpu_times = [], [], [], []
        self.answers, self.child_rss_kb, self.slowdowns = [], [], []
        env = dict(os.environ, PYTHONPATH=SRC)
        read, reference = gauge_for(bool(jobs[0].argv), scratch)
        start = time.perf_counter()
        before = read()
        for index, job in enumerate(jobs):
            t0, c0 = time.perf_counter(), time.process_time()
            if job.argv:
                spans_path = os.path.join(scratch, f"child-{index}.json")
                if tracer is None:
                    cmd = [sys.executable, "-m", "towertop.cli", *job.argv]
                else:
                    cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), spans_path, *job.argv]
                answer, usage = run_child(cmd, env, scratch)
                child_cpu = usage.ru_utime + usage.ru_stime
                self.child_rss_kb.append(usage.ru_maxrss)
            else:
                child_cpu = 0.0
                try:
                    if tracer is None:
                        answer = job.run()
                    else:
                        with tracer.job(index):
                            answer = job.run()
                except Exception as e:  # a job that raises counts as failed
                    answer = Failure(f"{type(e).__name__}: {e}")
            self.raw_times.append(time.perf_counter() - t0)
            self.raw_cpu_times.append(time.process_time() - c0 + child_cpu)
            after = read()
            self.times.append(at_reference_speed(self.raw_times[-1], before[0], after[0], reference))
            self.cpu_times.append(at_reference_speed(self.raw_cpu_times[-1], before[1], after[1], reference))
            self.slowdowns.append(after[0] / reference)
            before = after
            self.answers.append(answer)
            if job.argv and tracer is not None and not isinstance(answer, Failure):
                with open(spans_path, encoding="utf-8") as fh:
                    data = json.load(fh)
                os.remove(spans_path)
                tracer.import_times.append(data["import_s"])
                merge_into(tracer, data, index)
        self.wall = time.perf_counter() - start

    def failures(self, jobs) -> list:
        out = []
        for job, answer in zip(jobs, self.answers):
            problem = answer.message if isinstance(answer, Failure) else job.check(answer)
            if problem is not None:
                out.append(f"{job.name}: {problem}")
        return out


def job_medians(rounds, attr: str) -> list:
    return [statistics.median(ts) for ts in zip(*(getattr(r, attr) for r in rounds))]


def timings(rounds, wall: str, cpu: str) -> dict:
    """Sums and percentiles of each job's median over the rounds."""
    per_job = job_medians(rounds, wall)
    return {
        "wall_s": sum(per_job),
        "cpu_s": sum(job_medians(rounds, cpu)),
        "job_p50_ms": 1000 * statistics.median(per_job),
        "job_p90_ms": 1000 * statistics.quantiles(per_job, n=10, method="inclusive")[8],
    }


def end_to_end(rounds, setup_s: float) -> dict:
    """Wall and CPU time of the job list and percentiles of single jobs.

    On a shared host the speed can swing by 1.5x, in wall and CPU time
    alike, for seconds to minutes at a time, as co-tenants contend for
    cores and caches.  A swing that lasts a whole run moves every raw
    time in it, so the times are taken at the reference speed: each job's
    time is scaled by the gauge run beside it.  Rounds are short, so every
    job runs several times spread over the run, and the median of its
    times is steady against a gauge reading or a job caught mid-swing.
    """
    child_rss = [kb for r in rounds for kb in r.child_rss_kb]
    peak_kb = max(child_rss) if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        **timings(rounds, "times", "cpu_times"),
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer(tracer, traced, untraced) -> dict:
    self_s, unattributed = tracer.layer_times()
    counters = tracer.counters()
    metrics = {
        "cli.import_s": statistics.median(tracer.import_times) if tracer.import_times else 0.0
    }
    metrics.update({f"{layer}.self_s": self_s.get(layer, 0.0) for layer in TIME_LAYERS})
    metrics.update({f"{layer}.calls": counters.get(f"{layer}.calls", 0) for layer in CALL_LAYERS})
    metrics.update({name: counters.get(name, 0) for name in COUNTERS})
    calls = counters.get("abelian.smith.calls", 0)
    metrics["abelian.smith.useful_ratio"] = metrics["abelian.smith.distinct"] / calls if calls else 1.0
    metrics["unattributed_s"] = unattributed
    metrics["trace.overhead_s"] = traced.wall - untraced.wall
    metrics["trace.spans"] = len(tracer.spans)
    metrics["host.slowdown"] = statistics.median(untraced.slowdowns + traced.slowdowns)
    return metrics


def measure(args, jobs, scratch: str):
    """Rounds, then metrics: (metrics, units, attempted, failures, extra record fields)."""
    rounds, failures = [], []
    begin = time.perf_counter()
    while True:
        rounds.append(Round(jobs, scratch))
        failures += rounds[-1].failures(jobs)
        elapsed = time.perf_counter() - begin
        if args.trace or (len(rounds) >= MIN_ROUNDS and elapsed + rounds[-1].wall > args.seconds):
            break
    attempted = len(jobs) * len(rounds)
    job_ms = {job.name: 1000 * t for job, t in zip(jobs, job_medians(rounds, "times"))}
    if not args.trace:
        raw = timings(rounds, "raw_times", "raw_cpu_times")
        extra = {
            "rounds": len(rounds),
            "raw": {"setup_s": args.raw_setup_s, **raw},
            "slowdown": statistics.median(g for r in rounds for g in r.slowdowns),
            "job_ms": job_ms,
        }
        return end_to_end(rounds, args.setup_s), END_TO_END, attempted, failures, extra
    tracer = Tracer()
    with tracer.installed():
        traced = Round(jobs, scratch, tracer)
    failures += traced.failures(jobs)
    tracer.write(
        os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"),
        {"workload": args.workload, "seed": args.seed, "jobs": [j.name for j in jobs]},
    )
    metrics = per_layer(tracer, traced, rounds[0])
    extra = {"untraced_wall_s": rounds[0].wall, "traced_wall_s": traced.wall, "job_ms": job_ms}
    return metrics, per_layer_units(), attempted + len(jobs), failures, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "towertop", "__init__.py")):
        print(f"error: no towertop package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    # a stop request unwinds like an error, so children are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the gauge, the jobs and every child share one CPU, and so its speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.probe_setup:
            setup(args.workload, args.seed, args.size, scratch)
            return 0
        args.setup_s, args.raw_setup_s = timed_setup(args, scratch)
        jobs = setup(args.workload, args.seed, args.size, scratch)
        metrics, units, attempted, failures, extra = measure(args, jobs, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "jobs": len(jobs),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures[:20],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        **extra,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in failures[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    print(f"jobs {len(jobs)} attempted {attempted} failed {failed} failed_ratio {failed / attempted:g}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for name, value in extra.get("raw", {}).items():
        print(f"raw {name} {value:.6g}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
