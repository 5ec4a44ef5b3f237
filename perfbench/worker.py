"""Run one workload in this process and print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--setup-only]

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src``.  The worker sets up (catalogs, panels, the workload's inputs), then
runs passes over the workload's tasks in a closed loop with one client: it
starts another pass only while that pass is expected to end within
``--seconds``, and always runs at least one.  With ``--trace 1`` it runs one
paired pass instead, every task once untraced and once traced.

A shared host changes speed by a third within seconds, in and between
runs.  So the worker times a fixed pure-Python loop (``reference``) before
and after every task and, from a timer signal, every ``SAMPLE_EVERY_S``
inside a task and inside set-up.  It reports each time scaled to a host on
which that loop takes ``REF_S``: ``seconds * REF_S / t``, where ``seconds``
leaves out the loops taken inside and ``t`` is the median of those loops
and of the three before and the three after.  The loop does not touch
``smg``, so a slower program still reads slower; only the host's speed is
taken out.  ``run.py`` prints the unscaled pass time too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: iterations of the reference loop, and the time the scaled figures assume
#: it takes: it took 3.5 to 6 ms on a shared 2-vCPU Xeon at 2.0 GHz
REF_LOOPS = 50_000
REF_S = 0.005
SAMPLE_EVERY_S = 0.5


def reference() -> float:
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


class Sampler:
    """Times the reference loop every ``SAMPLE_EVERY_S`` of wall time while
    armed, from ``SIGALRM``, so that a long task or set-up gets samples of
    the host's speed from within it."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []     # (start, seconds)

    def _tick(self, signum, frame) -> None:
        self.samples.append((time.perf_counter(), reference()))

    @contextlib.contextmanager
    def armed(self):
        self.samples = []
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def before(self, end: float) -> list[float]:
        """The loops that started before ``end``."""
        return [seconds for start, seconds in self.samples if start < end]


def _run_task(task, state: dict, sampler: Sampler | None = None
              ) -> tuple[float, list[float], tuple | None]:
    """Latency of one task less the reference loops taken inside it, those
    loops, and, if the task failed, ``(kind, message)``."""
    from workloads import OutOfBudget, WrongAnswer

    error = None
    t0 = time.perf_counter()
    with sampler.armed() if sampler else contextlib.nullcontext():
        try:
            task(state)
        except WrongAnswer as exc:
            error = ("wrong", str(exc))
        except OutOfBudget as exc:
            error = ("budget", str(exc))
        except Exception as exc:    # the program failed; keep measuring
            error = ("raised", f"{type(exc).__name__}: {exc}"[:200])
        t1 = time.perf_counter()
    inside = sampler.before(t1) if sampler else []
    return t1 - t0 - sum(inside), inside, error


def run_passes(workload, seconds: float) -> dict:
    """Time whole passes until the next is expected to end after
    ``seconds``; at least one runs.  Latencies are scaled to the reference
    speed (see the module docstring), and a pass's wall time is the sum of
    its scaled latencies.  A failed task counts as taking its whole pass."""
    latencies: list[list[float]] = []    # per pass, per task run, scaled
    failures: list[tuple[str, str, str]] = []
    walls: list[float] = []
    raw_walls: list[float] = []          # unscaled, reference loops included
    refs: list[float] = []
    sampler = Sampler()
    start = time.perf_counter()
    while True:
        state = workload.new_state()
        runs: list[tuple[float, list[float]]] = []
        failed = []
        t_pass = time.perf_counter()
        around = [reference()]           # the loop before each task and after the last
        for name, task in workload.tasks:
            latency, inside, error = _run_task(task, state, sampler)
            around.append(reference())
            if error:
                failed.append((len(runs), name, *error))
            runs.append((latency, inside))
        raw_walls.append(time.perf_counter() - t_pass)
        refs += around
        # the median smooths the loop's own jitter of about 5 %
        lat = [latency * REF_S / statistics.median(around[max(0, i - 2):i + 4] + inside)
               for i, (latency, inside) in enumerate(runs)]
        walls.append(sum(lat))
        for i, name, kind, message in failed:
            lat[i] = walls[-1]
            failures.append((name, kind, message))
        latencies.append(lat)
        if time.perf_counter() - start + statistics.median(raw_walls) > seconds:
            break
    return {"walls": walls, "raw_walls": raw_walls, "refs": refs,
            "latencies": latencies, "failures": failures}


def paired_pass(workload, recorder) -> dict:
    """One pass in which every task runs twice, untraced and traced, each
    side in its own state, the side that runs first alternating from task
    to task, so that the two sides meet the same warmth and about the same
    speed of the host.

    The tracing overhead is the untraced time times the median over tasks
    of traced / untraced latency, less the untraced time.  The plain
    difference of the two sums is set by the longest task, whose two runs
    meet the host at different speeds: it read -1.9 s on ``search``."""
    states = {False: workload.new_state(), True: workload.new_state()}
    untraced_s = 0.0
    ratios = []
    failures: list[tuple[str, str, str]] = []
    for i, (name, task) in enumerate(workload.tasks):
        latency = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                recorder.task = name
                recorder.install()
            try:
                latency[traced], _, error = _run_task(task, states[traced])
            finally:
                if traced:
                    recorder.uninstall()
            if error:
                failures.append((name, *error))
        untraced_s += latency[False]
        ratios.append(latency[True] / latency[False])
    return {"overhead_s": untraced_s * (statistics.median(ratios) - 1), "failures": failures}


def summary(passes: dict) -> dict:
    """Timings of every pass, the first included, so that which passes are
    timed does not depend on how many fit in ``--seconds``.  Every run of a
    task is one latency sample; the percentiles are taken within each pass
    and their median over the passes is reported, so that the percentile
    used does not move with the number of passes either."""
    p50s, tails = [], []
    for lat in passes["latencies"]:
        samples = sorted(lat)
        n = len(samples)
        p50s.append(statistics.median(samples))
        if n > 10:
            # the highest percentile with at least ten samples beyond it
            tails.append(samples[n - 11])
    out = {
        "wall_s": statistics.median(passes["walls"]),
        "raw_wall_s": statistics.median(passes["raw_walls"]),
        "ref_s": statistics.median(passes["refs"]),
        "task_p50_s": statistics.median(p50s),
        "attempted": sum(len(lat) for lat in passes["latencies"]),
        "failed": len(passes["failures"]),
        "wrong": sum(kind == "wrong" for _, kind, _ in passes["failures"]),
        "passes": len(passes["walls"]),
        "tasks": n,
        "failures": sorted({f"{name} ({kind}: {msg})"
                            for name, kind, msg in passes["failures"]}),
    }
    if tails:
        out["task_tail_s"] = statistics.median(tails)
        out["tail_percentile"] = 100.0 * (n - 10) / n
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["search", "sweep", "scale"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # set-up is scaled like a task: by the loops before it, inside it and after it
    first = reference()
    sampler = Sampler()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        with sampler.armed():
            import smg
            if not os.path.abspath(smg.__file__).startswith(os.path.join(ROOT, "src", "")):
                print(f"smg imported from {smg.__file__}, not from this checkout",
                      file=sys.stderr)
                return 1
            import spans
            import workloads

            workloads.set_up()
            workload = workloads.build(args.workload, args.seed, workdir)
            ready = time.monotonic()
            t_ready = time.perf_counter()
        inside = sampler.before(t_ready)
        setup = {"ready": ready, "setup_loops_s": first + sum(inside),
                 "setup_scale": REF_S / statistics.median([first, *inside, reference()])}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        if args.trace:
            recorder = spans.Recorder()
            paired = paired_pass(workload, recorder)
            layers = recorder.layer_metrics()
            layers["trace.overhead_s"] = paired["overhead_s"]
            layers["trace.spans"] = len(recorder.spans)
            failures = paired["failures"]
            result = {
                "layers": layers,
                "traced": sorted(recorder.names),
                "attempted": 2 * len(workload.tasks),
                "failed": len(failures),
                "wrong": sum(kind == "wrong" for _, kind, _ in failures),
                "passes": 1,
                "tasks": len(workload.tasks),
                "failures": sorted({f"{name} ({kind}: {msg})"
                                    for name, kind, msg in failures}),
            }
        else:
            result = summary(run_passes(workload, args.seconds))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(setup)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


if __name__ == "__main__":
    sys.exit(main())
