"""Benchmark entry point: one workload per call, metrics as JSON.

    python3 perfbench/run.py --workload search|sweep|scale --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; ``smg`` is imported from its ``src``.  The
workload runs in a subprocess (``worker.py``) so that set-up and memory are
its own.  Set-up is timed from spawning a process to the moment its inputs
are ready; besides the measured process, ``SETUP_SAMPLES - 1`` processes
only set up, one after another, and ``setup_s`` is the median.  A traced run
reports no set-up time and starts only the measured process.  Every time
metric is scaled to a reference speed of the host (see ``worker.py``).

The last line of standard output is the result: ``correct`` is false when
the program gave a wrong answer; ``failed`` also counts tasks that raised or
ran out of search budget.  With ``--trace 0`` the metrics are the
``end_to_end`` ones of BENCHMARK.json, with ``--trace 1`` the ``per_layer``
ones.  Lines before it name the failed tasks and the tail percentile.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3
DEADLINE_S = 170


def _worker(args, deadline: float, setup_only: bool) -> tuple[dict, float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    # less the reference loops the worker ran during set-up, scaled to the
    # reference speed like every other time (see worker.py)
    return data, (data["ready"] - spawned - data["setup_loops_s"]) * data["setup_scale"]


def _traced(metric: str, traced: list[str]) -> bool:
    """Whether the function or module a per-layer metric is about was
    wrapped by the span recorder (``trace.*`` are the recorder's own)."""
    if metric.startswith("trace."):
        return True
    key = metric.rsplit(".", 1)[0]
    if key.endswith(".all"):
        return any(name.startswith(key[:-3]) for name in traced)
    return key in traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [_worker(args, deadline, True)[1]
                  for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        result, setup = _worker(args, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    values = dict(result)
    values["setup_s"] = statistics.median(setups)
    values["ok_frac"] = 1 - result["failed"] / result["attempted"]
    values.update(result.get("layers", {}))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        # a layer the workload never calls reads 0; one that is not traced
        # at all (renamed or moved) must not
        missing = [m["name"] for m in wanted if not _traced(m["name"], result["traced"])]
    else:
        missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1

    tail = f", tail at p{result['tail_percentile']:.1f}" if "tail_percentile" in result else ""
    print(f"{args.workload}: {result['tasks']} task runs x {result['passes']} passes{tail}, "
          f"{result['failed']} of {result['attempted']} attempts failed")
    if "raw_wall_s" in result:
        print(f"unscaled pass wall {result['raw_wall_s']:.3f} s, reference loop "
              f"median {1000 * result['ref_s']:.3f} ms")
    for line in result["failures"]:
        print(f"failed: {line}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
