"""Benchmark of the hsbasis library and its command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one after another
    python3 perfbench/run.py --sweep                      # layer x d scaling grid, not gated

Workloads (one client, closed loop, kinds in equal shares by whole cycles):

- ``catalogue``: a fresh Haar-rotated basis at d = 4, 6, 8, then
  ``validate_basis`` and ``run_catalogue``. Stresses ``identities``.
- ``maps``: one two-party operand at d = 4, 6, 8 through the pt,
  reshuffle, Choi, inversion, Bloch/change-of-basis and concurrence sums.
  Stresses ``maps``; ``identities`` is not called.
- ``cli``: one ``hsbasis`` subprocess per operation, fifteen kinds
  including two file-heavy ones and three negative controls that must
  exit 1 or 2. Stresses start-up, argument parsing and ``fileio``.

With ``--trace 0`` the last line carries the end-to-end metrics, always
from an untraced pass: ``ops_per_s`` (operations / summed operation
time), ``latency_p50_ms``, ``latency_p90_ms`` (the run holds at least 100
operations, so p90 has ten samples beyond it), ``setup_s`` (median over
seven fresh interpreters of spawn -> import -> inputs ready) and
``peak_rss_mb`` (the workload's child process; for ``cli`` the largest
``hsbasis`` subprocess). ``failed_ratio`` is printed on the table above
it; in the last line it is ``failed`` / ``attempted``.

With ``--trace 1`` an untraced and a traced pass each run half the time,
and the last line carries the per-layer metrics: per-call medians and
self-time shares of the spans the benchmark wraps around each module's
public functions, identity headroom (residual / tolerance), computed file
bytes, CLI start-up and per-subcommand times, and
``trace.overhead_ratio`` (traced / untraced ``ops_per_s``). A layer that
the workload never calls reports 0. Spans are written to
``.perfbench_out/spans-<workload>-seed<seed>.json``.

The launcher pins BLAS to one thread (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``); every child and every ``hsbasis``
subprocess inherits it. An environment record is printed before the result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("catalogue", "maps", "cli")
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 170
UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, HERE)
from spans import median, percentile  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONPATH=SRC)
    return env


def spawn(argv: list[str], timeout: float) -> tuple[float, dict]:
    """Run a child; return the monotonic time at spawn and its last stdout line as JSON."""
    t0 = time.monotonic()
    # own process group, so that a timeout also ends the hsbasis subprocesses of a cli worker
    with subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, start_new_session=True
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited with {proc.returncode}")
    return t0, json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, environment record)."""
    argv = [os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []

    def setup_probes(n):
        for _ in range(n):
            t0, probe = spawn(argv + ["--setup-only"], CHILD_TIMEOUT_S)
            setups.append(probe["setup_end"] - t0)

    # probes before and after the measured child, so that set-up is sampled
    # at both ends of the run rather than in one moment of the host's load
    probes = 0 if trace else SETUP_RUNS - 1
    setup_probes(probes // 2)
    t0, doc = spawn(argv + ["--trace", str(trace)], CHILD_TIMEOUT_S)
    setups.append(doc["setup_end"] - t0)
    setup_probes(probes - probes // 2)
    result = {"correct": doc["failed"] == 0, "attempted": doc["attempted"], "failed": doc["failed"]}
    if trace:
        result["metrics"] = doc["layers"]
    else:
        lat = doc["latencies_s"]
        values = {
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": percentile(lat, 0.5) * 1e3,
            "latency_p90_ms": percentile(lat, 0.9) * 1e3,
            "setup_s": median(setups),
            "peak_rss_mb": doc["peak_rss_kb"] / 1024,
        }
        result["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        doc["env"]["samples"] = len(lat)
    doc["env"]["workload"] = workload
    return result, doc["env"]


def print_table(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['attempted']} operations, {result['failed']} failed")
    print(f"   {'failed_ratio':<44} {result['failed'] / result['attempted']:>14.6g} ratio")
    for name, m in result["metrics"].items():
        print(f"   {name:<44} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--confirm-seed", type=int, default=None,
        help="repeat every workload with this second seed and report it beside the first",
    )
    p.add_argument("--sweep", action="store_true", help="run the layer x d scaling sweep instead")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hsbasis", "__init__.py")):
        sys.stderr.write(f"perfbench: no hsbasis package under {SRC}\n")
        return 2
    if args.sweep:
        return subprocess.run([sys.executable, os.path.join(HERE, "sweep.py")], cwd=ROOT, env=child_env()).returncode

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    seeds = [args.seed] + ([args.confirm_seed] if args.confirm_seed is not None else [])
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for seed in seeds:
            for workload in workloads:
                result, env = run_workload(workload, seed, args.seconds, args.trace)
                print("env " + json.dumps(env))
                print_table(f"{workload} seed {seed}", result)
                final["correct"] &= result["correct"]
                final["attempted"] += result["attempted"]
                final["failed"] += result["failed"]
                if seed == args.seed:
                    prefix = "" if len(workloads) == 1 else workload + "."
                    for name, m in result["metrics"].items():
                        final["metrics"][prefix + name] = m
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
