"""One workload in a fresh interpreter; started by run.py, never by hand.

Prints one JSON line. With ``--setup-only`` it stops at the end of set-up
and reports only the monotonic clock reading at that point, which the
launcher subtracts from its own reading at spawn to get ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import numpy as np

import hsbasis
from spans import OP_SPAN, Recorder, median, min_samples, self_times, untraced
from workloads import IDENTITY_IDS, WORKLOADS, Cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
CLI_SUBCOMMANDS = ("build", "verify", "transform", "map", "choi", "concurrence", "decompose")
TIMED_LAYERS = (
    "bases.build",
    "bases.validate_basis",
    "transforms.change_of_basis",
    "operators.expansion",
    "maps.partial_transpose_map",
    "maps.reshuffle_map",
    "maps.choi_roundtrip",
    "maps.state_inversion",
    "maps.concurrence_squared",
    "maps.bloch_decompose",
)
STARTUP_PROBES = 10


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for layer in TIMED_LAYERS:
        units[layer + ".ms_p50"] = "ms"
        units[layer + ".share"] = "ratio"
    units["identities.run_catalogue.share"] = "ratio"
    units["identities.span_sum_gap"] = "ratio"
    for ident in IDENTITY_IDS:
        units[f"identities.{ident}.ms_p50"] = "ms"
    for ident in IDENTITY_IDS:
        units[f"identities.{ident}.headroom"] = "ratio"
    units["fileio.load.ms_p50"] = "ms"
    units["fileio.save.ms_p50"] = "ms"
    units["fileio.bytes_read_per_op"] = "B_computed"
    units["fileio.bytes_written_per_op"] = "B_computed"
    units["cli.startup.ms_p50"] = "ms"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.ms_p50"] = "ms"
    units["cli.inprocess_share"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Pass:
    """Outcome of one closed-loop pass: latencies, failures, repeated inputs."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.indices: list[int] = []
        self.failed = 0
        self.repeats = 0

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def run_pass(wl, first: int, seconds: float, min_ops: int, seen: set, rec: Recorder | None = None, after=None) -> Pass:
    """Run whole cycles of operations until ``seconds`` and ``min_ops`` are both reached.

    One client, closed loop: each operation starts when the previous one
    and its oracle check are done. Only the library calls are timed. An
    operation whose call raises or whose output fails its oracle (or the
    ``after`` hook of the traced pass) is counted as failed, never retried.
    """
    res = Pass()
    start = time.perf_counter()
    i = first
    while True:
        for _ in range(wl.cycle):
            inp = wl.make_input(i)
            key = wl.key(inp)
            res.repeats += key in seen
            seen.add(key)
            ok = True
            t0 = time.perf_counter()
            try:
                if rec is None:
                    out = wl.run(inp, untraced)
                else:
                    rec.op = i
                    with rec.span(OP_SPAN):
                        out = wl.run(inp, rec.span)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            res.latencies.append(time.perf_counter() - t0)
            try:
                ok = ok and bool(wl.check(inp, out)) and (after is None or after(i, inp, out))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            res.failed += not ok
            res.indices.append(i)
            i += 1
        if time.perf_counter() - start >= seconds and len(res.indices) >= min_ops:
            return res


def traced_pass(wl, first: int, seconds: float, seen: set, rec: Recorder):
    """The traced pass plus the extra measurements each workload needs.

    Returns the pass and a dict of workload-specific figures for the layers.
    """
    extra = {"reference_s": 0.0, "read": 0, "written": 0}
    after = None
    if wl.name == "catalogue":
        # untraced run_catalogue on the same basis, to compare with the per-id spans
        def after(i, inp, out):
            basis, _, report = out
            t0 = time.perf_counter()
            reference = hsbasis.run_catalogue(basis)
            extra["reference_s"] += time.perf_counter() - t0
            return [c.residual for c in reference] == [c.residual for c in report]

    elif wl.name == "cli":

        def after(i, index, out):
            read, written = wl.file_bytes(index)
            extra["read"] += read
            extra["written"] += written
            with rec.span("cli.inprocess"):
                wl.inprocess(index, rec.span)
            return True

    res = run_pass(wl, first, seconds, 1, seen, rec, after)
    if wl.name == "cli":
        for _ in range(STARTUP_PROBES):
            with rec.span("cli.startup"):
                wl.startup()
    return res, extra


def layer_metrics(wl, rec: Recorder, traced: Pass, untraced_pass: Pass, extra: dict) -> dict:
    """Per-layer metrics with units from the spans; 0 for a layer the workload never calls."""
    selfs = self_times(rec.spans)
    durations: dict[str, list[float]] = {}
    self_sum: dict[str, float] = {}
    for span, own in zip(rec.spans, selfs):
        durations.setdefault(span.name, []).append(span.duration)
        self_sum[span.name] = self_sum.get(span.name, 0.0) + own
    op_time = sum(durations[OP_SPAN])

    def ms_p50(name):
        return median(durations[name]) * 1e3 if name in durations else 0.0

    def total(prefix):
        return sum(v for k, v in self_sum.items() if k.startswith(prefix))

    out = {}
    for layer in TIMED_LAYERS:
        out[layer + ".ms_p50"] = ms_p50(layer)
        out[layer + ".share"] = self_sum.get(layer, 0.0) / op_time
    out["identities.run_catalogue.share"] = total("identities.") / op_time
    id_sum = sum(sum(durations.get("identities." + i, [])) for i in IDENTITY_IDS)
    out["identities.span_sum_gap"] = id_sum / extra["reference_s"] - 1.0 if extra["reference_s"] else 0.0
    for ident in IDENTITY_IDS:
        out[f"identities.{ident}.ms_p50"] = ms_p50("identities." + ident)
    for ident in IDENTITY_IDS:
        out[f"identities.{ident}.headroom"] = getattr(wl, "headroom", {}).get(ident, 0.0)
    out["fileio.load.ms_p50"] = ms_p50("fileio.load")
    out["fileio.save.ms_p50"] = ms_p50("fileio.save")
    n = len(traced.indices)
    out["fileio.bytes_read_per_op"] = extra["read"] / n
    out["fileio.bytes_written_per_op"] = extra["written"] / n
    out["cli.startup.ms_p50"] = ms_p50("cli.startup")
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.ms_p50"] = ms_p50("cli." + sub)
    out["cli.inprocess_share"] = sum(durations.get("cli.inprocess", [])) / op_time
    out["trace.overhead_ratio"] = traced.ops_per_s / untraced_pass.ops_per_s
    units = per_layer_units()
    return {name: {"value": out[name], "unit": unit} for name, unit in units.items()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if not os.path.abspath(hsbasis.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        sys.stderr.write(f"hsbasis imported from {hsbasis.__file__}, not from this checkout\n")
        return 2
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.make_input(0)
        setup_end = time.monotonic()
        if args.setup_only:
            print(json.dumps({"setup_end": setup_end}))
            return 0
        seen: set = set()
        doc = {"setup_end": setup_end, "env": environment(args.seed)}
        if args.trace:
            first = run_pass(wl, 0, args.seconds / 2, 1, seen)
            rec = Recorder()
            traced, extra = traced_pass(wl, first.indices[-1] + 1, args.seconds / 2, seen, rec)
            passes = [first, traced]
            doc["layers"] = layer_metrics(wl, rec, traced, first, extra)
        else:
            passes = [run_pass(wl, 0, args.seconds, min_samples(0.9), seen)]
            doc["latencies_s"] = passes[0].latencies
        who = resource.RUSAGE_CHILDREN if isinstance(wl, Cli) else resource.RUSAGE_SELF
        doc["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        doc["attempted"] = sum(len(r.indices) for r in passes)
        doc["failed"] = sum(r.failed for r in passes)
        doc["env"]["repeat_share"] = sum(r.repeats for r in passes) / doc["attempted"]
        if args.trace:
            rec.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"), {"env": doc["env"]})
        print(json.dumps(doc))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
