"""Scaling sweep: the wall time of each layer over d = 2..16. Runs once, not gated.

Start it through ``python3 perfbench/run.py --sweep``, which pins BLAS to
one thread. Each layer is called at d = 2, 3, ... until one call takes
longer than CAP_S or, for the four-factor identities, until their pair-product stacks
would pass MEM_CAP_BYTES; that d is recorded as the layer's cut-off. The
growth exponent is the least-squares slope of log(time) against log(d)
over the last few points above 1 ms, where fixed costs no longer
dominate. The headroom (residual / tolerance) of every identity is
recorded per d. The grid is written to ``.perfbench_out/sweep.json``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np

from hsbasis import (
    apply_via_choi,
    bloch_decompose,
    change_of_basis,
    check_identity,
    choi_state,
    concurrence_squared,
    fileio,
    gellmann_basis,
    partial_transpose_map,
    reshuffle_map,
    rotated_basis,
    state_inversion,
    superop_from_action,
    swap_expansion,
    validate_basis,
    weyl_basis,
)
from worker import OUT_DIR, environment
from workloads import IDENTITY_IDS, haar_unitary, random_density, random_hermitian, random_state

DIMS = range(2, 17)
CAP_S = 1.0
# the four-factor identities hold two pair-product stacks of 16 d^6 bytes each
MEM_CAP_BYTES = 256 * 2**20
FOUR_FACTOR_IDS = {
    "identity_4op_tensor", "fourops_1", "fourops_2", "fourops_3",
    "bellbell_tensor", "swapbell_tensor", "tr1_bellbell", "tr12_bellbell",
}
FIT_FLOOR_S = 1e-3
FIT_POINTS = 5
SEED = 0


def layer_calls(d: int, rng: np.random.Generator, workdir: str, headroom: dict) -> dict:
    """The layer calls at dimension d, each a function of no arguments."""
    u = haar_unitary(d * d, rng)
    basis = rotated_basis(gellmann_basis(d), u)
    target = weyl_basis(d)
    b = random_density(d * d, rng)
    a = random_hermitian(d, rng)
    k = rng.standard_normal((d, d)) / np.sqrt(d)
    psi = random_state(d * d, rng)
    path = os.path.join(workdir, "m.json")
    fileio.save_matrix(b, path)

    def choi():
        superop = superop_from_action(lambda g: k @ g @ k.T, basis)
        return apply_via_choi(choi_state(superop, basis), a)

    def identity(ident):
        def call():
            c = check_identity(ident, basis)
            headroom.setdefault(ident, {})[d] = c.residual / c.tolerance

        return call

    def cli(*argv):
        def call():
            cmd = [sys.executable, "-m", "hsbasis", *argv, "--dim", str(d)]
            proc = subprocess.run(cmd, cwd=workdir, capture_output=True, timeout=600)
            if proc.returncode != 0:
                raise RuntimeError(f"{' '.join(argv)} --dim {d} exited with {proc.returncode}")

        return call

    calls = {
        "bases.build": lambda: rotated_basis(gellmann_basis(d), u),
        "bases.validate_basis": lambda: validate_basis(basis),
        "transforms.change_of_basis": lambda: change_of_basis(target, basis),
        "operators.expansion": lambda: swap_expansion(basis),
    }
    calls.update({"identities." + i: identity(i) for i in IDENTITY_IDS})
    calls.update(
        {
            "maps.partial_transpose_map": lambda: partial_transpose_map(b, 2, basis),
            "maps.reshuffle_map": lambda: reshuffle_map(b, basis),
            "maps.choi_roundtrip": choi,
            "maps.state_inversion": lambda: state_inversion(a, basis),
            "maps.concurrence_squared": lambda: concurrence_squared(psi),
            "maps.bloch_decompose": lambda: bloch_decompose(a, basis),
            "fileio.save": lambda: fileio.save_matrix(b, path),
            "fileio.load": lambda: fileio.load_matrix(path),
            "cli.transform": cli("transform", "--from", "gellmann", "--to", "weyl", "--out", "t.json"),
            "cli.verify": cli("verify", "--basis", "weyl", "--report", "machine"),
        }
    )
    return calls


def time_call(call) -> float:
    """Median of three calls, or one call when it already takes 0.1 s."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
        if times[-1] >= 0.1:
            break
    return sorted(times)[len(times) // 2]


def growth_exponent(points: dict[int, float]) -> float | None:
    """Slope of log(time) against log(d) over the last points above the floor."""
    usable = [(d, t) for d, t in sorted(points.items()) if t >= FIT_FLOOR_S][-FIT_POINTS:]
    if len(usable) < 2:
        return None
    x = np.log([d for d, _ in usable])
    y = np.log([t for _, t in usable])
    return float(np.polyfit(x, y, 1)[0])


def main() -> int:
    workdir = os.path.join(OUT_DIR, f"sweep-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng(SEED)
    grid: dict[str, dict[int, float]] = {}
    cutoff: dict[str, int | None] = {}
    headroom: dict[str, dict[int, float]] = {}
    try:
        for d in DIMS:
            for name, call in layer_calls(d, rng, workdir, headroom).items():
                if cutoff.setdefault(name, None) is not None:
                    continue
                if name.split(".")[-1] in FOUR_FACTOR_IDS and 32 * d**6 > MEM_CAP_BYTES:
                    cutoff[name] = d
                    continue
                t = time_call(call)
                grid.setdefault(name, {})[d] = t
                if t > CAP_S:
                    cutoff[name] = d
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "env": environment(SEED),
        "cap_s": CAP_S,
        "seconds": grid,
        "cutoff_d": cutoff,
        "exponent": {name: growth_exponent(points) for name, points in grid.items()},
        "identity_headroom": headroom,
    }
    with open(os.path.join(OUT_DIR, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"{'layer':<36} {'cut-off d':>9} {'exponent':>9} {'t(d=8) s':>10}")
    for name, points in grid.items():
        exp = doc["exponent"][name]
        t8 = points.get(8, math.nan)
        print(f"{name:<36} {str(cutoff[name] or '-'):>9} {exp if exp is None else round(exp, 2)!s:>9} {t8:>10.4g}")
    worst = {d: max(h.get(d, 0.0) for h in headroom.values()) for d in DIMS}
    print("max identity headroom per d: " + ", ".join(f"{d}: {h:.2g}" for d, h in worst.items() if h))
    print(f"written to {os.path.join(OUT_DIR, 'sweep.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
