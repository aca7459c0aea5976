"""The three workloads: inputs drawn from the seed, the timed operation, its oracle.

Every workload offers the same interface:

- ``cycle``: the number of operation kinds; operation ``i`` is of kind
  ``i % cycle``, so whole cycles give every kind an equal share.
- ``make_input(i)``: the input of operation ``i``, a pure function of
  ``(seed, i)``; it runs outside the timed region.
- ``run(inp, sp)``: the timed calls into the library. ``sp(name)`` wraps
  each call into a layer; it is :func:`spans.untraced` on the untraced pass.
- ``check(inp, out)``: the oracle. It returns False, or raises, when the
  output is wrong. Oracles are computed independently of the code under
  test: raw index permutations, closed forms and direct sums.
- ``key(inp)``: bytes identifying the input, to count repeated inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hsbasis import (
    IdentityId,
    apply_via_choi,
    bell_expansion,
    bloch_decompose,
    change_of_basis,
    check_identity,
    choi_state,
    concurrence_squared,
    fileio,
    gellmann_basis,
    partial_transpose,
    partial_transpose_map,
    random_basis,
    reshuffle,
    reshuffle_map,
    rotated_basis,
    run_catalogue,
    standard_basis,
    state_inversion,
    superop_from_action,
    swap_expansion,
    tolerance,
    validate_basis,
    weyl_basis,
)
from hsbasis.report import IdentityReport

from spans import untraced

SIZES = (4, 6, 8)
NAMED = {"standard": standard_basis, "gellmann": gellmann_basis, "weyl": weyl_basis}
IDENTITY_IDS = [i.value for i in IdentityId]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary drawn by the benchmark itself (QR with phase fix)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def concurrence_closed_form(psi: np.ndarray) -> float:
    """C^2 = 2 (1 - Tr rho_A^2) of a pure state (Rungta et al., PRA 64, 042315, 2001)."""
    d = int(round(np.sqrt(psi.size)))
    m = psi.reshape(d, d)
    rho_a = m @ m.conj().T
    return 2.0 * (1.0 - float(np.trace(rho_a @ rho_a).real))


def digest(*parts) -> bytes:
    h = hashlib.sha1()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.digest()


def close(a, b, d: int) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and float(np.linalg.norm(a - b)) <= tolerance(d)


# --------------------------------------------------------------- catalogue


@dataclass
class CatalogueInput:
    d: int
    kind: str
    u: np.ndarray | None
    basis_seed: int | None


class Catalogue:
    """Fresh Haar-rotated basis per operation; ``validate_basis`` + ``run_catalogue``."""

    name = "catalogue"
    cycle = len(SIZES)

    def __init__(self, seed: int, workdir=None) -> None:
        self.seed = seed
        self.headroom = dict.fromkeys(IDENTITY_IDS, 0.0)

    def make_input(self, i: int) -> CatalogueInput:
        rng = np.random.default_rng([self.seed, i])
        d = SIZES[i % self.cycle]
        kind = ("random", "standard", "gellmann", "weyl")[rng.integers(4)]
        if kind == "random":
            return CatalogueInput(d, kind, None, int(rng.integers(2**62)))
        return CatalogueInput(d, kind, haar_unitary(d * d, rng), None)

    def key(self, inp: CatalogueInput) -> bytes:
        return digest(inp.d, inp.kind, inp.basis_seed, inp.u if inp.u is not None else 0)

    def run(self, inp: CatalogueInput, sp):
        with sp("bases.build"):
            if inp.kind == "random":
                basis = random_basis(inp.d, inp.basis_seed)
            else:
                basis = rotated_basis(NAMED[inp.kind](inp.d), inp.u)
        with sp("bases.validate_basis"):
            gram = validate_basis(basis)
        if sp is untraced:
            report = run_catalogue(basis)
        else:
            # the traced pass splits run_catalogue into its per-identity calls
            checks = []
            with sp("identities.run_catalogue"):
                for ident in IDENTITY_IDS:
                    with sp("identities." + ident):
                        checks.append(check_identity(ident, basis))
            report = IdentityReport(tuple(checks))
        return basis, gram, report

    def check(self, inp: CatalogueInput, out) -> bool:
        basis, gram, report = out
        d = inp.d
        flat = basis.elements.reshape(d * d, -1)
        gram_dev = float(np.abs(flat.conj() @ flat.T - d * np.eye(d * d)).max())
        for c in report.checks:
            self.headroom[c.id] = max(self.headroom[c.id], c.residual / c.tolerance)
        return (
            gram_dev <= tolerance(d)
            and gram.all_passed
            and [c.id for c in report.checks] == IDENTITY_IDS
            and report.all_passed
        )


# -------------------------------------------------------------------- maps


@dataclass
class MapsInput:
    d: int
    kind: str  # named basis rotated by u
    u: np.ndarray
    target: str  # named basis for change_of_basis
    operand_kind: str  # swap, bell or random
    operand: np.ndarray | None
    a: np.ndarray  # Hermitian d x d
    k: np.ndarray  # Choi test map A -> K A K^dag
    psi: np.ndarray  # pure state on (d-1) x (d-1)


@dataclass
class MapsOutput:
    operand: np.ndarray
    pt1: np.ndarray
    pt2: np.ndarray
    reshuffled: np.ndarray
    via_choi: np.ndarray
    inverted: np.ndarray
    bloch: np.ndarray
    change: np.ndarray
    basis: object
    target: object
    c2: float


class Maps:
    """One two-party operand per operation through every basis-sum map.

    The pure state for ``concurrence_squared`` has local dimension d - 1:
    at d itself its O(d^10) sum would hide the O(d^8) pt/reshuffle sums.
    With d - 1 each takes between a quarter and a half of the time.
    """

    name = "maps"
    cycle = len(SIZES)

    def __init__(self, seed: int, workdir=None) -> None:
        self.seed = seed

    def make_input(self, i: int) -> MapsInput:
        rng = np.random.default_rng([self.seed, i])
        d = SIZES[i % self.cycle]
        kind = ("standard", "gellmann", "weyl")[rng.integers(3)]
        u = haar_unitary(d * d, rng)
        target = ("standard", "gellmann", "weyl")[rng.integers(3)]
        operand_kind = ("swap", "bell", "random")[rng.integers(3)]
        operand = random_density(d * d, rng) if operand_kind == "random" else None
        a = random_hermitian(d, rng)
        k = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d)
        psi = random_state((d - 1) ** 2, rng)
        return MapsInput(d, kind, u, target, operand_kind, operand, a, k, psi)

    def key(self, inp: MapsInput) -> bytes:
        operand = inp.operand if inp.operand is not None else 0
        return digest(inp.d, inp.kind, inp.u, inp.target, inp.operand_kind, operand, inp.a, inp.k, inp.psi)

    def run(self, inp: MapsInput, sp) -> MapsOutput:
        k = inp.k
        with sp("bases.build"):
            basis = rotated_basis(NAMED[inp.kind](inp.d), inp.u)
            target = NAMED[inp.target](inp.d)
        if inp.operand_kind == "random":
            b = inp.operand
        else:
            expand = swap_expansion if inp.operand_kind == "swap" else bell_expansion
            with sp("operators.expansion"):
                b = expand(basis)
        with sp("maps.partial_transpose_map"):
            pt1 = partial_transpose_map(b, 1, basis)
        with sp("maps.partial_transpose_map"):
            pt2 = partial_transpose_map(b, 2, basis)
        with sp("maps.reshuffle_map"):
            reshuffled = reshuffle_map(b, basis)
        with sp("maps.choi_roundtrip"):
            superop = superop_from_action(lambda g: k @ g @ k.conj().T, basis)
            via_choi = apply_via_choi(choi_state(superop, basis), inp.a)
        with sp("maps.state_inversion"):
            inverted = state_inversion(inp.a, basis)
        with sp("maps.bloch_decompose"):
            bloch = bloch_decompose(inp.a, basis).coeffs
        with sp("transforms.change_of_basis"):
            change = change_of_basis(target, basis).coeffs
        with sp("maps.concurrence_squared"):
            c2 = concurrence_squared(inp.psi)
        return MapsOutput(b, pt1, pt2, reshuffled, via_choi, inverted, bloch, change, basis, target, c2)

    def check(self, inp: MapsInput, out: MapsOutput) -> bool:
        d = inp.d
        a = inp.a
        b = out.operand
        ok = True
        if inp.operand_kind == "swap":
            ok &= close(b, swap_matrix(d), d)
        elif inp.operand_kind == "bell":
            phi = np.eye(d).ravel() / np.sqrt(d)
            ok &= close(b, np.outer(phi, phi), d)
        ok &= close(out.pt1, partial_transpose(b, 1, d), d)
        ok &= close(out.pt2, partial_transpose(b, 2, d), d)
        ok &= close(out.reshuffled, reshuffle(b, d), d)
        ok &= close(out.via_choi, inp.k @ a @ inp.k.conj().T, d)
        ok &= close(out.inverted, np.trace(a) * np.eye(d) - a, d)
        direct = np.array([np.vdot(g, a) for g in out.basis.elements])
        ok &= close(out.bloch, direct, d)
        in_target = np.array([np.vdot(h, a) for h in out.target.elements])
        ok &= close(out.change.conj() @ out.bloch, in_target, d)
        ok &= abs(out.c2 - concurrence_closed_form(inp.psi)) <= tolerance(d - 1)
        return bool(ok)


# --------------------------------------------------------------------- cli


def write_matrix(path, m: np.ndarray) -> None:
    """Matrix document written by the benchmark, independently of ``fileio``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_doc(m), fh)


def matrix_doc(m: np.ndarray) -> dict:
    m = np.atleast_2d(m)
    entries = [[float(v.real), float(v.imag)] for v in m.ravel()]
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": entries}


def read_matrix(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = np.array(doc["entries"], dtype=float)
    return (entries[:, 0] + 1j * entries[:, 1]).reshape(doc["rows"], doc["cols"])


@dataclass
class CliKind:
    """One kind of ``hsbasis`` invocation on files in the work directory.

    ``replica(sp)`` makes the library calls behind it in-process and
    returns the result the subprocess should produce; for a negative
    control it raises the ValueError the command should report.
    """

    name: str
    argv: list[str]
    exit_code: int
    d: int
    replica: Callable
    inputs: tuple[str, ...] = ()
    out: str | None = None


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    out_exists: bool


class Cli:
    """One ``hsbasis`` subprocess per operation, run one at a time.

    The inputs are files written once from the seed, so every cycle
    repeats the same fifteen invocations. The last two kinds are the
    file-heavy ones and the slowest, so p90 falls in the middle of the
    band of the second slowest kind.
    """

    name = "cli"

    def __init__(self, seed: int, workdir) -> None:
        self.dir = os.fspath(workdir)
        self.env = dict(os.environ)
        rng = np.random.default_rng([seed, 2**32])
        self.psi3 = random_state(9, rng)
        files = {
            "psi3.json": self.psi3.reshape(-1, 1),
            "b3.json": random_density(9, rng),
            "b4.json": random_density(16, rng),
            "a4.json": random_hermitian(4, rng),
            "b8.json": random_density(64, rng),
        }
        for name, m in files.items():
            write_matrix(self.path(name), m)
        # a Gell-Mann basis with one element tilted towards another: not orthogonal
        g = gellmann_basis(3).elements.copy()
        g[1] = g[1] + (0.2 + 0.1 * rng.random()) * g[2]
        with open(self.path("nonorth.json"), "w", encoding="utf-8") as fh:
            json.dump({"d": 3, "kind": "custom", "elements": [matrix_doc(x) for x in g]}, fh)
        with open(self.path("b3.json"), encoding="utf-8") as fh:
            text = fh.read()
        with open(self.path("corrupt.json"), "w", encoding="utf-8") as fh:
            fh.write(text[: int(rng.integers(len(text) // 4, len(text) // 2))])

        def build(op, d, out, value):
            return CliKind("build", ["build", op, "--dim", str(d)], 0, d, lambda sp: self.save(sp, value), out=out)

        def mapk(op, d, basis, infile, out, party=None, exit_code=0):
            argv = ["map", op, "--dim", str(d), "--input", infile]
            argv += ["--basis", basis] + (["--party", str(party)] if party else [])

            def replica(sp):
                b = self.load(sp, infile)
                with sp("cli.inprocess.compute"):
                    if op == "pt":
                        result = partial_transpose_map(b, party or 2, NAMED[basis](d))
                    else:
                        result = reshuffle_map(b, NAMED[basis](d))
                return self.save(sp, result)

            return CliKind("map", argv, exit_code, d, replica, (infile,), out)

        def concurrence(sp):
            with sp("fileio.load"):
                psi = fileio.load_vector(self.path("psi3.json"))
            with sp("cli.inprocess.compute"):
                return concurrence_squared(psi)

        def choi(sp):
            with sp("cli.inprocess.compute"):
                basis = gellmann_basis(3)
                result = choi_state(superop_from_action(lambda x: x.T, basis), basis).matrix
            return self.save(sp, result)

        def decompose(sp):
            a = self.load(sp, "a4.json")
            with sp("cli.inprocess.compute"):
                result = bloch_decompose(a, weyl_basis(4)).coeffs.reshape(-1, 1)
            return self.save(sp, result)

        def verify(sp):
            with sp("cli.inprocess.compute"):
                return run_catalogue(weyl_basis(4))

        def verify_nonorth(sp):
            with sp("fileio.load"):
                basis = fileio.load_basis(self.path("nonorth.json"))
            with sp("cli.inprocess.compute"):
                return run_catalogue(basis)

        def transform(sp):
            with sp("cli.inprocess.compute"):
                result = change_of_basis(weyl_basis(12), gellmann_basis(12)).coeffs
            return self.save(sp, result)

        phi4 = np.eye(4).ravel() / 2.0
        self.kinds = [
            build("swap", 3, "o_swap.json", swap_matrix(3)),
            build("bell", 4, "o_bell.json", phi4.reshape(-1, 1)),
            build("coherent", 4, "o_coh.json", np.full((4, 1), 0.5)),
            CliKind("concurrence", ["concurrence", "--state", "psi3.json"], 0, 3, concurrence, ("psi3.json",)),
            mapk("pt", 4, "gellmann", "b4.json", "o_pt4.json", party=2),
            mapk("pt", 3, "weyl", "b3.json", "o_pt3.json", party=1),
            mapk("reshuffle", 4, "weyl", "b4.json", "o_rs4.json"),
            CliKind("choi", ["choi", "--map", "transpose", "--dim", "3", "--basis", "gellmann"], 0, 3, choi, out="o_choi.json"),
            CliKind("decompose", ["decompose", "--dim", "4", "--basis", "weyl", "--input", "a4.json"], 0, 4, decompose, ("a4.json",), "o_dec.json"),
            CliKind("verify", ["verify", "--dim", "4", "--basis", "weyl", "--report", "machine"], 0, 4, verify),
            CliKind("verify", ["verify", "--dim", "3", "--basis", "file:nonorth.json", "--report", "machine"], 1, 3, verify_nonorth, ("nonorth.json",)),
            mapk("pt", 3, "gellmann", "corrupt.json", "o_bad1.json", exit_code=2),
            mapk("reshuffle", 3, "gellmann", "b4.json", "o_bad2.json", exit_code=2),
            CliKind("transform", ["transform", "--from", "gellmann", "--to", "weyl", "--dim", "12"], 0, 12, transform, out="o_tr12.json"),
            mapk("pt", 8, "gellmann", "b8.json", "o_pt8.json", party=2),
        ]
        self.cycle = len(self.kinds)
        self.expected: dict[int, object] = {}
        self.first_stdout: dict[int, bytes] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def load(self, sp, name: str) -> np.ndarray:
        with sp("fileio.load"):
            return fileio.load_matrix(self.path(name))

    def save(self, sp, result: np.ndarray) -> np.ndarray:
        with sp("fileio.save"):
            fileio.save_matrix(result, self.path("inprocess.json"))
        return result

    def make_input(self, i: int) -> int:
        kind = self.kinds[i % self.cycle]
        if kind.out and os.path.exists(self.path(kind.out)):
            os.remove(self.path(kind.out))
        return i % self.cycle

    def key(self, index: int) -> bytes:
        return digest(index)

    def run(self, index: int, sp) -> CliResult:
        kind = self.kinds[index]
        argv = [sys.executable, "-m", "hsbasis", *kind.argv]
        if kind.out:
            argv += ["--out", kind.out]
        with sp("cli." + kind.name):
            proc = subprocess.run(argv, cwd=self.dir, env=self.env, capture_output=True, timeout=120)
        exists = bool(kind.out) and os.path.exists(self.path(kind.out))
        return CliResult(proc.returncode, proc.stdout, proc.stderr, exists)

    def inprocess(self, index: int, sp):
        """Expected outcome of kind ``index``: its replica's result or ValueError."""
        try:
            return self.kinds[index].replica(sp)
        except ValueError as exc:
            return exc

    def check(self, index: int, res: CliResult) -> bool:
        kind = self.kinds[index]
        if res.returncode != kind.exit_code:
            return False
        if index not in self.expected:
            self.expected[index] = self.inprocess(index, untraced)
        expected = self.expected[index]
        if kind.exit_code == 2:
            return isinstance(expected, ValueError) and not res.out_exists and res.stderr.startswith(b"hsbasis:")
        if kind.name == "verify":
            first = self.first_stdout.setdefault(index, res.stdout)
            results = json.loads(res.stdout)["results"]
            agree = [r["verdict"] for r in results] == ["pass" if c.passed else "fail" for c in expected.checks]
            if kind.exit_code == 0:
                agree &= all(abs(r["residual"] - c.residual) <= c.tolerance for r, c in zip(results, expected.checks))
            return res.stdout == first and agree and (kind.exit_code == 0) == expected.all_passed
        if kind.name == "concurrence":
            value = float(res.stdout)
            return abs(value - expected) <= 1e-10 and abs(value - concurrence_closed_form(self.psi3)) <= tolerance(3)
        return res.out_exists and close(read_matrix(self.path(kind.out)), expected, kind.d)

    def file_bytes(self, index: int) -> tuple[int, int]:
        """Computed bytes kind ``index`` reads (input files) and writes (its --out file)."""
        kind = self.kinds[index]
        read = sum(os.path.getsize(self.path(f)) for f in kind.inputs)
        out = kind.out and self.path(kind.out)
        return read, os.path.getsize(out) if out and os.path.exists(out) else 0

    def startup(self) -> None:
        """One ``python -m hsbasis --help``."""
        argv = [sys.executable, "-m", "hsbasis", "--help"]
        if subprocess.run(argv, cwd=self.dir, env=self.env, capture_output=True, timeout=120).returncode:
            raise RuntimeError("hsbasis --help failed")


def swap_matrix(d: int) -> np.ndarray:
    """SWAP as the raw permutation |jk> -> |kj>."""
    m = np.zeros((d * d, d * d))
    for j in range(d):
        for k in range(d):
            m[j * d + k, k * d + j] = 1.0
    return m


WORKLOADS = {w.name: w for w in (Catalogue, Maps, Cli)}
