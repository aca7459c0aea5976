"""Tests for the command-line interface: subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsbasis
from hsbasis import cli
from hsbasis import bases
from hsbasis.bases import NAMED_BASES, MatrixBasis, gellmann_basis, weyl_basis
from hsbasis.cli import main
from hsbasis.fileio import basis_to_dict, load_matrix, save_basis, save_matrix
from hsbasis.identities import IdentityId
from hsbasis.linalg import tolerance
from hsbasis.maps import choi_state, superop_from_action
from hsbasis.operators import bell_projector, bell_state, swap_operator


def run(*argv):
    return main(list(argv))


class TestVerify:
    def test_all_pass_machine_report(self, tmp_path, capsys):
        code = run("verify", "--dim", "3", "--basis", "gellmann", "--report", "machine")
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["config"]["dim"] == 3
        assert len(doc["results"]) == 17
        assert all(r["verdict"] == "pass" for r in doc["results"])

    def test_text_report(self, capsys):
        code = run("verify", "--dim", "2", "--basis", "weyl")
        out = capsys.readouterr().out
        assert code == 0
        assert "all 17 identities passed" in out
        assert out.count("PASS") == 17

    def test_denormalized_basis_fails_with_exit_1(self, tmp_path, capsys):
        bad = MatrixBasis(2, 1.5 * np.array(gellmann_basis(2).elements))
        path = tmp_path / "badbasis.json"
        save_basis(bad, path)
        code = run("verify", "--dim", "2", "--basis", f"file:{path}", "--report", "machine")
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        verdicts = {r["id"]: r["verdict"] for r in doc["results"]}
        assert verdicts["swap_expansion"] == "fail"
        assert verdicts["trswap_choi"] == "pass"  # independent of the basis

    def test_byte_identical_reports(self, tmp_path):
        args = ("verify", "--dim", "2", "--basis", "weyl", "--seed", "11", "--report", "machine")
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_every_identity_reachable_by_name(self, capsys):
        for identity in IdentityId:
            code = run(
                "verify", "--dim", "2", "--basis", "gellmann", "--ids", identity.value
            )
            capsys.readouterr()
            assert code == 0

    def test_ids_subset_order_preserved(self, capsys):
        code = run(
            "verify",
            "--dim",
            "2",
            "--basis",
            "gellmann",
            "--ids",
            "purity_link,swap_expansion",
            "--report",
            "machine",
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [r["id"] for r in doc["results"]] == ["purity_link", "swap_expansion"]

    def test_unknown_id_exits_2(self, capsys):
        code = run("verify", "--dim", "2", "--basis", "gellmann", "--ids", "nonsense")
        assert code == 2
        assert "unknown identity" in capsys.readouterr().err

    def test_basis_file_dim_mismatch_exits_2(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        save_basis(gellmann_basis(2), path)
        code = run("verify", "--dim", "3", "--basis", f"file:{path}")
        assert code == 2

    def test_unknown_basis_spec_exits_2(self, capsys):
        code = run("verify", "--dim", "2", "--basis", "bogus")
        assert code == 2


class TestBlasThreadCount:
    """The machine report is reproducible under a given BLAS thread count."""

    ARGS = ("verify", "--dim", "6", "--basis", "weyl", "--report", "machine")

    def _verify(self, threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        src = str(Path(hsbasis.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "hsbasis", *self.ARGS],
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_same_verdicts_and_stable_bytes(self):
        one = [self._verify(1) for _ in range(2)]
        two = [self._verify(2) for _ in range(2)]
        assert one[0] == one[1]
        assert two[0] == two[1]
        verdicts = [
            {r["id"]: r["verdict"] for r in json.loads(out)["results"]} for out in (one[0], two[0])
        ]
        assert verdicts[0] == verdicts[1]
        assert set(verdicts[0].values()) == {"pass"}


class TestBuild:
    def test_swap(self, tmp_path):
        out = tmp_path / "swap.json"
        assert run("build", "swap", "--dim", "3", "--out", str(out)) == 0
        assert np.allclose(load_matrix(out), swap_operator(3))

    def test_bell_vector(self, tmp_path):
        out = tmp_path / "bell.json"
        assert run("build", "bell", "--dim", "2", "--out", str(out)) == 0
        m = load_matrix(out)
        assert m.shape == (4, 1)
        assert np.allclose(m.ravel(), bell_state(2))

    def test_coherent_vector(self, tmp_path):
        out = tmp_path / "plus.json"
        assert run("build", "coherent", "--dim", "4", "--out", str(out)) == 0
        assert np.allclose(load_matrix(out).ravel(), np.full(4, 0.5))


class TestTransform:
    def test_gellmann_to_standard_d2(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(
            "transform", "--from", "gellmann", "--to", "standard", "--dim", "2",
            "--out", str(out),
        )
        assert code == 0
        r = 1 / np.sqrt(2)
        expected = np.array(
            [[r, 0, 0, r], [0, r, 1j * r, 0], [0, r, -1j * r, 0], [r, 0, 0, -r]]
        )
        assert np.allclose(load_matrix(out), expected, atol=1e-14)


class TestMap:
    def test_pt_of_swap(self, tmp_path):
        src = tmp_path / "swap.json"
        out = tmp_path / "pt.json"
        save_matrix(swap_operator(2), src)
        code = run(
            "map", "pt", "--dim", "2", "--basis", "weyl",
            "--input", str(src), "--out", str(out),
        )
        assert code == 0
        assert np.allclose(load_matrix(out), 2 * bell_projector(2), atol=1e-13)

    def test_trace_map(self, tmp_path):
        src = tmp_path / "a.json"
        out = tmp_path / "t.json"
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        save_matrix(a, src)
        code = run(
            "map", "trace", "--dim", "3", "--basis", "gellmann",
            "--input", str(src), "--out", str(out),
        )
        assert code == 0
        assert np.allclose(load_matrix(out), np.trace(a) * np.eye(3), atol=1e-12)

    def test_inversion_requires_hermitian(self, tmp_path, capsys):
        src = tmp_path / "a.json"
        save_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), src)
        code = run(
            "map", "inversion", "--dim", "2", "--basis", "gellmann",
            "--input", str(src), "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "Hermitian" in capsys.readouterr().err


class TestChoi:
    def test_identity_map_choi_is_bell(self, tmp_path):
        out = tmp_path / "c.json"
        code = run("choi", "--map", "identity", "--dim", "3", "--basis", "weyl", "--out", str(out))
        assert code == 0
        assert np.allclose(load_matrix(out), bell_projector(3), atol=1e-12)

    def test_transpose_map_choi_is_swap(self, tmp_path):
        out = tmp_path / "c.json"
        code = run("choi", "--map", "transpose", "--dim", "2", "--basis", "gellmann", "--out", str(out))
        assert code == 0
        assert np.allclose(load_matrix(out), swap_operator(2) / 2, atol=1e-13)


class TestConcurrence:
    def test_bell_d2_prints_one(self, tmp_path, capsys):
        path = tmp_path / "bell2.json"
        assert run("build", "bell", "--dim", "2", "--out", str(path)) == 0
        code = run("concurrence", "--state", str(path))
        assert code == 0
        assert capsys.readouterr().out == "1.0000000000\n"

    def test_product_state_prints_zero(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        save_matrix(np.array([[1.0], [0.0], [0.0], [0.0]]), path)
        code = run("concurrence", "--state", str(path))
        assert code == 0
        assert capsys.readouterr().out == "0.0000000000\n"


class TestDecompose:
    def test_sigma3_in_gellmann(self, tmp_path):
        src = tmp_path / "s3.json"
        out = tmp_path / "bloch.json"
        save_matrix(np.diag([1.0, -1.0]), src)
        code = run(
            "decompose", "--dim", "2", "--basis", "gellmann",
            "--input", str(src), "--out", str(out),
        )
        assert code == 0
        assert np.allclose(load_matrix(out).ravel(), [0, 0, 0, 2], atol=1e-14)


class TestErrorPaths:
    def test_malformed_matrix_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]}))
        code = run(
            "map", "trace", "--dim", "2", "--basis", "gellmann",
            "--input", str(path), "--out", str(tmp_path / "o.json"),
        )
        assert code == 2
        assert '"entries"' in capsys.readouterr().err

    def test_non_finite_basis_file_exits_2(self, tmp_path, capsys):
        doc = basis_to_dict(gellmann_basis(2))
        doc["elements"][1]["entries"][2][0] = float("nan")
        path = tmp_path / "nanbasis.json"
        path.write_text(json.dumps(doc))
        code = run("verify", "--dim", "2", "--basis", f"file:{path}", "--report", "machine")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert '"elements"[1]: field "entries"[2] must be finite' in captured.err

    @staticmethod
    def _deep_json(tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        return path

    @staticmethod
    def _huge_basis(tmp_path):
        # finite entries whose products overflow to inf inside the basis sums
        path = tmp_path / "huge.json"
        save_basis(MatrixBasis(2, 1e300 * np.array(weyl_basis(2).elements)), path)
        return path

    def _assert_one_error_line(self, code, captured, *fragments):
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("hsbasis: ") and captured.err.count("\n") == 1
        for fragment in fragments:
            assert fragment in captured.err

    def test_deeply_nested_matrix_file_exits_2(self, tmp_path, capsys):
        code = run(
            "map", "pt", "--dim", "2", "--basis", "gellmann",
            "--input", str(self._deep_json(tmp_path)), "--out", str(tmp_path / "o.json"),
        )
        self._assert_one_error_line(code, capsys.readouterr(), "nested too deeply")
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("report", ["text", "machine"])
    def test_deeply_nested_basis_file_exits_2(self, tmp_path, capsys, report):
        spec = f"file:{self._deep_json(tmp_path)}"
        code = run("verify", "--basis", spec, "--report", report)
        self._assert_one_error_line(code, capsys.readouterr(), "nested too deeply")

    @pytest.mark.parametrize("report", ["text", "machine"])
    def test_overflowing_basis_exits_2_in_both_report_modes(self, tmp_path, capsys, report):
        spec = f"file:{self._huge_basis(tmp_path)}"
        code = run("verify", "--basis", spec, "--report", report)
        self._assert_one_error_line(
            code, capsys.readouterr(), "swap_expansion", "non-finite residual"
        )

    @pytest.mark.parametrize("report", ["text", "machine"])
    @pytest.mark.parametrize("make_input", ["_deep_json", "_huge_basis"])
    def test_hostile_basis_files_under_warnings_as_errors(self, tmp_path, make_input, report):
        spec = f"file:{getattr(self, make_input)(tmp_path)}"
        env = dict(os.environ)
        src = str(Path(hsbasis.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "hsbasis", "verify", "--basis", spec,
             "--report", report],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("hsbasis: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("report", ["text", "machine"])
    @pytest.mark.parametrize(
        "ids", [None, "swap_expansion", "trswap_choi", "gg_conj_sum,purity_link"]
    )
    def test_negative_seed_exits_2_whichever_ids(self, capsys, report, ids):
        args = ["verify", "--dim", "2", "--seed", "-1", "--report", report]
        code = run(*args, *(["--ids", ids] if ids else []))
        self._assert_one_error_line(code, capsys.readouterr(), "--seed must be >= 0, got -1")

    def test_memory_error_exits_2(self, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "_cmd_verify", exhausted)
        assert run("verify", "--dim", "2") == 2
        assert "out of memory" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        code = run("concurrence", "--state", str(tmp_path / "nope.json"))
        assert code == 2

    def test_no_arguments_exits_2(self, capsys):
        assert run() == 2
        capsys.readouterr()

    def test_bad_subcommand_exits_2(self, capsys):
        assert run("frobnicate") == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert run("--help") == 0
        capsys.readouterr()


def _matrix_doc(entries, rows=2, cols=2):
    return json.dumps({"rows": rows, "cols": cols, "entries": entries})


def _basis_doc(d, elements):
    return json.dumps({"d": d, "kind": "custom", "elements": elements})


_PAIRS = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
_ELEMENT = {"rows": 2, "cols": 2, "entries": _PAIRS}

_DEEP = "[" * 200_000 + "]" * 200_000
_NAN = {"rows": 2, "cols": 2, "entries": [[float("nan"), 0.0]] + _PAIRS[1:]}
_BIG = [[10**400, 0.0]] + _PAIRS[1:]
_THREE = {"rows": 3, "cols": 3, "entries": [[0.0, 0.0]] * 9}

# class -> (matrix file content, basis file content); None for a path, not a file
CORRUPT_INPUTS = {
    "not_json": ("{rows: 2", "[1, 2"),
    "bad_utf8": (b'{"rows": 2\xff\xfe}', b'{"d": \xc3\x28}'),
    "deep_nesting": (_DEEP, _DEEP),
    "wrong_types": (_matrix_doc([["1", 0.0]] * 4), _basis_doc("2", [_ELEMENT] * 4)),
    "bool_as_number": (_matrix_doc([[True, 0.0]] * 4), _basis_doc(True, [_ELEMENT] * 4)),
    "non_finite": (json.dumps(_NAN), _basis_doc(2, [_NAN] * 4)),
    "beyond_double": (_matrix_doc(_BIG), _basis_doc(2, [{**_ELEMENT, "entries": _BIG}] * 4)),
    "wrong_element_count": (_matrix_doc(_PAIRS[:3]), _basis_doc(2, [_ELEMENT] * 3)),
    "wrong_shape": (_matrix_doc(_PAIRS), _basis_doc(2, [_THREE] * 4)),
    "directory": (None, None),
    "missing_file": (None, None),
}


class TestCorruptInput:
    """Every class of corrupt input exits 2 with one error line, also under -W error."""

    @staticmethod
    def _argv(tmp_path, kind, target):
        matrix_text, basis_text = CORRUPT_INPUTS[kind]
        text = matrix_text if target == "map" else basis_text
        if kind == "directory":
            path = tmp_path
        else:
            path = tmp_path / "input.json"
            if text is not None:
                path.write_bytes(text if isinstance(text, bytes) else text.encode())
        if target == "map":
            return ["map", "pt", "--dim", "2", "--basis", "weyl", "--input", str(path),
                    "--out", str(tmp_path / "out.json")]
        return ["verify", "--basis", f"file:{path}", "--report", "machine"]

    @staticmethod
    def _assert_rejected(code, out, err, tmp_path):
        assert code == 2, err
        assert out == ""
        assert err.startswith("hsbasis: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("target", ["map", "verify"])
    @pytest.mark.parametrize("kind", CORRUPT_INPUTS)
    def test_in_process(self, tmp_path, capsys, kind, target):
        code = main(self._argv(tmp_path, kind, target))
        captured = capsys.readouterr()
        self._assert_rejected(code, captured.out, captured.err, tmp_path)

    @pytest.mark.parametrize("target", ["map", "verify"])
    @pytest.mark.parametrize("kind", CORRUPT_INPUTS)
    def test_under_warnings_as_errors(self, tmp_path, kind, target):
        proc = _run_warnings_as_errors(self._argv(tmp_path, kind, target))
        self._assert_rejected(proc.returncode, proc.stdout, proc.stderr, tmp_path)


def _run_warnings_as_errors(argv):
    """Run the CLI in a subprocess with every warning raised as an error."""
    env = dict(os.environ)
    src = str(Path(hsbasis.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "hsbasis", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestOverflow:
    """Finite input whose sums overflow double precision exits 2, with no warning."""

    # command -> argv, with the paths of the overflowing files filled in
    COMMANDS = {
        "transform": ["transform", "--from", "file:{basis}", "--to", "weyl", "--dim", "2"],
        "choi": ["choi", "--map", "transpose", "--basis", "file:{basis}"],
        "map": ["map", "pt", "--basis", "file:{basis}", "--input", "{matrix}"],
        "concurrence": ["concurrence", "--state", "{vector}"],
    }

    @classmethod
    def _argv(cls, tmp_path, command):
        files = {name: tmp_path / f"{name}.json" for name in ("basis", "matrix", "vector")}
        huge = {**_ELEMENT, "entries": [[1e200, 0.0]] + _PAIRS[1:]}
        files["basis"].write_text(_basis_doc(2, [huge] * 4))
        save_matrix(np.eye(4), files["matrix"])
        save_matrix(np.full((4, 1), 1e200), files["vector"])
        argv = [arg.format(**files) for arg in cls.COMMANDS[command]]
        return argv if command == "concurrence" else argv + ["--out", str(tmp_path / "out.json")]

    @pytest.mark.parametrize("mode", ["in_process", "warnings_as_errors"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_rejected(self, tmp_path, capsys, command, mode):
        argv = self._argv(tmp_path, command)
        if mode == "in_process":
            code = main(argv)
            captured = capsys.readouterr()
            out, err = captured.out, captured.err
        else:
            proc = _run_warnings_as_errors(argv)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        TestCorruptInput._assert_rejected(code, out, err, tmp_path)


class TestChoiFromMaps:
    """The choi actions are the basis-sum maps; closed forms give the reference."""

    CLOSED_FORMS = {
        "identity": lambda g, d: g,
        "transpose": lambda g, d: g.T,
        "trace": lambda g, d: np.trace(g) * np.eye(d),
        "inversion": lambda g, d: np.trace(g) * np.eye(d) - g,
    }

    def test_choices_unchanged(self):
        assert tuple(cli._CHOI_ACTIONS) == tuple(self.CLOSED_FORMS)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("basis", ["standard", "gellmann", "weyl"])
    @pytest.mark.parametrize("name", list(CLOSED_FORMS))
    def test_matches_closed_form(self, tmp_path, name, basis, d):
        out = tmp_path / "c.json"
        assert run("choi", "--map", name, "--dim", str(d), "--basis", basis, "--out", str(out)) == 0
        b = NAMED_BASES[basis](d)
        closed = superop_from_action(lambda g: self.CLOSED_FORMS[name](g, d), b)
        expected = choi_state(closed, b).matrix
        assert np.linalg.norm(load_matrix(out) - expected) <= tolerance(d)

    @pytest.mark.parametrize("name", list(CLOSED_FORMS))
    def test_one_basis_sum_per_run(self, tmp_path, monkeypatch, name):
        # the maps read the basis's one sum; the Choi matrix is an index move of
        # the superoperator, so the identity action builds no sum at all
        calls = []
        original = bases.kron_sum

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(bases, "kron_sum", counted)
        out = tmp_path / "c.json"
        assert run("choi", "--map", name, "--dim", "3", "--basis", "weyl", "--out", str(out)) == 0
        assert len(calls) == (0 if name == "identity" else 1)
