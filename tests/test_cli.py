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
from hsbasis.bases import MatrixBasis, gellmann_basis, weyl_basis
from hsbasis.cli import main
from hsbasis.fileio import basis_to_dict, load_matrix, save_basis, save_matrix
from hsbasis.identities import IdentityId
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
