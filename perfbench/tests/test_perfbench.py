"""Tests of the benchmark's own logic. Run: python -m pytest perfbench/tests"""

import json
import os

import numpy as np
import pytest

import run
import workloads
from spans import Recorder, Span, covered, min_samples, percentile, self_times, untraced
from worker import per_layer_units, run_pass


class TestPercentiles:
    def test_matches_numpy_linear_rule(self):
        rng = np.random.default_rng(0)
        values = list(rng.random(37))
        for q in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert percentile(values, q) == pytest.approx(np.percentile(values, 100 * q))

    def test_small_cases(self):
        assert percentile([3.0], 0.9) == 3.0
        assert percentile([1, 2, 3, 4], 0.5) == 2.5
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_sample_count_rule(self):
        assert min_samples(0.9) == 100
        assert min_samples(0.5) == 20
        assert min_samples(0.99) == 1000

    def test_minimum_leaves_ten_samples_beyond_p90(self):
        values = list(range(min_samples(0.9)))
        p90 = percentile(values, 0.9)
        assert sum(v > p90 for v in values) == 10


class TestSelfTime:
    def test_union_of_overlapping_intervals(self):
        assert covered([]) == 0.0
        assert covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == pytest.approx(4.0)
        assert covered([(0.0, 5.0), (1.0, 2.0)]) == pytest.approx(5.0)

    def test_nested_spans(self):
        spans = [
            Span("op", 0.0, 10.0, None, 0),
            Span("a", 1.0, 3.0, 0, 0),
            Span("b", 2.0, 4.0, 0, 0),
            Span("c", 2.5, 3.5, 2, 0),
            Span("d", 6.0, 7.0, 0, 0),
        ]
        assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])

    def test_recorder_links_parents_and_operations(self):
        rec = Recorder()
        rec.op = 7
        with rec.span("op"):
            with rec.span("inner"):
                pass
        with rec.span("after"):
            pass
        assert [(s.name, s.parent, s.op) for s in rec.spans] == [("op", None, 7), ("inner", 0, 7), ("after", None, 7)]
        outer, inner, _ = rec.spans
        assert outer.start <= inner.start <= inner.end <= outer.end
        own = self_times(rec.spans)
        assert own[0] == pytest.approx(outer.duration - inner.duration)

    def test_untraced_records_nothing(self):
        with untraced("anything"):
            pass


class TestFailureCounting:
    def test_injected_wrong_result_is_counted_once(self, monkeypatch):
        real = workloads.state_inversion
        calls = []

        def once_wrong(a, basis):
            calls.append(a.shape[0])
            out = real(a, basis)
            return out + 1e-3 if len(calls) == 2 else out

        monkeypatch.setattr(workloads, "state_inversion", once_wrong)
        res = run_pass(workloads.Maps(3), 0, 0.0, 3, set())
        assert len(res.indices) == 3 and len(res.latencies) == 3
        assert res.failed == 1

    def test_raising_operation_is_counted_and_timed(self, monkeypatch):
        def broken(*args):
            raise ValueError("injected")

        monkeypatch.setattr(workloads, "concurrence_squared", broken)
        res = run_pass(workloads.Maps(3), 0, 0.0, 3, set())
        assert res.failed == 3 and len(res.latencies) == 3

    def test_cli_exit_code_is_checked(self, tmp_path):
        cli = workloads.Cli(4, tmp_path)
        cli.env["PYTHONPATH"] = os.path.join(os.path.dirname(run.HERE), "src")
        corrupt = next(i for i, k in enumerate(cli.kinds) if "corrupt.json" in k.inputs)
        result = cli.run(cli.make_input(corrupt), untraced)
        assert result.returncode == 2 and cli.check(corrupt, result)
        cli.kinds[corrupt].exit_code = 0
        assert not cli.check(corrupt, result)


class TestSeeds:
    @pytest.mark.parametrize("cls", [workloads.Catalogue, workloads.Maps])
    def test_same_seed_same_inputs(self, cls):
        a, b, c = cls(11), cls(11), cls(12)
        for i in range(6):
            assert a.key(a.make_input(i)) == b.key(b.make_input(i))
            assert a.key(a.make_input(i)) != c.key(c.make_input(i))

    def test_cli_files_follow_the_seed(self, tmp_path):
        dirs = [tmp_path / name for name in ("a", "b", "c")]
        for path, seed in zip(dirs, (5, 5, 6)):
            path.mkdir()
            workloads.Cli(seed, path)

        def contents(path):
            return {f: (path / f).read_bytes() for f in sorted(os.listdir(path))}

        assert contents(dirs[0]) == contents(dirs[1])
        assert contents(dirs[0]) != contents(dirs[2])


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
