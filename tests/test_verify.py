"""Tests for the check suites, the whole-model gradient check, the scaling
bench harness, and the SVG chart writer."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hnhn import autodiff
from hnhn.bench import BenchPoint, _time_step
from hnhn.expansion import build_hypergraph, fano_pair
from hnhn.gradcheck import REL_TOL, SIZES, gradcheck_model
from hnhn.plot import write_line_chart
from hnhn.verify import (
    run_fano_suite,
    run_lemma_suite,
    run_spectral_suite,
    run_suites,
    spectral_deviations,
)


class TestLemmaSuite:
    def test_all_pass_on_seeded_instances(self):
        results = run_lemma_suite(count=10, seed=0)
        assert [r.name for r in results] == [
            "clique-product",
            "linear-collapse",
            "weight-tied",
        ]
        assert all(r.passed for r in results)
        assert results[0].detail == "10/10 exact"

    def test_seed_changes_instances_not_outcome(self):
        for seed in (1, 2):
            assert all(r.passed for r in run_lemma_suite(count=5, seed=seed))


class TestFanoSuite:
    def test_three_witnesses(self):
        results = run_fano_suite(seed=0)
        by_name = {r.name: r for r in results}
        assert by_name["fano-clique-identical"].passed
        assert by_name["fano-model-separates"].passed
        assert by_name["fano-relabeling-count"].passed
        assert "30" in by_name["fano-relabeling-count"].detail


class TestSpectralSuite:
    def test_random_instances_stay_within_tolerance(self):
        results = run_spectral_suite(count=5, seed=0)
        assert [r.name for r in results] == ["spectral-membership", "spectral-symmetry"]
        assert all(r.passed for r in results)

    def test_fano_deviations_against_numpy_oracle(self):
        first, _ = fano_pair()
        membership, symmetry = spectral_deviations(first)
        assert membership < 1e-7
        assert symmetry < 1e-7

    def test_wide_hypergraph_needs_the_gram_block(self):
        # More edges than nodes: the star spectrum picks up zeros that the
        # clique spectrum alone cannot explain, but the edge-side Gram can.
        h = build_hypergraph([[0, 1], [1, 2], [0, 2], [0, 1, 2], [1, 2, 3]], 4)
        assert h.m > h.n
        membership, _ = spectral_deviations(h)
        assert membership < 1e-7


class TestRunSuites:
    def test_all_runs_every_suite(self):
        results = run_suites("all", seed=0)
        assert len(results) == 8
        assert all(r.passed for r in results)

    def test_single_suite_selection(self):
        assert len(run_suites("fano", seed=0)) == 3
        assert len(run_suites("spectral", seed=0)) == 2

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suites("bogus")


class TestGradcheck:
    def test_small_fixture_within_tolerance(self):
        worst = gradcheck_model("small")
        assert worst < REL_TOL

    def test_deterministic(self):
        assert gradcheck_model("small") == gradcheck_model("small")

    def test_row_restricted_backward_within_tolerance(self, monkeypatch, restricted_steps):
        # Both fixtures' gradients lie below the size floor. With the floor
        # lowered, the loss rows (every other node and edge) restrict the
        # head steps and the node layer and aggregation below them.
        monkeypatch.setattr(autodiff, "ROW_RESTRICT_FLOOR", 1)
        for size in SIZES:
            restricted_steps.clear()
            assert gradcheck_model(size) < REL_TOL
            assert any(restricted_steps)

    def test_sizes_exposed(self):
        assert set(SIZES) == {"small", "medium"}
        assert SIZES["small"]["n"] == 10

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError):
            gradcheck_model("huge")


class TestBenchHarness:
    def test_single_point_timing(self):
        incidence, seconds = _time_step(60, 30, seed=0, repeats=1)
        assert incidence > 0
        assert seconds > 0.0

    def test_point_record(self):
        point = BenchPoint(scale=2, incidence=1234, seconds=0.5)
        assert (point.scale, point.incidence, point.seconds) == (2, 1234, 0.5)


class TestLineChart:
    def test_writes_valid_svg_with_one_polyline_per_series(self, tmp_path):
        path = tmp_path / "chart.svg"
        write_line_chart(
            path,
            xs=[0.0, 1.0, 2.0],
            series={"train": [0.1, 0.5, 0.9], "test": [0.2, 0.4, 0.6]},
            title="accuracy",
            x_label="epoch",
            y_label="acc",
        )
        root = ET.fromstring(path.read_text())
        tag = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{tag}polyline")
        assert len(polylines) == 2
        texts = [t.text for t in root.findall(f"{tag}text")]
        assert "accuracy" in texts and "epoch" in texts and "acc" in texts
        assert "train" in texts and "test" in texts

    def test_constant_series_does_not_divide_by_zero(self, tmp_path):
        path = tmp_path / "flat.svg"
        write_line_chart(path, xs=[1.0, 2.0], series={"flat": [0.5, 0.5]})
        assert "polyline" in path.read_text()

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_line_chart(tmp_path / "x.svg", xs=[], series={"a": []})
        with pytest.raises(ValueError):
            write_line_chart(tmp_path / "x.svg", xs=[1.0], series={})
        with pytest.raises(ValueError):
            write_line_chart(tmp_path / "x.svg", xs=[1.0, 2.0], series={"a": [1.0]})
