"""End-to-end CLI tests driven through main(argv): file layouts, stdout
contracts, exit codes, and determinism of the written artifacts."""

import csv
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hnhn.autodiff import write_tensor
from hnhn.bench import BenchPoint
from hnhn.cli import main
from hnhn.expansion import FANO_EDGES, clique_adjacency
from hnhn.hypergraph import build_hypergraph, write_hypergraph
from hnhn.synthetic import identity_features, planted_two_communities
from hnhn.verify import CheckResult


@pytest.fixture()
def fano_corpus(tmp_path):
    """Seven docs with unique vocabularies joined by the seven plane lines."""
    words = ["alpha", "bravo", "carol", "delta", "echo", "fox", "golf"]
    docs = tmp_path / "docs.tsv"
    docs.write_text(
        "".join(f"d{i}\tpoint {words[i]} text{i}\n" for i in range(7)),
        encoding="utf-8",
    )
    relations = tmp_path / "relations.tsv"
    relations.write_text(
        "".join(
            f"r{j}\t{' '.join(f'd{i}' for i in members)}\n"
            for j, members in enumerate(FANO_EDGES)
        ),
        encoding="utf-8",
    )
    labels = tmp_path / "labels.tsv"
    labels.write_text(
        "d0\teven\nd1\todd\nd2\teven\nd3\todd\n", encoding="utf-8"
    )
    return docs, relations, labels


@pytest.fixture()
def data_dir(tmp_path):
    """Ingested-format directory for a small planted two-community task."""
    h, labels = planted_two_communities(n=24, m=8, seed=0, min_size=3, max_size=5)
    root = tmp_path / "data"
    root.mkdir()
    write_hypergraph(h, root / "hypergraph.txt")
    with open(root / "features.bin", "wb") as fh:
        write_tensor(fh, identity_features(h.n))
    with open(root / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "label"])
        for i, label in enumerate(labels):
            writer.writerow([i, int(label)])
    edge_labels = [int(labels[members[0]]) for members in h.edge_to_nodes]
    with open(root / "edge_labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["edge", "label"])
        for j, label in enumerate(edge_labels):
            writer.writerow([j, label])
    return root


FAST_TRAIN = [
    "--epochs", "12", "--hidden", "16", "--dropout", "0.0",
    "--label-rate", "0.5", "--lr", "0.04",
]


class TestIngest:
    def test_fano_fixture_stats_line(self, fano_corpus, tmp_path, capsys):
        docs, relations, labels = fano_corpus
        code = main(
            [
                "ingest",
                "--docs", str(docs),
                "--relations", str(relations),
                "--labels", str(labels),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "n=7 m=7 avg_deg=3.00" in captured.out
        phases = dict(field.split("=") for field in captured.err.split())
        assert list(phases) == ["load_s", "hypergraph_s", "features_s", "write_s"]
        assert all(float(seconds) >= 0.0 for seconds in phases.values())
        for name in ("hypergraph.txt", "features.bin", "labels.csv",
                     "edge_labels.csv", "vocab.txt", "classes.txt"):
            assert (tmp_path / "out" / name).is_file()

    def test_missing_input_file_fails_cleanly(self, tmp_path, capsys):
        code = main(
            [
                "ingest",
                "--docs", str(tmp_path / "absent.tsv"),
                "--relations", str(tmp_path / "absent2.tsv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_metrics_csv_and_summary(self, data_dir, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        code = main(["train", "--data", str(data_dir), *FAST_TRAIN, "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "loss", "train_acc", "test_acc"]
        assert len(rows) == 1 + 12
        assert [r[0] for r in rows[1:]] == [str(e) for e in range(12)]
        summary = dict(
            line.split("=", 1)
            for line in (tmp_path / "metrics.csv.summary").read_text().splitlines()
        )
        assert summary["task"] == "node"
        assert summary["epochs"] == "12"
        assert 0.0 <= float(summary["accuracy_mean"]) <= 1.0
        assert float(summary["seconds"]) > 0.0
        assert "accuracy" in capsys.readouterr().out

    def test_repeated_run_writes_identical_bytes(self, data_dir, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["train", "--data", str(data_dir), *FAST_TRAIN, "--seed", "3"]
        assert main([*args, "--out", str(first)]) == 0
        assert main([*args, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_multi_seed_adds_seed_column(self, data_dir, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(
            [
                "train", "--data", str(data_dir), *FAST_TRAIN,
                "--seeds", "2", "--out", str(out),
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "epoch", "loss", "train_acc", "test_acc"]
        assert len(rows) == 1 + 2 * 12
        summary = dict(
            line.split("=", 1)
            for line in (tmp_path / "metrics.csv.summary").read_text().splitlines()
        )
        assert summary["seeds"] == "2"

    def test_zero_epochs_is_a_usage_error(self, data_dir, tmp_path, capsys):
        code = main(
            [
                "train", "--data", str(data_dir), "--epochs", "0",
                "--label-rate", "0.5", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_data_dir_fails(self, tmp_path, capsys):
        code = main(
            ["train", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_env_seed_is_the_default(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("HNHN_SEED", "5")
        out = tmp_path / "metrics.csv"
        assert main(["train", "--data", str(data_dir), *FAST_TRAIN, "--out", str(out)]) == 0
        summary = dict(
            line.split("=", 1)
            for line in (tmp_path / "metrics.csv.summary").read_text().splitlines()
        )
        assert summary["base_seed"] == "5"

    def test_invalid_env_seed_rejected(self, monkeypatch):
        monkeypatch.setenv("HNHN_SEED", "not-a-number")
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "fano"])


class TestTrainEdges:
    def test_edge_task_summary(self, data_dir, tmp_path):
        out = tmp_path / "edge_metrics.csv"
        code = main(
            ["train-edges", "--data", str(data_dir), *FAST_TRAIN, "--out", str(out)]
        )
        assert code == 0
        summary = dict(
            line.split("=", 1)
            for line in (tmp_path / "edge_metrics.csv.summary").read_text().splitlines()
        )
        assert summary["task"] == "edge"


class TestSweep:
    def test_singleton_grid_row_and_svg(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        code = main(
            [
                "sweep", "--data", str(data_dir),
                "--epochs", "2", "--hidden", "8", "--dropout", "0.0",
                "--label-rate", "0.5",
                "--axis", "alpha", "--grid", "0.25", "--fixed", "-0.5",
                "--folds", "2", "--out", str(out), "--svg", str(svg),
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "beta", "cv_acc_mean", "cv_acc_std"]
        assert len(rows) == 2
        assert rows[1][0] == "0.25" and rows[1][1] == "-0.5"
        assert "best alpha=0.25 beta=-0.5" in capsys.readouterr().out
        ET.fromstring(svg.read_text())

    def test_malformed_grid_is_a_usage_error(self, data_dir, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep", "--data", str(data_dir),
                    "--grid", "0.1,zebra", "--out", str(tmp_path / "s.csv"),
                ]
            )


class TestVerify:
    def test_fano_suite_output(self, capsys):
        code = main(["verify", "--suite", "fano"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("PASS ") for line in lines)
        assert "clique outputs identical" in out
        assert "HNHN outputs differ" in out

    def test_all_suites(self, capsys):
        code = main(["verify", "--suite", "all"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 8

    def test_failures_flip_the_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "hnhn.cli.run_suites",
            lambda which, seed: [CheckResult("broken", False, "synthetic failure")],
        )
        code = main(["verify", "--suite", "all"])
        assert code == 1
        assert "FAIL broken: synthetic failure" in capsys.readouterr().out


class TestExpand:
    def test_clique_csv_matches_dense_adjacency(self, tmp_path, capsys):
        h = build_hypergraph(FANO_EDGES, 7)
        source = tmp_path / "h.txt"
        write_hypergraph(h, source)
        out = tmp_path / "clique.csv"
        code = main(
            ["expand", "--hypergraph", str(source), "--kind", "clique", "--out", str(out)]
        )
        assert code == 0
        assert "clique adjacency 7x7" in capsys.readouterr().out
        with open(out, newline="") as fh:
            matrix = np.array([[float(v) for v in row] for row in csv.reader(fh)])
        assert np.array_equal(matrix, clique_adjacency(h))

    def test_star_kind_is_square_on_n_plus_m(self, tmp_path):
        h = build_hypergraph(FANO_EDGES, 7)
        source = tmp_path / "h.txt"
        write_hypergraph(h, source)
        out = tmp_path / "star.csv"
        assert main(["expand", "--hypergraph", str(source), "--kind", "star", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 14 and len(rows[0]) == 14

    def test_missing_hypergraph_fails(self, tmp_path, capsys):
        code = main(
            ["expand", "--hypergraph", str(tmp_path / "no.txt"), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_small_size_passes(self, capsys):
        code = main(["gradcheck", "--size", "small"])
        assert code == 0
        assert "max relative gradient error" in capsys.readouterr().out


class TestBenchCommand:
    @staticmethod
    def _stub(points, exponent):
        def fake(seed=0, repeats=5):
            return points, exponent
        return fake

    POINTS = [
        BenchPoint(scale=1, incidence=1000, seconds=0.01),
        BenchPoint(scale=2, incidence=2000, seconds=0.02),
        BenchPoint(scale=4, incidence=4000, seconds=0.04),
    ]

    def test_scale_sweep_reports_exponent(self, capsys, monkeypatch):
        monkeypatch.setattr("hnhn.cli.run_scaling_bench", self._stub(self.POINTS, 1.0))
        code = main(["bench", "--scale-sweep"])
        assert code == 0
        captured = capsys.readouterr()
        assert "fitted scaling exponent: 1.000" in captured.out
        assert captured.out.count("scale ") == 3
        assert "warning" not in captured.err

    def test_superlinear_exponent_warns(self, capsys, monkeypatch):
        monkeypatch.setattr("hnhn.cli.run_scaling_bench", self._stub(self.POINTS, 1.7))
        code = main(["bench", "--scale-sweep"])
        assert code == 0
        assert "warning: exponent 1.700 exceeds 1.5" in capsys.readouterr().err

    def test_single_point_mode(self, capsys, monkeypatch):
        monkeypatch.setattr("hnhn.cli.run_scaling_bench", self._stub(self.POINTS, 1.0))
        code = main(["bench"])
        assert code == 0
        assert "1x step: incidence=1000" in capsys.readouterr().out


class TestModuleEntry:
    def test_python_dash_m_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "hnhn", "verify", "--suite", "fano"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "PASS fano-model-separates" in result.stdout
