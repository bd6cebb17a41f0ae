"""Command-line front end: ingest, train, train-edges, sweep, verify,
expand, gradcheck, bench.

Diagnostics go to stderr; results go to files and stdout. Every subcommand
is deterministic for a fixed --seed (HNHN_SEED is the fallback default).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from pathlib import Path

import numpy as np

from .autodiff import read_tensor
from .bench import run_scaling_bench
from .data import load_labels, run_ingest, split_labeled
from .expansion import clique_adjacency, star_adjacency
from .gradcheck import REL_TOL, gradcheck_model
from .hypergraph import read_hypergraph
from .plot import write_line_chart
from .training import (
    DEFAULT_SWEEP_VALUES,
    RunMetrics,
    TrainConfig,
    axis_sweep_grid,
    cross_validate_alpha_beta,
    summarize_accuracies,
    train_edge_classifier,
    train_node_classifier,
)
from .verify import run_suites

BENCH_EXPONENT_WARN = 1.5


def _env_seed() -> int:
    raw = os.environ.get("HNHN_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"HNHN_SEED must be an integer, got {raw!r}")


def _require_files(*paths: str | Path) -> None:
    missing = [str(p) for p in paths if not Path(p).is_file()]
    if missing:
        raise FileNotFoundError(f"missing input file(s): {', '.join(missing)}")


def _load_data_dir(data_dir: str) -> tuple:
    root = Path(data_dir)
    _require_files(root / "hypergraph.txt", root / "features.bin", root / "labels.csv")
    h = read_hypergraph(root / "hypergraph.txt")
    with open(root / "features.bin", "rb") as fh:
        features = read_tensor(fh)
    if features.shape[0] != h.n:
        raise ValueError(
            f"feature rows {features.shape[0]} do not match {h.n} hypernodes"
        )
    labels = load_labels(root / "labels.csv")
    if len(labels) < h.n:
        labels = np.concatenate([labels, np.full(h.n - len(labels), -1, dtype=np.int64)])
    return h, features, labels


def _write_metrics_csv(path: str, runs: list[tuple[int, RunMetrics]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["epoch", "loss", "train_acc", "test_acc"]
        if len(runs) > 1:
            header = ["seed"] + header
        writer.writerow(header)
        for seed, metrics in runs:
            for i, epoch in enumerate(metrics.epochs):
                row = [
                    epoch,
                    repr(metrics.losses[i]),
                    repr(metrics.train_accs[i]),
                    repr(metrics.test_accs[i]),
                ]
                if len(runs) > 1:
                    row = [seed] + row
                writer.writerow(row)


def _write_summary(path: str, entries: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def _config_from_args(args, seed: int) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        lr0=args.lr,
        dropout=args.dropout,
        hidden_dim=args.hidden,
        n_layers=args.layers,
        alpha=args.alpha,
        beta=args.beta,
        seed=seed,
    )


def _cmd_ingest(args) -> int:
    _require_files(args.docs, args.relations)
    if args.labels is not None:
        _require_files(args.labels)
    stats = run_ingest(
        args.docs,
        args.relations,
        args.labels,
        args.out,
        mode=args.mode,
        feature_kind=args.features,
        vocab_size=args.vocab,
        max_doc_freq=args.max_df,
    )
    print(
        f"n={stats['n']} m={stats['m']} avg_deg={stats['avg_deg']:.2f} "
        f"avg_edge_size={stats['avg_edge_size']:.2f} "
        f"feature_dim={stats['feature_dim']} classes={stats['classes']} "
        f"labeled_nodes={stats['labeled_nodes']} labeled_edges={stats['labeled_edges']}"
    )
    print(
        " ".join(
            f"{phase}={stats[phase]:.3f}"
            for phase in ("load_s", "hypergraph_s", "features_s", "write_s")
        ),
        file=sys.stderr,
    )
    return 0


def _run_training(args, on_edges: bool) -> int:
    h, features, node_labels = _load_data_dir(args.data)
    if on_edges:
        root = Path(args.data)
        _require_files(root / "edge_labels.csv")
        labels = load_labels(root / "edge_labels.csv")
        if len(labels) < h.m:
            labels = np.concatenate(
                [labels, np.full(h.m - len(labels), -1, dtype=np.int64)]
            )
    else:
        labels = node_labels

    runs: list[tuple[int, RunMetrics]] = []
    started = time.perf_counter()
    for k in range(args.seeds):
        seed = args.seed + k
        train_mask, _ = split_labeled(labels, args.label_rate, seed=seed)
        config = _config_from_args(args, seed)
        trainer = train_edge_classifier if on_edges else train_node_classifier
        _, metrics = trainer(h, features, labels, train_mask, config)
        runs.append((seed, metrics))
        print(
            f"seed {seed}: final test acc {metrics.final_test_acc:.4f} "
            f"({metrics.seconds:.1f}s)",
            file=sys.stderr,
        )
    total_seconds = time.perf_counter() - started

    _write_metrics_csv(args.out, runs)
    mean, std = summarize_accuracies([m.final_test_acc for _, m in runs])
    _write_summary(
        args.out + ".summary",
        {
            "task": "edge" if on_edges else "node",
            "accuracy_mean": repr(mean),
            "accuracy_std": repr(std),
            "seconds": f"{total_seconds:.3f}",
            "alpha": repr(args.alpha),
            "beta": repr(args.beta),
            "epochs": args.epochs,
            "hidden": args.hidden,
            "dropout": repr(args.dropout),
            "lr0": repr(args.lr),
            "label_rate": repr(args.label_rate),
            "seeds": args.seeds,
            "base_seed": args.seed,
        },
    )
    print(f"accuracy {mean:.4f} +- {std:.4f} over {args.seeds} seed(s)")
    return 0


def _cmd_train(args) -> int:
    return _run_training(args, on_edges=False)


def _cmd_train_edges(args) -> int:
    return _run_training(args, on_edges=True)


def _cmd_sweep(args) -> int:
    h, features, labels = _load_data_dir(args.data)
    values = DEFAULT_SWEEP_VALUES if args.grid is None else _parse_grid(args.grid)
    grid = axis_sweep_grid(values, axis=args.axis, fixed=args.fixed)
    train_mask, _ = split_labeled(labels, args.label_rate, seed=args.seed)
    config = _config_from_args(args, args.seed)
    best, cells = cross_validate_alpha_beta(
        h, features, labels, train_mask, grid, args.folds, config
    )
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta", "cv_acc_mean", "cv_acc_std"])
        for cell in cells:
            writer.writerow(
                [repr(cell.alpha), repr(cell.beta), repr(cell.mean), repr(cell.std)]
            )
    if args.svg:
        write_line_chart(
            args.svg,
            values,
            {"cv accuracy": [cell.mean for cell in cells]},
            title=f"{args.axis} sweep ({args.folds}-fold)",
            x_label=args.axis,
            y_label="accuracy",
        )
    print(f"best alpha={best[0]} beta={best[1]}")
    return 0


def _parse_grid(raw: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise SystemExit(f"malformed grid {raw!r}; expected comma-separated numbers")
    if not values:
        raise SystemExit("grid is empty")
    return values


def _cmd_verify(args) -> int:
    results = run_suites(args.suite, seed=args.seed)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failed += not result.passed
        print(f"{status} {result.name}: {result.detail}")
    return 1 if failed else 0


def _cmd_expand(args) -> int:
    _require_files(args.hypergraph)
    h = read_hypergraph(args.hypergraph)
    matrix = clique_adjacency(h) if args.kind == "clique" else star_adjacency(h)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in matrix:
            writer.writerow([f"{value:.12g}" for value in row])
    print(f"{args.kind} adjacency {matrix.shape[0]}x{matrix.shape[1]} -> {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    worst = gradcheck_model(args.size)
    print(f"max relative gradient error: {worst:.3g} (tolerance {REL_TOL:g})")
    return 0 if worst < REL_TOL else 1


def _cmd_bench(args) -> int:
    if args.scale_sweep:
        points, exponent = run_scaling_bench(seed=args.seed)
        for point in points:
            print(
                f"scale {point.scale}x: incidence={point.incidence} "
                f"seconds={point.seconds:.4f}"
            )
        print(f"fitted scaling exponent: {exponent:.3f}")
        if exponent > BENCH_EXPONENT_WARN:
            print(
                f"warning: exponent {exponent:.3f} exceeds {BENCH_EXPONENT_WARN}",
                file=sys.stderr,
            )
        return 0
    points, _ = run_scaling_bench(seed=args.seed, repeats=3)
    print(f"1x step: incidence={points[0].incidence} seconds={points[0].seconds:.4f}")
    return 0


def _add_train_flags(parser: argparse.ArgumentParser, label_rate: float) -> None:
    parser.add_argument("--data", required=True, help="ingested data directory")
    parser.add_argument("--alpha", type=float, default=0.0)
    parser.add_argument("--beta", type=float, default=0.0)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--lr", type=float, default=0.04)
    parser.add_argument("--hidden", type=int, default=400)
    parser.add_argument("--dropout", type=float, default=0.3)
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--label-rate", type=float, default=label_rate)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hnhn",
        description="Hypergraph representation learning with two-phase "
        "normalized convolutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed_default = _env_seed()

    p = sub.add_parser("ingest", help="corpus TSVs -> hypergraph + features")
    p.add_argument("--docs", required=True)
    p.add_argument("--relations", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--mode", choices=("cocite", "coauthor"), default="cocite")
    p.add_argument("--features", choices=("tfidf", "bow"), default="tfidf")
    p.add_argument("--vocab", type=int, default=1000)
    p.add_argument("--max-df", type=float, default=0.2)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("train", help="node classification")
    _add_train_flags(p, label_rate=0.15)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--seed", type=int, default=seed_default)
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("train-edges", help="hyperedge classification")
    _add_train_flags(p, label_rate=0.15)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--seed", type=int, default=seed_default)
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.set_defaults(fn=_cmd_train_edges)

    p = sub.add_parser("sweep", help="cross-validated normalization sweep")
    _add_train_flags(p, label_rate=0.15)
    p.add_argument("--axis", choices=("alpha", "beta"), default="alpha")
    p.add_argument("--grid", default=None, help="comma-separated exponent values")
    p.add_argument("--fixed", type=float, default=0.0, help="value of the other axis")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=seed_default)
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.add_argument("--svg", default=None, help="optional line-chart path")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify", help="structural check suites")
    p.add_argument(
        "--suite", choices=("lemmas", "fano", "spectral", "all"), default="all"
    )
    p.add_argument("--seed", type=int, default=seed_default)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("expand", help="write a dense expansion adjacency as CSV")
    p.add_argument("--hypergraph", required=True)
    p.add_argument("--kind", choices=("clique", "star"), default="clique")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--size", choices=("small", "medium"), default="small")
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("bench", help="forward+backward timing")
    p.add_argument("--scale-sweep", action="store_true")
    p.add_argument("--seed", type=int, default=seed_default)
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
