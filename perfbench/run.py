"""End-to-end benchmark of the hnhn package: ingest -> train -> infer.

    python3 perfbench/run.py --workload cocite_citeseer --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 0

Run from the repository root. A run generates its workload's TSV corpus
from the seed (untimed), sets up once, repeats identical rounds of fits and
inference for about --seconds, checks the outputs against independent
references and prints one JSON object as its last line. With --trace 1 it
reports per-layer metrics from a wrapped copy of the package instead of
the end-to-end ones. The exit status is nonzero when a check fails or the
package is missing.
"""

import argparse
from contextlib import nullcontext
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("cocite_citeseer", "coauthor_dblp", "alpha_sweep")
END_TO_END = {
    "setup_s": "s",
    "train_epochs_per_s": "epochs/s",
    "infer_nodes_per_s": "nodes/s",
    "node_acc": "fraction",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _set_blas_threads() -> int:
    """One BLAS thread, unless set already.

    On a shared machine a second thread makes every product wait for the
    slower of two cores, and its spinning competes with the process's own
    Python thread; one thread keeps the timings to one core's noise.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _quiet_fit_seconds(rounds) -> float:
    """Wall time of one round's fit calls, each part at its fastest.

    Other tenants of the machine only add time, and they come and go within
    seconds. So every epoch of a fit is counted at the fastest gap between
    two Adam steps of that fit over the whole run, and the rest of each call
    (tables, init, the first and last epoch's ends, held-out scoring) at its
    smallest value over the rounds. This assumes the epochs of a fit cost the
    same; work done only in some epochs shows in the traced counts.
    """
    total = 0.0
    for calls in zip(*(r.fit_calls for r in rounds)):
        total += min(c.rest_seconds for c in calls)
        for gaps in zip(*(c.epoch_gaps for c in calls)):
            total += len(gaps[0]) * min(min(g) for g in gaps)
    return total


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def _run_all(args) -> int:
    """Each workload in its own process, so each set-up is cold."""
    merged: dict = {}
    attempted = failed = 0
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = status or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}")
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if status:
        return status
    print(_result(True, attempted, failed, merged))
    return 0


def _measure(w, loaded, seed: int, seconds: float, tracer):
    """Repeat whole rounds while the next one is expected to end no more
    than half a round past `seconds`, so that runs average `seconds`.

    With a tracer, rounds alternate untraced and traced and both start and
    end untraced, so each traced round sits between two untraced ones and
    drift in the machine's speed cancels out of the overhead.
    Returns the rounds and the untraced and traced round durations.
    """
    import workloads

    rounds, plain, traced = [], [], []
    started = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(plain) > len(traced)
        if tracer is not None:
            tracer.enabled = trace_this
        began = time.perf_counter()
        with tracer.region("bench.round") if trace_this else nullcontext():
            rounds.append(workloads.run_round(w, loaded, seed))
        took = time.perf_counter() - began
        (traced if trace_this else plain).append(took)
        if tracer is not None:
            tracer.enabled = False
        may_stop = tracer is None or (traced and len(plain) > len(traced))
        if may_stop and time.perf_counter() - started + took / 2 > seconds:
            return rounds, plain, traced


def _layer_metrics(tracer, setup_mark, rounds_mark, plain, traced) -> dict:
    """Set-up totals plus the mean over traced rounds, and the overhead."""
    from spans import LAYER_METRICS

    setup = tracer.layer_totals(setup_mark, rounds_mark)
    rounds_part = tracer.layer_totals(rounds_mark)
    metrics = {}
    for key, unit in LAYER_METRICS.items():
        value = setup.get(key, 0.0) + rounds_part.get(key, 0.0) / len(traced)
        metrics[key] = {"value": value, "unit": unit}
    metrics["trace.overhead"] = {
        "value": statistics.median(traced) / statistics.median(plain) - 1.0,
        "unit": "fraction",
    }
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC_DIR / "hnhn" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC_DIR}/hnhn", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    blas_threads = _set_blas_threads()
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import numpy as np

    import checks
    import workloads
    from corpora import generate
    from spans import Tracer

    w = workloads.WORKLOADS[args.workload]
    work = BENCH_DIR / "work" / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    tracer = None
    try:
        truth = generate(w.corpus, args.seed, work / "corpus")

        if args.trace:
            tracer = Tracer()
            tracer.install()
            tracer.enabled = True
        setup_mark = tracer.mark() if tracer else None
        began = time.perf_counter()
        with tracer.region("bench.setup") if tracer else nullcontext():
            loaded = workloads.set_up(w, work / "corpus", work / "data", args.seed)
        setup_s = time.perf_counter() - began
        rounds_mark = tracer.mark() if tracer else None

        rounds, plain, traced = _measure(w, loaded, args.seed, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        node_acc = workloads.check_round(w, truth, loaded, rounds[0], args.seed)
        first = rounds[0]
        for r in rounds[1:]:
            if r.node_fit.losses != first.node_fit.losses or not np.array_equal(
                r.predictions, first.predictions
            ):
                raise checks.CheckFailed("two rounds of the same workload trained differently")
    except checks.CheckFailed as exc:
        print(f"perfbench: {w.name} seed {args.seed}: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.write(
                BENCH_DIR / "traces" / f"{w.name}-seed{args.seed}.json",
                {"workload": w.name, "seed": args.seed},
            )
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        metrics = _layer_metrics(tracer, setup_mark, rounds_mark, plain, traced)
    else:
        infer_seconds = [t for r in rounds for t in r.infer_seconds]
        metrics = {
            "setup_s": setup_s,
            # Rounds are identical, and so are passes, and other tenants of the
            # machine only add time: the fastest one is the closest to the
            # program's own cost.
            "train_epochs_per_s": rounds[0].epochs / _quiet_fit_seconds(rounds),
            "infer_nodes_per_s": loaded.h.n / min(infer_seconds),
            "node_acc": node_acc,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}

    attempted = 1 + len(rounds) * w.ops_per_round
    print(
        f"# {w.name} seed={args.seed} n={loaded.h.n} m={loaded.h.m} "
        f"incidences={loaded.h.incidence_count} features={loaded.features.shape[1]} "
        f"rounds={len(rounds)} blas_threads={blas_threads}"
    )
    if tracer is None:
        passes_ms = [1e3 * q for q in np.quantile(infer_seconds, (0.0, 0.1, 0.5, 0.9))]
        print(
            f"# {len(infer_seconds)} inference passes, ms: min {passes_ms[0]:.4g}, "
            f"p10 {passes_ms[1]:.4g}, median {passes_ms[2]:.4g}, p90 {passes_ms[3]:.4g}"
        )
        print(
            "# training epochs/s per round: "
            + ", ".join(f"{r.epochs / sum(c.seconds for c in r.fit_calls):.4g}" for r in rounds)
        )
    for key, metric in metrics.items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(_result(True, attempted, 0, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
