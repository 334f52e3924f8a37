"""Fed-NCL's ambiguous readings, measured over seeds on the desk protocol.

Each reading is one configuration of ``fednoisy.server.Experiment``: 20 iid
clients on 2000 synthetic 784-dim rows (1000 test rows), a 784-64-32-10 MLP,
10 local epochs, and the acceptance suite's noise (Bernoulli, clean_prob 0.7,
within_rate 1.0). Every seed runs in its own process with one training worker.
A reading is compared with its baseline seed by seed.

Fed-NCL readings run 80 rounds, past the default ``t_corr`` of 60, so label
correction (and with it ``train_on``) takes effect. FedAvg readings run
``quantity_skew`` shards, because equal shards make weighted and unweighted
averaging the same.

Columns of the CSV, one row per reading, means over seeds:
  accuracy.last10    mean test accuracy of the last 10 rounds
  detect_f1          per-round F1 of the flagged set against the noisy clients
  wrong_labels_left  labels that differ from the true labels in the rows the
                     clients train on after the run (Fed-NCL only)
  better, worse      seeds whose accuracy.last10 is above or below the
                     baseline's on the same seed
  measured_at        ``git describe --always --dirty`` of the measured tree

Rows already in the output file for readings this call does not run are kept,
so the rows of a removed reading keep the commit they were measured at.

Run from the repository root (about 5 minutes on two cores):
  PYTHONPATH=src python studies/readings.py
"""

from __future__ import annotations

import argparse
import csv
import multiprocessing
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from fednoisy import data
from fednoisy.analysis import mean_last_accuracy
from fednoisy.client import ClientConfig
from fednoisy.data import NoiseSpec, PartitionSpec
from fednoisy.server import Experiment, ServerConfig, detection_precision_recall

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(HERE, "readings.csv")
COLUMNS = ("reading", "aggregator", "partition", "rounds", "seeds",
           "accuracy.last10", "detect_f1", "wrong_labels_left", "better",
           "worse", "measured_at")


@dataclass(frozen=True)
class Reading:
    name: str
    aggregator: str
    partition: str
    rounds: int
    client: dict = field(default_factory=dict)
    baseline: str | None = None


FED_NCL_DEFAULT = "fed_ncl default"
FEDAVG_WEIGHTED = "fedavg weighted"
READINGS = (
    Reading(FED_NCL_DEFAULT, "fed_ncl", data.IID, 80),
    Reading("h_on=local", "fed_ncl", data.IID, 80,
            client={"h_on": "local"}, baseline=FED_NCL_DEFAULT),
    Reading("train_on=relabeled_only", "fed_ncl", data.IID, 80,
            client={"train_on": "relabeled_only"}, baseline=FED_NCL_DEFAULT),
    Reading(FEDAVG_WEIGHTED, "fedavg", data.QUANTITY_SKEW, 40),
)


def run_one(task) -> tuple[float, float, int | None]:
    """(accuracy.last10, mean per-round detection F1, wrong labels left) of
    one reading on one seed."""
    reading, seed, rounds, hidden = task
    pool = data.make_synthetic(10, 300, 784, spread=2.0, seed=(seed, 10))
    exp = Experiment(
        pool.subset(slice(0, 2000)), pool.subset(slice(2000, 3000)),
        partition=PartitionSpec(kind=reading.partition),
        noise=NoiseSpec(mode=data.BERNOULLI, clean_prob=0.7, within_rate=1.0),
        client_config=ClientConfig(**reading.client),
        server_config=ServerConfig(aggregator=reading.aggregator,
                                   rounds=rounds),
        hidden_dims=hidden, seed=seed, workers=1)
    metrics = exp.run()
    f1 = []
    for flagged in exp.history:
        p, r = detection_precision_recall(flagged, exp.noise_rates)
        f1.append(2 * p * r / (p + r) if p + r else 0.0)
    wrong = None
    if reading.aggregator == "fed_ncl":
        wrong = sum(int((a.noisy_labels != a.true_labels).sum())
                    for a in exp.assignments)
    return mean_last_accuracy(metrics), float(np.mean(f1)), wrong


def measured_at() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=HERE, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def study(readings, seeds, rounds, hidden, processes) -> list[dict]:
    tasks = [(r, s, rounds or r.rounds, hidden) for r in readings for s in seeds]
    if processes > 1:
        with multiprocessing.get_context("spawn").Pool(processes) as pool:
            results = pool.map(run_one, tasks, chunksize=1)
    else:
        results = [run_one(t) for t in tasks]
    per_seed = {r.name: results[i * len(seeds):(i + 1) * len(seeds)]
                for i, r in enumerate(readings)}
    stamp = measured_at()
    rows = []
    for r in readings:
        acc, f1, wrong = zip(*per_seed[r.name])
        base = [a for a, _, _ in per_seed[r.baseline]] if r.baseline else acc
        rows.append({
            "reading": r.name, "aggregator": r.aggregator,
            "partition": r.partition, "rounds": rounds or r.rounds,
            "seeds": len(seeds), "accuracy.last10": f"{np.mean(acc):.4f}",
            "detect_f1": f"{np.mean(f1):.4f}",
            "wrong_labels_left": "" if None in wrong else f"{np.mean(wrong):.1f}",
            "better": sum(a > b for a, b in zip(acc, base)) if r.baseline else "",
            "worse": sum(a < b for a, b in zip(acc, base)) if r.baseline else "",
            "measured_at": stamp})
    return rows


def write_rows(path: str, rows: list[dict]) -> None:
    """Write ``rows``, after the rows already in ``path`` for other readings."""
    ran = {row["reading"] for row in rows}
    kept = []
    if os.path.isfile(path):
        with open(path, newline="") as fh:
            kept = [row for row in csv.DictReader(fh) if row["reading"] not in ran]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows + kept)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT, help="CSV to write")
    parser.add_argument("--seeds", type=int, default=10,
                        help="seeds 0..N-1 per reading")
    parser.add_argument("--rounds", type=int, default=0,
                        help="rounds of every reading (0 = each reading's own)")
    parser.add_argument("--hidden", default="64,32",
                        help="comma-separated hidden widths")
    parser.add_argument("--readings", default="",
                        help="comma-separated reading names (default: all); "
                             "their baselines run too")
    parser.add_argument("--processes", type=int, default=2)
    args = parser.parse_args(argv)

    names = {n.strip() for n in args.readings.split(",") if n.strip()}
    unknown = names - {r.name for r in READINGS}
    if unknown:
        parser.error(f"unknown readings: {', '.join(sorted(unknown))}")
    names |= {r.baseline for r in READINGS if r.name in names and r.baseline}
    readings = [r for r in READINGS if not names or r.name in names]
    hidden = tuple(int(h) for h in args.hidden.split(","))
    rows = study(readings, list(range(args.seeds)), args.rounds, hidden,
                 args.processes)
    write_rows(args.out, rows)
    for row in rows:
        print(",".join(str(row[c]) for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
