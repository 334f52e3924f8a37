"""One repeat of a workload, in a fresh process.

Usage: python3 child.py JOB.json

The job names the fednoisy source tree, the experiment config, the output
directory, the CLI commands to issue and whether to trace. The child issues
the commands through ``fednoisy.cli.main``, then checks and measures what
they wrote, then times set-up on its own, and writes a JSON report. Peak RSS
is read before the set-up timing, so it covers the CLI commands only.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import os
import resource
import statistics
import sys
import time


def detect_f1(metrics_csv: str, noise_rates: list[float]) -> float:
    """Mean per-round F1 of the flagged set against clients with rate > 0."""
    noisy = {c for c, r in enumerate(noise_rates) if r > 0}
    flagged: dict[int, set[int]] = {}
    with open(metrics_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            got = flagged.setdefault(int(row["round"]), set())
            if row["flagged"] == "1":
                got.add(int(row["client_id"]))
    scores = []
    for fl in flagged.values():
        denom = len(fl) + len(noisy)
        scores.append(1.0 if denom == 0 else 2 * len(fl & noisy) / denom)
    return statistics.fmean(scores)


def cka_problems(out_dir: str, n_models: int) -> list[str]:
    """Each CKA matrix must be symmetric, unit-diagonal and inside [0, 1]."""
    paths = sorted(glob.glob(os.path.join(out_dir, "cka_layer_*.csv")))
    if not paths:
        return ["no cka_layer_*.csv written"]
    problems = []
    for path in paths:
        with open(path, newline="") as fh:
            rows = [[float(v) for v in row[1:]] for row in list(csv.reader(fh))[1:]]
        name = os.path.basename(path)
        if len(rows) != n_models or any(len(r) != n_models for r in rows):
            problems.append(f"{name}: not {n_models}x{n_models}")
            continue
        for i in range(n_models):
            if rows[i][i] != 1.0:
                problems.append(f"{name}: diagonal [{i}] = {rows[i][i]}")
            for j in range(n_models):
                if rows[i][j] != rows[j][i]:
                    problems.append(f"{name}: [{i},{j}] != [{j},{i}]")
                if not 0.0 <= rows[i][j] <= 1.0:
                    problems.append(f"{name}: [{i},{j}] = {rows[i][j]} outside [0, 1]")
    return problems[:10]


def time_setup(config, server, cfg_path: str) -> float:
    """Config parse, datasets built and Experiment constructed, as ``run`` does."""
    t0 = time.perf_counter()
    cfg = config.parse_config(cfg_path)
    train, test = config.build_datasets(cfg)
    server.Experiment(
        train, test, partition=cfg.partition, noise=cfg.noise,
        client_config=cfg.client, server_config=cfg.server,
        hidden_dims=tuple(cfg.hidden_dims), seed=cfg.seed,
        workers=cfg.resolved_workers())
    return time.perf_counter() - t0


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import fednoisy
    from fednoisy import cli, config, server

    if not os.path.abspath(fednoisy.__file__).startswith(job["src"] + os.sep):
        raise SystemExit(f"imported fednoisy from {fednoisy.__file__}, "
                         f"not from {job['src']}")

    out_dir = job["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    cfg_doc = dict(job["config"], out_dir=out_dir)
    cfg_path = os.path.join(out_dir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg_doc, fh)

    # The program measures each round's wall time itself (RoundMetrics
    # .wall_clock); keeping a handle on the Experiment the CLI builds reads
    # it without adding a wrapper to the round.
    experiments = []

    class RecordingExperiment(server.Experiment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            experiments.append(self)

    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracer_mod
        tracer = tracer_mod.install()

    report: dict = {"exit_codes": [], "command_s": []}
    original_experiment = cli.Experiment
    cli.Experiment = RecordingExperiment
    try:
        for command in job["commands"]:
            t0 = time.perf_counter()
            code = cli.main([command, "--config", cfg_path])
            report["command_s"].append(time.perf_counter() - t0)
            report["exit_codes"].append(code)
            if code != 0:
                break
    finally:
        cli.Experiment = original_experiment
        if tracer is not None:
            tracer.uninstall()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    if tracer is not None:
        problems += [f"wrapper left installed: {name}"
                     for name in tracer.leftovers()]
        report["wrappers_left"] = tracer.leftovers()
        report["trace"] = tracer.summary()
        tracer.write_spans(job["spans"])
    if any(code != 0 for code in report["exit_codes"]):
        problems.append(f"command exit codes {report['exit_codes']}")

    metrics_csv = os.path.join(out_dir, "metrics.csv")
    if experiments and os.path.isfile(metrics_csv):
        exp = experiments[0]
        with open(metrics_csv, "rb") as fh:
            report["digest"] = hashlib.sha256(fh.read()).hexdigest()
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        report["round_s"] = [m.wall_clock for m in exp.metrics]
        report["accuracy_last10"] = summary["mean_last10_accuracy"]
        report["detect_f1"] = detect_f1(metrics_csv, summary["noise_rates"])
        report["checkpoints"] = len(glob.glob(
            os.path.join(out_dir, "checkpoints", "round_*")))
        if "cka" in job["commands"]:
            found = cka_problems(out_dir, exp.config.num_clients + 1)
            report["cka_ok"] = not found
            problems += found
    else:
        problems.append("run wrote no metrics.csv")

    report["setup_s"] = [time_setup(config, server, cfg_path)
                         for _ in range(job["setup_reps"])]
    report["problems"] = problems
    with open(job["report"], "w") as fh:
        json.dump(report, fh)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
