"""Experiment runner CLI.

Subcommands:
  run            train one aggregator, write metrics/summary/echo
  compare        run several aggregators on identical partitions and noise
  noise-preview  sample client rates and realized flips without training
  cka            layer-similarity report from stored checkpoints

Primary outputs are deterministic under a fixed master seed at any worker
count; per-round timings go to a separate timings.log.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import shutil
import sys

import numpy as np

from . import __version__, analysis, checkpoint, data, server
from .analysis import _f, mean_last_accuracy
from .config import (DEFAULT_FEDPROX_MU, ExperimentConfig, build_config,
                     build_datasets, config_to_dict, parse_config)
from .errors import ConfigError
from .server import Experiment, detection_precision_recall

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2

CKA_PROBE_SIZE = 512


def _ensure_out_dir(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """Set --out/--seed/--workers as top-level keys and validate again."""
    flags = {"out_dir": args.out, "seed": args.seed, "workers": args.workers}
    overrides = {k: v for k, v in flags.items() if v is not None}
    return build_config({**config_to_dict(cfg), **overrides})


def _build_experiment(cfg: ExperimentConfig, train, test,
                      round_hook=None) -> Experiment:
    return Experiment(
        train, test, partition=cfg.partition, noise=cfg.noise,
        client_config=cfg.client, server_config=cfg.server,
        hidden_dims=tuple(cfg.hidden_dims), seed=cfg.seed,
        workers=cfg.resolved_workers(), round_hook=round_hook)


def _summarize(exp: Experiment, metrics) -> dict:
    if metrics:
        final_acc = metrics[-1].test_accuracy
        last10 = mean_last_accuracy(metrics, 10)
        per_round = [detection_precision_recall(flagged, exp.noise_rates)
                     for flagged in exp.history.flagged]
        precision_mean = float(np.mean([p for p, _ in per_round]))
        recall_mean = float(np.mean([r for _, r in per_round]))
        precision_final, recall_final = per_round[-1]
    else:
        final_acc = last10 = analysis.evaluate_accuracy(exp.global_params,
                                                        exp.test_set)
        precision_mean = recall_mean = 1.0
        precision_final = recall_final = 1.0
    return {
        "aggregator": exp.config.aggregator,
        "rounds": len(metrics),
        "final_accuracy": float(_f(final_acc)),
        "mean_last10_accuracy": float(_f(last10)),
        "detection_precision_final": float(_f(precision_final)),
        "detection_recall_final": float(_f(recall_final)),
        "detection_precision_mean": float(_f(precision_mean)),
        "detection_recall_mean": float(_f(recall_mean)),
        "noise_rates": [float(_f(r)) for r in exp.noise_rates],
        "s_corr": sorted(exp.s_corr),
    }


def _write_run_outputs(cfg: ExperimentConfig, exp: Experiment, metrics,
                       out_dir: str) -> None:
    analysis.write_metrics(metrics, os.path.join(out_dir, "metrics.csv"), "csv")
    analysis.write_metrics(metrics, os.path.join(out_dir, "metrics.jsonl"),
                           "jsonl")
    _write_json(os.path.join(out_dir, "summary.json"), _summarize(exp, metrics))
    with open(os.path.join(out_dir, "timings.log"), "w") as fh:
        for m in metrics:
            fh.write(f"round {m.round_idx}: {m.wall_clock:.3f}s\n")


def _clear_previous_run(out_dir: str) -> None:
    """Remove the checkpoint rounds, CKA probe and CKA tables an earlier run
    left in ``out_dir``, so that ``cka`` never reports on another run's
    models."""
    ckpt_base = os.path.join(out_dir, "checkpoints")
    stale = glob.glob(os.path.join(out_dir, "cka_layer_*.csv"))
    stale.append(os.path.join(out_dir, "cka_mean_depth.csv"))
    stale.append(os.path.join(ckpt_base, checkpoint.PROBE_NAME))
    for path in stale:
        if os.path.isfile(path):
            os.remove(path)
    for round_idx in checkpoint.available_rounds(ckpt_base):
        path = checkpoint.round_dir(ckpt_base, round_idx)
        if os.path.isdir(path):
            shutil.rmtree(path)


def _train_into(cfg: ExperimentConfig, train, test, out_dir: str) -> list:
    """Train ``cfg``'s experiment and write its outputs to ``out_dir``. With
    save_checkpoints, the CKA probe (the first test rows, which ``cka``
    reads back) and every ``checkpoint_every``-th round go to
    ``out_dir/checkpoints``."""
    hook = None
    if cfg.save_checkpoints:
        ckpt_dir = os.path.join(out_dir, "checkpoints")
        probe_id = checkpoint.save_probe(ckpt_dir,
                                         test.features[:CKA_PROBE_SIZE])

        def hook(round_idx, updates, new_global):
            if round_idx % cfg.checkpoint_every == 0:
                checkpoint.save_round(ckpt_dir, round_idx, new_global,
                                      [u.params for u in updates],
                                      exp.noise_rates, probe_id=probe_id)

    exp = _build_experiment(cfg, train, test, round_hook=hook)
    metrics = exp.run()
    _write_run_outputs(cfg, exp, metrics, out_dir)
    return metrics


def cmd_run(cfg: ExperimentConfig) -> int:
    out_dir = _ensure_out_dir(cfg)
    _write_json(os.path.join(out_dir, "config_echo.json"), config_to_dict(cfg))
    _clear_previous_run(out_dir)
    train, test = build_datasets(cfg)
    metrics = _train_into(cfg, train, test, out_dir)
    acc = metrics[-1].test_accuracy if metrics else float("nan")
    print(f"run complete: {len(metrics)} rounds, "
          f"final accuracy {acc:.4f}, outputs in {out_dir}")
    return EXIT_OK


def cmd_compare(cfg: ExperimentConfig, aggregators: list[str]) -> int:
    if len(aggregators) < 2:
        raise ConfigError("compare needs at least 2 aggregators")
    for name in aggregators:
        if name not in server.AGGREGATORS:
            raise ConfigError(
                f"aggregator {name!r} must be one of {', '.join(server.AGGREGATORS)}")
    out_dir = _ensure_out_dir(cfg)
    _write_json(os.path.join(out_dir, "config_echo.json"), config_to_dict(cfg))
    train, test = build_datasets(cfg)

    columns: dict[str, list[float]] = {}
    for name in aggregators:
        sub = dataclasses.replace(cfg.server, aggregator=name)
        # the proximal term defines FedProx; the other aggregators run without it
        if name == server.FEDPROX:
            mu = cfg.client.prox_mu or DEFAULT_FEDPROX_MU
        else:
            mu = 0.0
        client_cfg = dataclasses.replace(cfg.client, prox_mu=mu)
        run_cfg = dataclasses.replace(cfg, server=sub, client=client_cfg)
        sub_dir = os.path.join(out_dir, name)
        os.makedirs(sub_dir, exist_ok=True)
        _clear_previous_run(sub_dir)
        metrics = _train_into(run_cfg, train, test, sub_dir)
        columns[name] = [m.test_accuracy for m in metrics]
        print(f"{name}: final accuracy "
              f"{columns[name][-1] if columns[name] else float('nan'):.4f}")

    rounds = min(len(v) for v in columns.values())
    with open(os.path.join(out_dir, "comparison.csv"), "w") as fh:
        fh.write("round," + ",".join(aggregators) + "\n")
        for r in range(rounds):
            row = [str(r + 1)] + [_f(columns[a][r]) for a in aggregators]
            fh.write(",".join(row) + "\n")
    print(f"comparison written to {os.path.join(out_dir, 'comparison.csv')}")
    return EXIT_OK


def cmd_noise_preview(cfg: ExperimentConfig) -> int:
    out_dir = _ensure_out_dir(cfg)
    _write_json(os.path.join(out_dir, "config_echo.json"), config_to_dict(cfg))
    train, _ = build_datasets(cfg)
    assignments = data.make_partitions(train, cfg.partition,
                                       cfg.server.num_clients, cfg.seed)
    rates = data.sample_client_noise_rates(cfg.noise, cfg.server.num_clients,
                                           (cfg.seed, 1))
    rows = []
    print(f"{'client':>6} {'samples':>8} {'rate':>8} {'realized':>9}")
    for a, rate in zip(assignments, rates):
        noisy = data.apply_symmetric_noise(a, float(rate), train.num_classes,
                                           (cfg.seed, 2, a.client_id))
        realized = float((noisy.noisy_labels != noisy.true_labels).mean())
        rows.append((a.client_id, len(a), float(rate), realized))
        print(f"{a.client_id:>6} {len(a):>8} {rate:>8.4f} {realized:>9.4f}")
    with open(os.path.join(out_dir, "noise_profile.csv"), "w") as fh:
        fh.write("client_id,n_samples,rate,realized_flip_fraction\n")
        for cid, n, rate, realized in rows:
            fh.write(f"{cid},{n},{_f(rate)},{_f(realized)}\n")
    return EXIT_OK


def cmd_cka(cfg: ExperimentConfig, round_idx: int | None) -> int:
    ckpt_base = os.path.join(cfg.out_dir, "checkpoints")
    rounds = checkpoint.available_rounds(ckpt_base)
    if not rounds:
        raise FileNotFoundError(
            f"no checkpoints under {ckpt_base}; run with "
            f"save_checkpoints=true first (expected {ckpt_base}/round_NNNN/)")
    if round_idx is None:
        round_idx = rounds[-1]
    elif round_idx not in rounds:
        raise ConfigError(
            f"no checkpoint for round {round_idx} under {ckpt_base}; saved "
            f"rounds: {', '.join(map(str, rounds))}")
    path = checkpoint.round_dir(ckpt_base, round_idx)
    manifest = checkpoint.read_manifest(path)
    # the run's own probe: the config's dataset and seed are not read, and
    # the run's config echo stays its own
    probe = checkpoint.read_probe(ckpt_base, manifest)
    out_dir = cfg.out_dir
    global_params = checkpoint.read_model(path, manifest["global"], manifest)
    noisy_ids = [c for c, r in enumerate(manifest["noise_rates"]) if r > 0]
    # streamed: one client model is alive at a time
    report = analysis.cka_layer_report(
        checkpoint.client_models(path, manifest), global_params, probe,
        noisy_ids)

    names = [f"client{c}" for c in range(report.num_clients)] + ["global"]
    for l, mat in enumerate(report.matrices):
        with open(os.path.join(out_dir, f"cka_layer_{l}.csv"), "w") as fh:
            fh.write("model," + ",".join(names) + "\n")
            for name, row in zip(names, mat):
                fh.write(name + "," + ",".join(_f(v) for v in row) + "\n")
    with open(os.path.join(out_dir, "cka_mean_depth.csv"), "w") as fh:
        fh.write("layer,mean_cka_global_noisy,mean_cka_global_clean\n")
        for l in range(report.num_layers):
            fh.write(f"{l},{_f(report.mean_noisy[l])},"
                     f"{_f(report.mean_clean[l])}\n")
    print(f"CKA report for round {round_idx} "
          f"({report.num_layers} layers) written to {out_dir}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fednoisy",
        description="Federated learning simulator with noisy clients")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--workers", type=int,
                       help="training worker threads "
                            "(0 = all available cores)")

    common(sub.add_parser("run", help="run one experiment"))
    p_cmp = sub.add_parser("compare", help="run several aggregators")
    common(p_cmp)
    p_cmp.add_argument("--aggregators", required=True,
                       help="comma-separated list, e.g. fedavg,fed_ncl")
    common(sub.add_parser("noise-preview",
                          help="sample noise rates without training"))
    p_cka = sub.add_parser("cka", help="layer similarity from checkpoints")
    common(p_cka)
    p_cka.add_argument("--round", type=int, default=None,
                       help="checkpoint round (default: latest)")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(parse_config(args.config), args)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "compare":
            names = [a.strip() for a in args.aggregators.split(",") if a.strip()]
            return cmd_compare(cfg, names)
        if args.command == "noise-preview":
            return cmd_noise_preview(cfg)
        if args.command == "cka":
            return cmd_cka(cfg, args.round)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as err:  # surfaced with a diagnostic, nonzero exit
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
