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
import glob
import json
import os
import shutil
import sys

import numpy as np

from . import __version__, analysis, checkpoint, nn, server
from .analysis import _f, mean_last_accuracy
from .config import (ExperimentConfig, build_config, build_datasets,
                     config_to_dict, parse_config)
from .errors import ConfigError
from .server import Experiment, detection_precision_recall

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2

CKA_PROBE_SIZE = 512
# cka writes nothing that training reads, and _layer_cka's (8d x 512) @
# (512 x d) GEMMs run ~1.5x faster on two threads (d=64, 101 models: 476 ms
# against 731 ms on one). A fixed count keeps its tables host-independent.
CKA_BLAS_THREADS = 2

_METRIC_FORMATS = (analysis.CSV_FORMAT, analysis.JSONL_FORMAT)
_ROUND_FILES = tuple(f"metrics.{fmt}" for fmt in _METRIC_FORMATS) + ("timings.log",)


def _start_out_dir(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(os.path.join(cfg.out_dir, "config_echo.json"), config_to_dict(cfg))
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


def _summarize(exp: Experiment) -> dict:
    metrics = exp.metrics
    if metrics:
        final_acc = metrics[-1].test_accuracy
        last10 = mean_last_accuracy(metrics)
        per_round = [detection_precision_recall(flagged, exp.noise_rates)
                     for flagged in exp.history]
        precision_mean, recall_mean = (float(np.mean(v)) for v in zip(*per_round))
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


def _clear_previous_run(out_dir: str) -> None:
    """Remove the run files, checkpoint rounds, CKA probe and CKA tables an
    earlier run left in ``out_dir``, so that neither a failed run nor ``cka``
    ever shows another run's files."""
    ckpt_base = os.path.join(out_dir, "checkpoints")
    stale = glob.glob(os.path.join(out_dir, "cka_layer_*.csv"))
    stale += [os.path.join(out_dir, name) for name in (
        "cka_mean_depth.csv", "summary.json", *_ROUND_FILES)]
    stale.append(os.path.join(ckpt_base, checkpoint.PROBE_NAME))
    for path in stale:
        if os.path.isfile(path):
            os.remove(path)
    rounds = [checkpoint.round_dir(ckpt_base, r)
              for r in checkpoint.available_rounds(ckpt_base)]
    # and any round a killed save left half written
    for path in rounds + glob.glob(os.path.join(ckpt_base, "round_*.tmp")):
        if os.path.isdir(path):
            shutil.rmtree(path)


class RunWriter:
    """Every file of one training run in ``out_dir``, written as it goes: each
    round's lines, flushed, and every ``checkpoint_every``-th round beside the
    CKA probe (the first test rows). Leaving the ``with`` block closes the files
    and, after a clean run only, writes summary.json. It keeps no round's models."""

    def __init__(self, cfg: ExperimentConfig, exp: Experiment):
        self.cfg, self.exp, self.out_dir = cfg, exp, cfg.out_dir
        self.ckpt_dir = os.path.join(self.out_dir, "checkpoints")
        if cfg.save_checkpoints:
            self.probe_id = checkpoint.save_probe(
                self.ckpt_dir, exp.test_set.features[:CKA_PROBE_SIZE])
        self.files = {n: open(os.path.join(self.out_dir, n), "w") for n in _ROUND_FILES}
        self.files["metrics.csv"].write(analysis.metrics_header(
            analysis.CSV_FORMAT, exp.global_params.num_layers))

    def write_round(self, metrics, updates) -> None:
        texts = [analysis.format_round(metrics, fmt) for fmt in _METRIC_FORMATS]
        texts.append(f"round {metrics.round_idx}: {metrics.wall_clock:.3f}s\n")
        for fh, text in zip(self.files.values(), texts, strict=True):
            fh.write(text)
            fh.flush()
        if (self.cfg.save_checkpoints
                and metrics.round_idx % self.cfg.checkpoint_every == 0):
            checkpoint.save_round(self.ckpt_dir, metrics.round_idx,
                                  self.exp.global_params,
                                  [u.params for u in updates],
                                  self.exp.noise_rates, probe_id=self.probe_id)

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for fh in self.files.values():
            fh.close()
        if exc_type is None:
            _write_json(os.path.join(self.out_dir, "summary.json"),
                        _summarize(self.exp))


def _experiment(cfg: ExperimentConfig, train, test) -> Experiment:
    """``cfg``'s experiment: its clients partitioned and noised, untrained.
    A client without samples is refused: training would stop at round 1 on
    it, and its flip fraction is NaN."""
    exp = Experiment(
        train, test, partition=cfg.partition, noise=cfg.noise,
        client_config=cfg.client, server_config=cfg.server,
        hidden_dims=cfg.hidden_dims, seed=cfg.seed,
        workers=cfg.resolved_workers())
    empty = [a.client_id for a in exp.assignments if len(a) == 0]
    if empty:
        raise ValueError(f"clients {empty} get no samples")
    return exp


def _train_into(cfg: ExperimentConfig, train, test) -> list:
    """Build ``cfg``'s experiment, write its echo into ``cfg.out_dir``, clear
    the earlier run there and train through a RunWriter. A refused
    experiment writes nothing."""
    exp = _experiment(cfg, train, test)
    _clear_previous_run(_start_out_dir(cfg))
    with RunWriter(cfg, exp) as writer:
        for round_idx in range(1, cfg.server.rounds + 1):
            # straight into the writer: no round's client models outlive it
            writer.write_round(*exp.run_round(round_idx))
    return exp.metrics


def cmd_run(cfg: ExperimentConfig) -> int:
    metrics = _train_into(cfg, *build_datasets(cfg))
    acc = metrics[-1].test_accuracy if metrics else float("nan")
    print(f"run complete: {len(metrics)} rounds, "
          f"final accuracy {acc:.4f}, outputs in {cfg.out_dir}")
    return EXIT_OK


def cmd_compare(cfg: ExperimentConfig, aggregators: list[str]) -> int:
    if len(aggregators) < 2:
        raise ConfigError("compare needs at least 2 aggregators")
    for name in aggregators:
        if name not in server.AGGREGATORS:
            raise ConfigError(
                f"aggregator {name!r} must be one of {', '.join(server.AGGREGATORS)}")
        if aggregators.count(name) > 1:
            raise ConfigError(f"aggregator {name!r} is listed more than once")
    train, test = build_datasets(cfg)
    # every sub-run has these clients: one without samples is refused
    # before anything is written
    _experiment(cfg, train, test)
    out_dir = _start_out_dir(cfg)
    # an earlier compare's table must not outlive a compare that fails
    table = os.path.join(out_dir, "comparison.csv")
    if os.path.isfile(table):
        os.remove(table)

    columns: dict[str, list[float]] = {}
    for name in aggregators:
        # the proximal term defines FedProx; the other aggregators run
        # without it, and build_config fills FedProx's default mu
        document = config_to_dict(cfg)
        document["out_dir"] = os.path.join(out_dir, name)
        document["server"]["aggregator"] = name
        if name != server.FEDPROX:
            document["client"]["prox_mu"] = 0.0
        metrics = _train_into(build_config(document), train, test)
        columns[name] = [m.test_accuracy for m in metrics]
        print(f"{name}: final accuracy "
              f"{columns[name][-1] if columns[name] else float('nan'):.4f}")

    with open(table, "w") as fh:
        fh.write("round," + ",".join(aggregators) + "\n")
        for r, accs in enumerate(zip(*columns.values()), 1):
            fh.write(",".join([str(r), *map(_f, accs)]) + "\n")
    print(f"comparison written to {table}")
    return EXIT_OK


def cmd_noise_preview(cfg: ExperimentConfig) -> int:
    exp = _experiment(cfg, *build_datasets(cfg))
    out_dir = _start_out_dir(cfg)  # after the check: a refusal writes nothing
    print(f"{'client':>6} {'samples':>8} {'rate':>8} {'realized':>9}")
    with open(os.path.join(out_dir, "noise_profile.csv"), "w") as fh:
        fh.write("client_id,n_samples,rate,realized_flip_fraction\n")
        for a, rate in zip(exp.assignments, exp.noise_rates):
            realized = float((a.noisy_labels != a.true_labels).mean())
            print(f"{a.client_id:>6} {len(a):>8} {rate:>8.4f} {realized:>9.4f}")
            fh.write(f"{a.client_id},{len(a)},{_f(rate)},{_f(realized)}\n")
    return EXIT_OK


def cmd_cka(cfg: ExperimentConfig, round_idx: int | None) -> int:
    nn.pin_blas_threads(CKA_BLAS_THREADS)
    try:
        return _write_cka(cfg, round_idx)
    finally:
        nn.pin_blas_threads(nn.BLAS_THREADS)


def _write_cka(cfg: ExperimentConfig, round_idx: int | None) -> int:
    ckpt_base = os.path.join(cfg.out_dir, "checkpoints")
    rounds = checkpoint.available_rounds(ckpt_base)
    if not rounds:
        raise FileNotFoundError(
            f"no checkpoints under {ckpt_base} (expected round_NNNN/): a run "
            f"saves round r only with save_checkpoints=true and r a multiple "
            f"of checkpoint_every; this config has save_checkpoints="
            f"{str(cfg.save_checkpoints).lower()}, rounds {cfg.server.rounds} "
            f"and checkpoint_every {cfg.checkpoint_every}")
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
        checkpoint.ClientModels(path, manifest), global_params, probe,
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
