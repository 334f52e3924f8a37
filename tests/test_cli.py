"""End-to-end tests for the fednoisy CLI subcommands."""

import csv
import filecmp
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import fednoisy
from fednoisy import analysis, checkpoint, cli, data, nn, server
from fednoisy.cli import CKA_BLAS_THREADS, CKA_PROBE_SIZE, main
from fednoisy.config import build_config, build_datasets, parse_config
from fednoisy.errors import NumericError
from tests_util import blas_threads, write_idx_pair


def base_config(out_dir, **overrides):
    cfg = {
        "dataset": {"kind": "synthetic", "classes": 3, "dims": 6, "spread": 0.3},
        "subset_size": 120, "test_size": 60, "hidden_dims": [8],
        "client": {"lr": 0.1, "local_epochs": 2, "batch_size": 16},
        "server": {"aggregator": "fedavg", "rounds": 4, "num_clients": 4},
        "noise": {"clean_prob": 1.0},
        "seed": 1, "out_dir": str(out_dir),
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------- run

def test_run_clean_synthetic(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out))
    assert main(["run", "--config", path]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_accuracy"] >= 0.95
    for name in ("metrics.csv", "metrics.jsonl", "config_echo.json",
                 "summary.json", "timings.log"):
        assert (out / name).exists()


def test_run_invalid_config_exits_2(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "o",
                                              server={"beta": -1}))
    assert main(["run", "--config", path]) == 2


def test_run_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2


def test_run_wrong_type_container_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "o", hidden_dims=64))
    assert main(["run", "--config", path]) == 2
    assert "hidden_dims" in capsys.readouterr().err


def test_negative_workers_flag_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path / "o"))
    assert main(["run", "--config", path, "--workers", "-1"]) == 2
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "noise-preview"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    path = write_config(tmp_path, base_config(tmp_path / "o", seed=-1))
    assert main([command, "--config", path]) == 2
    assert "seed" in capsys.readouterr().err
    path = write_config(tmp_path, base_config(tmp_path / "o"), "ok.json")
    assert main([command, "--config", path, "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "noise-preview"])
def test_trunc_gauss_window_without_mass_exits_2(tmp_path, capsys, command):
    # a mean 1e4 std above the window: the sampler's CDF difference is 0
    path = write_config(tmp_path, base_config(
        tmp_path / "o", noise={"mode": "trunc_gauss", "mean": 100,
                               "std": 0.01}))
    assert main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert "noise.mean" in err and "no probability mass" in err
    assert os.listdir(tmp_path) == ["config.json"]


def test_empty_out_dir_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, base_config(""))
    assert main(["run", "--config", path]) == 2
    assert "out_dir" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


def test_run_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    path = write_config(tmp_path, base_config(out1))
    assert main(["run", "--config", path]) == 0
    assert main(["run", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_run_worker_count_invariance(tmp_path):
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    path = write_config(tmp_path, base_config(out1))
    assert main(["run", "--config", path, "--workers", "1"]) == 0
    assert main(["run", "--config", path, "--out", str(out2),
                 "--workers", "3"]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_run_seed_override_changes_outputs(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    path = write_config(tmp_path, base_config(out1))
    assert main(["run", "--config", path]) == 0
    assert main(["run", "--config", path, "--out", str(out2),
                 "--seed", "77"]) == 0
    assert (out1 / "metrics.csv").read_bytes() != (out2 / "metrics.csv").read_bytes()


def test_run_outputs_stay_in_out_dir(tmp_path):
    out = tmp_path / "only_here"
    path = write_config(tmp_path, base_config(out))
    before = set(os.listdir(tmp_path))
    assert main(["run", "--config", path]) == 0
    after = set(os.listdir(tmp_path))
    assert after - before == {"only_here"}


def streamed_config(out, rounds):
    return base_config(out, save_checkpoints=True, checkpoint_every=1,
                       noise={"mode": "fixed", "rates": [0.0, 0.0, 0.5, 0.5]},
                       server={"aggregator": "fed_ncl", "rounds": rounds,
                               "t_corr": 2})


def test_failed_run_keeps_every_finished_round(tmp_path, monkeypatch, capsys):
    full, failed = tmp_path / "full", tmp_path / "failed"
    assert main(["run", "--config",
                 write_config(tmp_path, streamed_config(full, 5))]) == 0
    real = server.local_train

    def breaks_in_round_3(*args):
        if args[4] == 3:  # local_train's round_idx
            raise NumericError("injected in round 3")
        return real(*args)

    monkeypatch.setattr(server, "local_train", breaks_in_round_3)
    capsys.readouterr()
    path = write_config(tmp_path, streamed_config(failed, 5), "failed.json")
    assert main(["run", "--config", path]) == 1
    assert "NumericError: injected in round 3" in capsys.readouterr().err

    rows = list(csv.DictReader(
        (failed / "metrics.csv").read_text().splitlines()))
    assert [int(r["round"]) for r in rows] == [1] * 4 + [2] * 4
    records = analysis.read_metrics(failed / "metrics.jsonl")
    assert [m.round_idx for m in records] == [1, 2]
    timings = (failed / "timings.log").read_text().splitlines()
    assert [line.split(":")[0] for line in timings] == ["round 1", "round 2"]
    # the finished rounds' bytes are the uninterrupted run's first rounds
    for name, lines in (("metrics.csv", 1 + 2 * 4), ("metrics.jsonl", 2)):
        want = (full / name).read_bytes().splitlines(keepends=True)[:lines]
        assert (failed / name).read_bytes() == b"".join(want)
    assert checkpoint.available_rounds(failed / "checkpoints") == [1, 2]
    for r in (1, 2):
        checkpoint.read_manifest(checkpoint.round_dir(failed / "checkpoints", r))
    assert not (failed / "summary.json").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_no_client_model_outlives_its_round(tmp_path, monkeypatch, workers):
    # round r's client models must be freed before round r+1 trains, so a
    # run holds one round's models at a time
    real = server.local_train
    models: dict[int, list] = {}
    alive_at_start = []

    def tracked(*args):
        round_idx = args[4]
        alive_at_start.extend((r, round_idx) for r, refs in models.items()
                              if r < round_idx and any(ref() for ref in refs))
        updates = real(*args)
        models.setdefault(round_idx, []).extend(
            weakref.ref(u.params) for u in updates)
        return updates

    monkeypatch.setattr(server, "local_train", tracked)
    path = write_config(tmp_path, streamed_config(tmp_path / "o", 4))
    assert main(["run", "--config", path, "--workers", str(workers)]) == 0
    assert sorted(models) == [1, 2, 3, 4]
    assert sum(map(len, models.values())) == 4 * 4
    assert alive_at_start == []


# ------------------------------------------------------------------ compare

def test_compare_writes_wide_csv(tmp_path):
    out = tmp_path / "cmp"
    cfg = base_config(out, noise={"clean_prob": 0.5, "within_rate": 1.0},
                      server={"rounds": 3})
    path = write_config(tmp_path, cfg)
    assert main(["compare", "--config", path,
                 "--aggregators", "fedavg,fed_ncl"]) == 0
    with open(out / "comparison.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["round", "fedavg", "fed_ncl"]
    assert len(rows) == 1 + 3
    assert (out / "fedavg" / "metrics.csv").exists()
    assert (out / "fed_ncl" / "metrics.csv").exists()


def test_compare_clean_runs_agree(tmp_path):
    out = tmp_path / "cmp2"
    cfg = base_config(out, server={"rounds": 5})
    path = write_config(tmp_path, cfg)
    assert main(["compare", "--config", path,
                 "--aggregators", "fedavg,fed_ncl"]) == 0
    rows = list(csv.reader(open(out / "comparison.csv")))
    final = rows[-1]
    assert abs(float(final[1]) - float(final[2])) <= 0.02


def test_compare_saves_checkpoints_per_aggregator(tmp_path, capsys):
    out = tmp_path / "cmp3"
    cfg = base_config(out, save_checkpoints=True, checkpoint_every=2,
                      noise={"mode": "fixed", "rates": [0.0, 0.0, 1.0, 1.0]},
                      server={"rounds": 4})
    path = write_config(tmp_path, cfg)
    assert main(["compare", "--config", path,
                 "--aggregators", "fedavg,fed_ncl"]) == 0
    probe_id = checkpoint.probe_fingerprint(
        build_datasets(parse_config(path))[1].features[:CKA_PROBE_SIZE])
    for name in ("fedavg", "fed_ncl"):
        ckpt = out / name / "checkpoints"
        assert checkpoint.available_rounds(ckpt) == [2, 4]
        manifest = checkpoint.read_manifest(checkpoint.round_dir(ckpt, 4))
        assert manifest["probe_id"] == probe_id
        assert (ckpt / checkpoint.PROBE_NAME).is_file()
    assert not (out / "checkpoints").exists()
    capsys.readouterr()
    assert main(["cka", "--config", path, "--out", str(out / "fed_ncl")]) == 0
    assert "CKA report for round 4 " in capsys.readouterr().out
    assert len(cka_outputs(out / "fed_ncl")) == 3
    # a rerun clears each aggregator's checkpoints and CKA tables
    cfg["save_checkpoints"] = False
    path = write_config(tmp_path, cfg, "rerun.json")
    assert main(["compare", "--config", path,
                 "--aggregators", "fedavg,fed_ncl"]) == 0
    for name in ("fedavg", "fed_ncl"):
        assert os.listdir(out / name / "checkpoints") == []
        assert cka_outputs(out / name) == {}


def test_failed_compare_leaves_no_earlier_table(tmp_path, monkeypatch, capsys):
    out = tmp_path / "cmp4"
    path = write_config(tmp_path, base_config(out, server={"rounds": 2}))
    assert main(["compare", "--config", path,
                 "--aggregators", "fedavg,fed_ncl"]) == 0
    assert (out / "comparison.csv").is_file()
    real = server.local_train

    def fails_in_fedprox(*args):
        if args[3].prox_mu > 0:  # local_train's client config
            raise NumericError("injected in fedprox")
        return real(*args)

    monkeypatch.setattr(server, "local_train", fails_in_fedprox)
    capsys.readouterr()
    assert main(["compare", "--config", path, "--seed", "9",
                 "--aggregators", "fedavg,fedprox"]) == 1
    assert "NumericError: injected in fedprox" in capsys.readouterr().err
    assert not (out / "comparison.csv").exists()


def test_compare_requires_two_aggregators(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "x"))
    assert main(["compare", "--config", path, "--aggregators", "fedavg"]) == 2
    assert main(["compare", "--config", path,
                 "--aggregators", "fedavg,krum"]) == 2


def test_compare_rejects_a_repeated_aggregator(tmp_path, capsys):
    out = tmp_path / "dup"
    path = write_config(tmp_path, base_config(out))
    assert main(["compare", "--config", path,
                 "--aggregators", "fedavg,fed_ncl,fedavg"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'fedavg'" in err
    assert "more than once" in err
    assert not out.exists()


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("command", [["run"],
                                     ["compare", "--aggregators", "fedavg,fed_ncl"]])
def test_a_client_without_samples_leaves_the_earlier_run(tmp_path, capsys,
                                                         command):
    out = tmp_path / "refused"
    good = write_config(tmp_path, base_config(
        out, save_checkpoints=True, checkpoint_every=1, server={"rounds": 2}))
    assert main([command[0], "--config", good, *command[1:]]) == 0
    before = tree_bytes(out)
    bad = write_config(tmp_path, base_config(
        out, partition={"kind": "class_skew"}, seed=0,
        server={"num_clients": 20}), "bad.json")
    empty = [a.client_id for a in preview_experiment(bad).assignments
             if len(a) == 0]
    assert len(empty) > 1
    capsys.readouterr()
    assert main([command[0], "--config", bad, *command[1:]]) == 1
    assert f"clients {empty} get no samples" in capsys.readouterr().err
    assert tree_bytes(out) == before


def test_each_compare_sub_run_echoes_the_config_it_trained(tmp_path,
                                                           monkeypatch):
    out = tmp_path / "cmp_echo"
    path = write_config(tmp_path, base_config(out, server={"rounds": 2}))
    trained = {}
    real = cli._train_into

    def recording(cfg, *args):
        trained[cfg.server.aggregator] = cfg
        return real(cfg, *args)

    monkeypatch.setattr(cli, "_train_into", recording)
    assert main(["compare", "--config", path,
                 "--aggregators", "fedavg,fedprox"]) == 0
    assert sorted(trained) == ["fedavg", "fedprox"]
    for name, cfg in trained.items():
        echo = json.loads((out / name / "config_echo.json").read_text())
        assert build_config(echo) == cfg
        assert echo["out_dir"] == str(out / name)
        assert echo["server"]["aggregator"] == name
        assert (echo["client"]["prox_mu"] > 0) == (name == "fedprox")


# ------------------------------------------------------------ noise-preview

def test_noise_preview_profile(tmp_path):
    out = tmp_path / "np"
    cfg = base_config(out, subset_size=4000, test_size=30,
                      noise={"clean_prob": 0.5, "within_rate": 0.8},
                      server={"num_clients": 8, "rounds": 1})
    path = write_config(tmp_path, cfg)
    assert main(["noise-preview", "--config", path]) == 0
    with open(out / "noise_profile.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    for row in rows:
        rate = float(row["rate"])
        realized = float(row["realized_flip_fraction"])
        assert rate in (0.0, 0.8)
        if int(row["n_samples"]) >= 500:
            assert abs(realized - rate) < 0.05
    assert not (out / "metrics.csv").exists()  # no training happened


def test_noise_preview_bernoulli_noisy_count_band(tmp_path):
    # binomial(20, 0.2): ~4 noisy clients expected, allow +-3 sigma
    out = tmp_path / "np_band"
    cfg = base_config(out, subset_size=400, test_size=30,
                      noise={"clean_prob": 0.8, "within_rate": 1.0},
                      server={"num_clients": 20, "rounds": 1})
    path = write_config(tmp_path, cfg)
    assert main(["noise-preview", "--config", path]) == 0
    rows = list(csv.DictReader(open(out / "noise_profile.csv")))
    noisy = sum(float(r["rate"]) == 1.0 for r in rows)
    assert 0 <= noisy <= 10


def test_noise_preview_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "n1", tmp_path / "n2"
    cfg = base_config(out1, noise={"clean_prob": 0.6})
    path = write_config(tmp_path, cfg)
    assert main(["noise-preview", "--config", path]) == 0
    assert main(["noise-preview", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "noise_profile.csv").read_bytes() == \
        (out2 / "noise_profile.csv").read_bytes()


def test_noise_preview_seed_flag_matches_config_seed(tmp_path):
    out1, out2 = tmp_path / "flag", tmp_path / "file"
    cfg = base_config(out1, noise={"clean_prob": 0.5})
    assert main(["noise-preview", "--config", write_config(tmp_path, cfg),
                 "--seed", "7"]) == 0
    cfg = base_config(out2, noise={"clean_prob": 0.5}, seed=7)
    assert main(["noise-preview", "--config",
                 write_config(tmp_path, cfg, "seven.json")]) == 0
    assert (out1 / "noise_profile.csv").read_bytes() == \
        (out2 / "noise_profile.csv").read_bytes()
    echo1 = json.loads((out1 / "config_echo.json").read_text())
    echo2 = json.loads((out2 / "config_echo.json").read_text())
    assert echo1 == dict(echo2, out_dir=str(out1))


def test_noise_preview_trunc_gauss_rates_in_bounds(tmp_path):
    out = tmp_path / "np2"
    cfg = base_config(out, noise={"mode": "trunc_gauss", "mean": 0.3,
                                  "std": 0.4},
                      server={"num_clients": 20, "rounds": 1})
    path = write_config(tmp_path, cfg)
    assert main(["noise-preview", "--config", path]) == 0
    rows = list(csv.DictReader(open(out / "noise_profile.csv")))
    assert len(rows) == 20
    assert all(0.0 <= float(r["rate"]) <= 1.0 for r in rows)


def preview_experiment(path):
    """The Experiment that ``run`` would build from the config at ``path``."""
    cfg = parse_config(path)
    return server.Experiment(
        *build_datasets(cfg), partition=cfg.partition, noise=cfg.noise,
        client_config=cfg.client, server_config=cfg.server,
        hidden_dims=tuple(cfg.hidden_dims), seed=cfg.seed,
        workers=cfg.resolved_workers())


def test_noise_preview_shows_the_clients_run_trains(tmp_path):
    out = tmp_path / "np_exp"
    cfg = base_config(out, partition={"kind": "quantity_skew"},
                      noise={"mode": "trunc_gauss", "mean": 0.3, "std": 0.4},
                      server={"num_clients": 6})
    path = write_config(tmp_path, cfg)
    assert main(["noise-preview", "--config", path]) == 0
    rows = list(csv.DictReader(open(out / "noise_profile.csv")))
    exp = preview_experiment(path)
    assert len({len(a) for a in exp.assignments}) > 1
    assert [int(r["n_samples"]) for r in rows] == \
        [len(a) for a in exp.assignments]
    assert [r["rate"] for r in rows] == \
        [analysis._f(rate) for rate in exp.noise_rates]


def test_noise_preview_refuses_clients_without_samples(tmp_path, capsys):
    out = tmp_path / "np_empty"
    cfg = base_config(out, partition={"kind": "class_skew"}, seed=0,
                      server={"num_clients": 20})
    path = write_config(tmp_path, cfg)
    empty = [a.client_id for a in preview_experiment(path).assignments
             if len(a) == 0]
    assert empty
    assert main(["noise-preview", "--config", path]) == 1
    captured = capsys.readouterr()
    assert str(empty) in captured.err
    assert "nan" not in captured.out
    assert not (out / "noise_profile.csv").exists()


# ---------------------------------------------------------------------- cka

def cka_run(tmp_path, rounds=4, every=2, **overrides):
    out = tmp_path / "cka"
    cfg = base_config(out, save_checkpoints=True, checkpoint_every=every,
                      noise={"mode": "fixed", "rates": [0.0, 0.0, 1.0, 1.0]},
                      server={"aggregator": "fed_ncl", "rounds": rounds},
                      **overrides)
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    return out, path


def test_cka_reports_from_checkpoints(tmp_path):
    out, path = cka_run(tmp_path)
    assert main(["cka", "--config", path]) == 0
    mats = sorted(p.name for p in out.glob("cka_layer_*.csv"))
    assert mats == ["cka_layer_0.csv", "cka_layer_1.csv"]
    rows = list(csv.reader(open(out / "cka_layer_0.csv")))
    names = [r[0] for r in rows[1:]]
    assert names == ["client0", "client1", "client2", "client3", "global"]
    mat = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    assert np.allclose(mat, mat.T, atol=1e-9)
    assert np.allclose(np.diag(mat), 1.0, atol=1e-9)
    depth = list(csv.DictReader(open(out / "cka_mean_depth.csv")))
    assert len(depth) == 2


def test_cka_round_selector(tmp_path, capsys):
    out, path = cka_run(tmp_path, rounds=4, every=2)
    assert main(["cka", "--config", path, "--round", "2"]) == 0
    capsys.readouterr()
    assert main(["cka", "--config", path, "--round", "3"]) == 2  # not stored
    err = capsys.readouterr().err
    assert "config error" in err and "round 3" in err and "2, 4" in err


def test_cka_without_checkpoints_fails_with_paths(tmp_path, capsys):
    out = tmp_path / "none"
    cfg = base_config(out)
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    assert main(["cka", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "checkpoints" in err
    assert main(["cka", "--config", path, "--round", "1"]) == 1
    assert "save_checkpoints=true" in capsys.readouterr().err


def test_cka_without_saved_rounds_names_both_causes(tmp_path, capsys):
    # checkpoints on, but 3 rounds never reach the default checkpoint_every
    out = tmp_path / "short"
    path = write_config(tmp_path, base_config(out, save_checkpoints=True,
                                              server={"rounds": 3}))
    assert main(["run", "--config", path]) == 0
    assert os.listdir(out / "checkpoints") == [checkpoint.PROBE_NAME]
    capsys.readouterr()
    assert main(["cka", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "run with save_checkpoints=true first" not in err
    assert "save_checkpoints=true, rounds 3 and checkpoint_every 10" in err


def test_cka_outputs_deterministic(tmp_path):
    out, path = cka_run(tmp_path)
    assert main(["cka", "--config", path, "--round", "4"]) == 0
    first = (out / "cka_layer_0.csv").read_bytes()
    assert main(["cka", "--config", path, "--round", "4"]) == 0
    assert (out / "cka_layer_0.csv").read_bytes() == first


def test_identical_checkpoints_give_unit_matrices(tmp_path):
    # zero local epochs are disallowed; emulate identical models via lr -> tiny
    out = tmp_path / "ident"
    cfg = base_config(out, save_checkpoints=True, checkpoint_every=1,
                      client={"lr": 1e-12, "local_epochs": 1},
                      server={"aggregator": "fedavg", "rounds": 1})
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    assert main(["cka", "--config", path, "--round", "1"]) == 0
    rows = list(csv.reader(open(out / "cka_layer_0.csv")))
    mat = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    assert np.allclose(mat, 1.0, atol=1e-6)


def test_cka_runs_on_its_blas_threads_and_restores_the_pin(tmp_path,
                                                          monkeypatch):
    out, path = cka_run(tmp_path)
    real = analysis.cka_layer_report
    seen = []

    def recording(*args):
        seen.append(blas_threads())
        return real(*args)

    monkeypatch.setattr(analysis, "cka_layer_report", recording)
    assert main(["cka", "--config", path]) == 0
    assert seen == [CKA_BLAS_THREADS] == [2]
    assert blas_threads() == nn.BLAS_THREADS


def test_cka_restores_the_blas_pin_when_it_fails(tmp_path, capsys):
    out, path = cka_run(tmp_path)
    os.remove(probe_file(out))
    assert main(["cka", "--config", path]) == 1
    assert "FileNotFoundError" in capsys.readouterr().err
    assert blas_threads() == nn.BLAS_THREADS


def idx_dataset(tmp_path):
    """A tiny 3-class IDX train/test pair (4x4 images) as a dataset section."""
    rng = np.random.default_rng(0)
    section = {"kind": "mnist"}
    for split, n, keys in (("train", 150, ("images", "labels")),
                           ("test", 80, ("test_images", "test_labels"))):
        labels = rng.integers(0, 3, size=n).astype(np.uint8)
        noise = rng.integers(0, 60, size=(n, 4, 4))
        images = (noise + 60 * labels[:, None, None]).astype(np.uint8)
        split_dir = tmp_path / split
        split_dir.mkdir()
        paths = write_idx_pair(split_dir, images, labels)
        section.update({key: str(p) for key, p in zip(keys, paths)})
    return section


def cka_outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.glob("cka_*.csv"))}


def probe_file(out):
    return out / "checkpoints" / checkpoint.PROBE_NAME


@pytest.mark.parametrize("kind,test_size", [("synthetic", 60),
                                            ("synthetic", 600), ("idx", 0)])
def test_probe_file_is_the_first_test_rows(tmp_path, kind, test_size):
    overrides = {"dataset": idx_dataset(tmp_path)} if kind == "idx" else {}
    out, path = cka_run(tmp_path, test_size=test_size, **overrides)
    want = build_datasets(parse_config(path))[1].features[:CKA_PROBE_SIZE]
    assert len(want) == min(test_size or 80, CKA_PROBE_SIZE)
    got = np.load(probe_file(out))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for round_idx in (2, 4):
        manifest = checkpoint.read_manifest(
            checkpoint.round_dir(out / "checkpoints", round_idx))
        assert manifest["probe_id"] == checkpoint.probe_fingerprint(want)


@pytest.mark.parametrize("kind", ["synthetic", "idx"])
def test_cka_needs_neither_the_data_nor_the_seed(tmp_path, monkeypatch, kind):
    overrides = {"dataset": idx_dataset(tmp_path)} if kind == "idx" else {}
    out, path = cka_run(tmp_path, **overrides)
    assert main(["cka", "--config", path]) == 0
    want = cka_outputs(out)
    assert len(want) == 3
    for name in want:
        os.remove(out / name)

    def no_data(*args, **kwargs):
        raise AssertionError("cka built a dataset")

    monkeypatch.setattr(cli, "build_datasets", no_data)
    monkeypatch.setattr(data, "make_synthetic", no_data)
    if kind == "idx":
        cfg = parse_config(path)
        for name in ("images", "labels", "test_images", "test_labels"):
            os.remove(getattr(cfg.dataset, name))
    assert main(["cka", "--config", path, "--seed", "5"]) == 0
    assert cka_outputs(out) == want


def test_cka_leaves_the_run_config_echo_alone(tmp_path):
    out, path = cka_run(tmp_path, workers=1)
    echo = (out / "config_echo.json").read_bytes()
    assert json.loads(echo)["workers"] == 1
    assert main(["cka", "--config", path, "--workers", "2"]) == 0
    assert (out / "config_echo.json").read_bytes() == echo


def test_rerun_into_the_same_directory_holds_one_run(tmp_path, capsys):
    out, path = cka_run(tmp_path, rounds=4, every=2)
    assert main(["cka", "--config", path]) == 0
    assert checkpoint.available_rounds(out / "checkpoints") == [2, 4]
    (out / "notes.txt").write_text("kept")
    cfg = json.loads(open(path).read())
    cfg["server"]["rounds"] = 2
    path = write_config(tmp_path, cfg, "rerun.json")
    assert main(["run", "--config", path]) == 0
    assert checkpoint.available_rounds(out / "checkpoints") == [2]
    assert cka_outputs(out) == {}
    assert (out / "notes.txt").read_text() == "kept"
    capsys.readouterr()
    assert main(["cka", "--config", path]) == 0
    assert "CKA report for round 2 " in capsys.readouterr().out


def refused_cka(out, path, capsys):
    """Run cka on a checkpoint whose probe it must refuse; returns stderr."""
    echo = (out / "config_echo.json").read_bytes()
    capsys.readouterr()
    assert main(["cka", "--config", path]) == 1
    err = capsys.readouterr().err
    assert str(probe_file(out)) in err
    assert (out / "config_echo.json").read_bytes() == echo
    assert cka_outputs(out) == {}
    return err


def test_rerun_without_checkpoints_leaves_no_probe(tmp_path, capsys):
    out, path = cka_run(tmp_path)
    assert probe_file(out).is_file()
    # a round a killed save left half written
    stale = out / "checkpoints" / "round_0006.tmp"
    stale.mkdir()
    (stale / "global.bin").write_bytes(bytes(8))
    cfg = json.loads(open(path).read())
    cfg["save_checkpoints"] = False
    path = write_config(tmp_path, cfg, "rerun.json")
    assert main(["run", "--config", path]) == 0
    assert os.listdir(out / "checkpoints") == []
    capsys.readouterr()
    assert main(["cka", "--config", path]) == 1
    assert "no checkpoints" in capsys.readouterr().err


def test_cka_refuses_a_missing_probe_file(tmp_path, capsys):
    out, path = cka_run(tmp_path)
    os.remove(probe_file(out))
    err = refused_cka(out, path, capsys)
    assert "FileNotFoundError" in err and "save_checkpoints=true" in err


def test_cka_refuses_a_different_probe(tmp_path, capsys):
    out, path = cka_run(tmp_path)
    other = tmp_path / "other"
    other_cfg = json.loads(open(path).read())
    other_cfg.update(seed=5, out_dir=str(other))
    assert main(["run", "--config",
                 write_config(tmp_path, other_cfg, "other.json")]) == 0
    manifest = checkpoint.read_manifest(
        checkpoint.round_dir(out / "checkpoints", 4))
    other_id = checkpoint.read_manifest(
        checkpoint.round_dir(other / "checkpoints", 4))["probe_id"]
    assert other_id != manifest["probe_id"]
    os.replace(probe_file(other), probe_file(out))
    err = refused_cka(out, path, capsys)
    assert "DataFormatError" in err
    assert manifest["probe_id"] in err and other_id in err


def test_cka_refuses_a_manifest_without_probe_id(tmp_path, capsys):
    out, path = cka_run(tmp_path)
    manifest_path = os.path.join(checkpoint.round_dir(out / "checkpoints", 4),
                                 checkpoint.MANIFEST_NAME)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    probe_id = manifest.pop("probe_id")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    err = refused_cka(out, path, capsys)
    assert "DataFormatError" in err and probe_id in err


def test_cka_refuses_a_mistyped_manifest(tmp_path, capsys):
    out, path = cka_run(tmp_path)
    manifest_path = os.path.join(checkpoint.round_dir(out / "checkpoints", 4),
                                 checkpoint.MANIFEST_NAME)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["noise_rates"] = 0.5
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    capsys.readouterr()
    assert main(["cka", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "DataFormatError" in err
    assert manifest_path in err and "noise_rates" in err
    assert cka_outputs(out) == {}


def test_cka_peak_memory_below_one_pool(tmp_path):
    out = tmp_path / "mem"
    cfg = base_config(out, dataset={"classes": 10, "dims": 784, "spread": 2.0},
                      subset_size=2000, test_size=1000, hidden_dims=[64, 32],
                      save_checkpoints=True, checkpoint_every=1,
                      client={"local_epochs": 1, "batch_size": 60},
                      server={"rounds": 1})
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    pool_bytes = 3000 * 784 * 8
    tracemalloc.start()
    try:
        assert main(["cka", "--config", path]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pool_bytes


def test_cka_streams_models_below_all_models_plus_layer0(tmp_path,
                                                         monkeypatch):
    # 39 clients and the global model fill 5 blocks of _CKA_BLOCK models
    clients, hidden = 39, [64, 32]
    out = tmp_path / "stream"
    cfg = base_config(out, dataset={"classes": 10, "dims": 784, "spread": 2.0},
                      subset_size=10 * clients, test_size=CKA_PROBE_SIZE,
                      hidden_dims=hidden, save_checkpoints=True,
                      checkpoint_every=1,
                      client={"local_epochs": 1, "batch_size": 10},
                      server={"rounds": 1, "num_clients": clients})
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    models = clients + 1
    global_model, _, _, _ = checkpoint.load_round(
        checkpoint.round_dir(out / "checkpoints", 1))
    widest_blocks = CKA_PROBE_SIZE * models * hidden[0] * 8
    # a forward pass's (n, width) arrays: product, bias sum, activation
    forward = 3 * CKA_PROBE_SIZE * hidden[0] * 8
    report, held = analysis.cka_layer_report, []

    def measured(*args, **kwargs):
        # what cka holds before the report: the probe, the global model
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return report(*args, **kwargs)

    monkeypatch.setattr(analysis, "cka_layer_report", measured)
    tracemalloc.start()
    try:
        assert main(["cka", "--config", path]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one pass's features at a time, and no pass's outgrow the widest
    # layer's: holding every layer's blocks at once (17.4 MB here) costs
    # more than this, and so does holding every model
    assert peak - held[0] < (widest_blocks + 2 * global_model.flat.nbytes
                             + forward)


def corrupt_and_run_cka(tmp_path, capsys, corrupt):
    out, path = cka_run(tmp_path)
    round_path = checkpoint.round_dir(out / "checkpoints", 4)
    corrupt(round_path)
    capsys.readouterr()
    assert main(["cka", "--config", path]) == 1
    assert cka_outputs(out) == {}
    return capsys.readouterr().err


def test_cka_truncated_client_blob_mid_stream_exits_1(tmp_path, capsys):
    def truncate(round_path):
        blob = os.path.join(round_path, "client_002.bin")
        with open(blob, "r+b") as fh:
            fh.truncate(os.path.getsize(blob) // 2)

    err = corrupt_and_run_cka(tmp_path, capsys, truncate)
    assert "DataFormatError" in err and "client_002.bin" in err


@pytest.mark.parametrize("rates", [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0, 1.0]])
def test_cka_rejects_a_manifest_with_other_noise_rates(tmp_path, capsys,
                                                       rates):
    def edit(round_path):
        manifest_path = os.path.join(round_path, checkpoint.MANIFEST_NAME)
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["noise_rates"] = rates
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)

    err = corrupt_and_run_cka(tmp_path, capsys, edit)
    assert "client count" in err and checkpoint.MANIFEST_NAME in err


def test_cka_names_an_undecodable_manifest(tmp_path, capsys):
    def truncate(round_path):
        manifest_path = os.path.join(round_path, checkpoint.MANIFEST_NAME)
        with open(manifest_path, "r+b") as fh:
            fh.truncate(5)

    err = corrupt_and_run_cka(tmp_path, capsys, truncate)
    assert "DataFormatError" in err and "not valid JSON" in err
    assert os.path.join("round_0004", checkpoint.MANIFEST_NAME) in err


def test_cka_after_a_failed_last_save_reports_the_round_before(
        tmp_path, monkeypatch, capsys):
    (tmp_path / "full").mkdir()
    full, full_path = cka_run(tmp_path / "full")
    assert main(["cka", "--config", full_path, "--round", "2"]) == 0
    real = json.dump

    def fails_saving_round_4(obj, fh, **kwargs):
        if isinstance(obj, dict) and obj.get("round") == 4:
            fh.write('{"round": ')
            raise OSError("disk full")
        return real(obj, fh, **kwargs)

    monkeypatch.setattr(checkpoint.json, "dump", fails_saving_round_4)
    out = tmp_path / "failed"
    cfg = json.loads(open(full_path).read())
    cfg["out_dir"] = str(out)
    path = write_config(tmp_path, cfg, "failed.json")
    capsys.readouterr()
    assert main(["run", "--config", path]) == 1
    assert "OSError: disk full" in capsys.readouterr().err
    monkeypatch.undo()
    assert checkpoint.available_rounds(out / "checkpoints") == [2]
    assert main(["cka", "--config", path]) == 0
    assert "CKA report for round 2 " in capsys.readouterr().out
    assert cka_outputs(out) == cka_outputs(full)


def test_cka_reads_a_manifest_with_the_old_activations_key(tmp_path):
    out, path = cka_run(tmp_path)
    assert main(["cka", "--config", path]) == 0
    want = cka_outputs(out)
    manifest_path = os.path.join(checkpoint.round_dir(out / "checkpoints", 4),
                                 checkpoint.MANIFEST_NAME)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["activations"] = ["relu", "identity"]
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    for table in out.glob("cka_*.csv"):
        table.unlink()
    assert main(["cka", "--config", path]) == 0
    assert cka_outputs(out) == want


def test_bernoulli_run_does_not_import_scipy(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(fednoisy.__file__)))
    code = ("import sys\n"
            "import fednoisy.cli\n"
            "assert fednoisy.cli.main(['run', '--config', sys.argv[1]]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code, path], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_outputs_do_not_depend_on_inherited_blas_threads(tmp_path):
    # OpenBLAS splits the first layer's (20, 784) @ (784, 64) GEMMs over its
    # threads, which changes their bits unless the count is pinned
    cfg = streamed_config(tmp_path / "unused", 2)
    cfg.update(dataset={"kind": "synthetic", "classes": 3, "dims": 784,
                        "spread": 2.0}, hidden_dims=[64], checkpoint_every=2)
    cfg["client"]["batch_size"] = 20
    path = write_config(tmp_path, cfg)
    src = os.path.dirname(os.path.dirname(os.path.abspath(fednoisy.__file__)))
    code = ("import sys\n"
            "from fednoisy.cli import main\n"
            "for command in ('run', 'cka'):\n"
            "    assert main([command, *sys.argv[1:]]) == 0\n")
    outs = []
    for blas, workers in itertools.product("12", "12"):
        out = tmp_path / f"blas{blas}_workers{workers}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=blas)
        done = subprocess.run(
            [sys.executable, "-c", code, "--config", path, "--out", str(out),
             "--workers", workers],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(out)

    def files(out):
        return sorted(os.path.relpath(os.path.join(d, n), out)
                      for d, _, names in os.walk(out) for n in names)

    def echo(out):
        doc = json.loads((out / "config_echo.json").read_text())
        return {k: v for k, v in doc.items() if k not in ("out_dir", "workers")}

    names = files(outs[0])
    assert {"checkpoints/round_0002/global.bin", "cka_layer_0.csv",
            "metrics.csv"} <= set(names)
    same = [n for n in names if n not in ("timings.log", "config_echo.json")]
    for out in outs[1:]:
        assert files(out) == names
        _, mismatch, errors = filecmp.cmpfiles(outs[0], out, same,
                                               shallow=False)
        assert mismatch == errors == [], out.name
        assert echo(out) == echo(outs[0])
