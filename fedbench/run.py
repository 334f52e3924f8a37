"""fednoisy benchmark: desk, desk_serial and crowd workloads.

Usage (from the repository root):

    python3 fedbench/run.py --workload desk_serial --seed 1 --seconds 45 --trace 0
    python3 fedbench/run.py --workload all --seed 1 --seconds 45 --trace 1

Each repeat is one fresh child process (``child.py``) that issues the
workload's commands through ``fednoisy.cli.main``. With ``--trace 0`` the
benchmark repeats the workload until ``--seconds`` have passed and reports
the end-to-end metrics named in BENCHMARK.json. With ``--trace 1`` it runs
one untraced repeat and then one traced repeat per sub-seed, and reports the
per-layer metrics. ``--workload all`` runs every workload and also checks
that desk and desk_serial wrote identical metric files.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything else,
spans and the environment stamp included, goes to ``.fedbench/`` under the
working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".fedbench"
DEADLINE_S = 170          # every run must end well inside 180 s
COMMANDS = ["run", "cka"]  # the CLI commands every timed repeat issues

# Every workload runs the fed_ncl protocol on the synthetic 784-dim set the
# acceptance module uses, saves checkpoints at the default interval and runs
# ``cka`` on the latest one after ``run``. The sub-seeds average the quality
# metrics over several noise draws; sub-seed 0 runs twice in every run so
# that repeated runs can be compared byte for byte. BENCHMARK.json gates
# desk_serial and crowd; desk stays runnable but ungated, because on a shared
# 2-vCPU host its timings spread more between runs than any allowed bound.
WORKLOADS = {
    # the paper's desk protocol; the pool's threads run over OpenBLAS's own
    "desk": {"clients": 20, "epochs": 10, "batch": 60, "rounds": 12,
             "t_corr": 8, "workers": 2, "swap_workers": 1, "subseeds": 4},
    # the same problem single-threaded: a kernel change moves both desk
    # workloads, a threading change only desk
    "desk_serial": {"clients": 20, "epochs": 10, "batch": 60, "rounds": 12,
                    "t_corr": 8, "workers": 1, "swap_workers": 2,
                    "subseeds": 4},
    # cross-device shape: 100 clients x 20 samples, one SGD step per round;
    # cost scales with the client count (aggregation O(C*P), CKA O(C^2)).
    # One step a round at lr 0.01 leaves the model far from converged inside
    # the run; 0.05 lets accuracy level off, so it does not hinge on the draw
    "crowd": {"clients": 100, "epochs": 1, "batch": 20, "lr": 0.05,
              "rounds": 40, "t_corr": 30, "workers": 1, "swap_workers": None,
              "subseeds": 2},
}
TINY = {"desk": {"clients": 4, "epochs": 2}, "desk_serial": {"clients": 4, "epochs": 2},
        "crowd": {"clients": 10}}


def workload_spec(name: str, tiny: bool) -> dict:
    spec = dict({"lr": 0.01, "train": 2000, "test": 1000}, **WORKLOADS[name])
    if tiny:
        spec.update(train=200, test=100, rounds=10, t_corr=5, subseeds=2)
        spec.update(TINY[name])
    spec["min_repeats"] = spec["subseeds"] + 1
    # the highest percentile with at least ten rounds beyond it in every run
    min_rounds = spec["min_repeats"] * spec["rounds"]
    spec["tail_pct"] = min(99, (100 * (min_rounds - 10)) // min_rounds)
    return spec


def experiment_config(spec: dict, seed: int, workers: int) -> dict:
    return {
        "dataset": {"kind": "synthetic", "classes": 10, "dims": 784,
                    "spread": 2.0},
        "subset_size": spec["train"], "test_size": spec["test"],
        "hidden_dims": [64, 32],
        "partition": {"kind": "iid"},
        "noise": {"mode": "bernoulli", "clean_prob": 0.7, "within_rate": 1.0},
        "client": {"lr": spec["lr"], "local_epochs": spec["epochs"],
                   "batch_size": spec["batch"]},
        "server": {"aggregator": "fed_ncl", "rounds": spec["rounds"],
                   "num_clients": spec["clients"], "t_corr": spec["t_corr"]},
        "seed": seed,
        "save_checkpoints": True,
        "workers": workers,
    }


def planned_ops(spec: dict, commands: list[str]) -> int:
    """Rounds, checkpoint saves (default interval 10) and the CKA report."""
    return spec["rounds"] + spec["rounds"] // 10 + ("cka" in commands)


def env_stamp() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        ceiling = os.path.dirname(os.path.abspath("."))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=ceiling),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
    }


class Runner:
    def __init__(self, name: str, seed: int, tiny: bool, out_dir: str,
                 started: float):
        self.spec = workload_spec(name, tiny)
        self.subseeds = [seed * 100 + j for j in range(self.spec["subseeds"])]
        self.out_dir = out_dir
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.count = 0

    def repeat(self, subseed: int, workers: int, commands: list[str],
               trace: bool) -> dict | None:
        """Run one child; count its operations; None if it failed."""
        self.count += 1
        tag = f"rep{self.count:02d}"
        rep_dir = os.path.join(self.out_dir, tag)
        job = {
            "src": os.path.abspath("src"),
            "config": experiment_config(self.spec, subseed, workers),
            "out_dir": os.path.abspath(os.path.join(rep_dir, "run")),
            "commands": commands, "trace": trace, "setup_reps": 3,
            "report": os.path.abspath(os.path.join(rep_dir, "report.json")),
            "spans": os.path.abspath(os.path.join(self.out_dir,
                                                  f"spans-{tag}.jsonl")),
        }
        os.makedirs(rep_dir)
        with open(os.path.join(rep_dir, "job.json"), "w") as fh:
            json.dump(job, fh)
        ops = planned_ops(self.spec, commands)
        self.attempted += ops
        left = DEADLINE_S - (time.monotonic() - self.started)
        report = None
        if left <= 0:
            why = "not started: out of time"
        else:
            try:
                with open(os.path.join(rep_dir, "child.log"), "w") as log:
                    subprocess.run(
                        [sys.executable, os.path.join(HERE, "child.py"),
                         os.path.join(rep_dir, "job.json")],
                        stdout=log, stderr=subprocess.STDOUT, timeout=left)
                with open(job["report"]) as fh:
                    report = json.load(fh)
                why = "; ".join(report["problems"])
            except subprocess.TimeoutExpired:
                why = "timed out"
            except (OSError, ValueError) as err:
                why = f"no report ({err}); see {rep_dir}/child.log"
        if report is None or report["problems"]:
            self.failed += ops
            self.problems.append(f"{tag} seed {subseed} workers {workers}: {why}")
            return None
        shutil.rmtree(rep_dir)   # checkpoints and metric files are large
        report.update(subseed=subseed, workers=workers, tag=tag)
        return report

    def mismatch(self, a: dict, b: dict, what: str) -> None:
        if a["digest"] != b["digest"]:
            self.problems.append(
                f"metrics.csv differs {what}: {a['tag']} vs {b['tag']}")
            self.failed += planned_ops(self.spec, ["run"])


def run_untraced(r: Runner, seconds: float) -> tuple[dict, dict]:
    spec = r.spec
    reps: list[dict] = []
    by_seed: dict[int, dict] = {}
    t0 = time.monotonic()
    i = 0
    while i < spec["min_repeats"] or time.monotonic() - t0 < seconds:
        sub = r.subseeds[i % len(r.subseeds)]
        rep = r.repeat(sub, spec["workers"], COMMANDS, trace=False)
        i += 1
        if rep is None:
            continue
        reps.append(rep)
        if sub in by_seed:
            r.mismatch(by_seed[sub], rep, f"across repeats of seed {sub}")
        else:
            by_seed[sub] = rep
    measured_s = time.monotonic() - t0
    first = by_seed.get(r.subseeds[0])
    if spec["swap_workers"] and first is not None:
        swap = r.repeat(r.subseeds[0], spec["swap_workers"], ["run"], trace=False)
        if swap is not None:
            r.mismatch(first, swap, f"between workers={spec['workers']} "
                                    f"and workers={spec['swap_workers']}")
    if not reps or len(by_seed) < len(r.subseeds):
        return {}, {"repeats": len(reps)}

    rounds = [t for rep in reps for t in rep["round_s"]]
    tail_idx = spec["tail_pct"] - 1
    quality = [by_seed[s] for s in r.subseeds]
    metrics = {
        "setup_s": statistics.median(t for rep in reps for t in rep["setup_s"]),
        "round_s.p50": statistics.median(rounds),
        "round_s.tail": statistics.quantiles(rounds, n=100,
                                             method="inclusive")[tail_idx],
        "wall_s": statistics.median(sum(rep["command_s"]) for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "accuracy.last10": statistics.fmean(q["accuracy_last10"] for q in quality),
        "detect_f1": statistics.fmean(q["detect_f1"] for q in quality),
    }
    detail = {
        "repeats": len(reps), "rounds": len(rounds),
        "tail_percentile": spec["tail_pct"], "measured_s": measured_s,
        "digests": {str(s): by_seed[s]["digest"] for s in r.subseeds},
        "wall_s_each": [sum(rep["command_s"]) for rep in reps],
        "round_s.p50_each": [statistics.median(rep["round_s"]) for rep in reps],
    }
    return metrics, detail


def merge_traces(traces: list[dict]) -> dict:
    layers: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for tr in traces:
        for name, e in tr["layers"].items():
            got = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                           "durations": []})
            for key in ("calls", "s", "self_s", "durations"):
                got[key] += e[key]
        for key, v in tr["counters"].items():
            counters[key] = counters.get(key, 0) + v
    return {"layers": layers, "counters": counters,
            "train_phase_s": sum(tr["train_phase_s"] for tr in traces)}


EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [0.0]}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metric(name: str, tr: dict, workers: int) -> float:
    """One per-layer metric from the merged trace of the traced repeats."""
    layers, counters = tr["layers"], tr["counters"]
    flop = counters.get("nn.loss_and_grad.flop", 0)
    relabeled = counters.get("client.relabeled", 0)
    if name == "nn.loss_and_grad.gflop":
        return flop / 1e9
    if name == "nn.loss_and_grad.gflop_per_s":
        return _ratio(flop / 1e9, layers.get("nn.loss_and_grad", EMPTY)["s"])
    if name == "server.train_phase.s":
        return tr["train_phase_s"]
    if name == "server.pool_efficiency":
        return _ratio(layers.get("client.local_train", EMPTY)["s"],
                      workers * tr["train_phase_s"])
    if name == "client.relabeled":
        return relabeled
    if name == "client.relabel_ratio":
        return _ratio(relabeled, counters.get("client.examined", 0))
    layer, field = name.rsplit(".", 1)
    if field == "bytes":
        return counters.get(name, 0)
    e = layers.get(layer, EMPTY)
    if field in ("calls", "s", "self_s"):
        return e[field]
    if field == "busy_s":
        return e["s"]
    if field == "call_p50_s":
        return statistics.median(e["durations"])
    if field == "call_p50_us":
        return statistics.median(e["durations"]) * 1e6
    raise KeyError(f"no rule for per-layer metric {name}")


def run_traced(r: Runner, names: list[str]) -> tuple[dict, dict]:
    spec = r.spec
    base = r.repeat(r.subseeds[0], spec["workers"], COMMANDS, trace=False)
    traced = []
    for sub in r.subseeds:
        rep = r.repeat(sub, spec["workers"], COMMANDS, trace=True)
        if rep is not None:
            traced.append(rep)
    if base is None or len(traced) < len(r.subseeds):
        return {}, {}
    r.mismatch(base, traced[0], "between the untraced and traced runs")
    tr = merge_traces([rep["trace"] for rep in traced])
    metrics = {n: layer_metric(n, tr, spec["workers"]) for n in names}
    untraced_p50 = statistics.median(base["round_s"])
    traced_p50 = statistics.median(traced[0]["round_s"])
    summary = {
        name: {"calls": e["calls"], "s": e["s"], "self_s": e["self_s"]}
        for name, e in sorted(tr["layers"].items(),
                              key=lambda kv: -kv[1]["self_s"])}
    detail = {
        "traced_repeats": [rep["tag"] for rep in traced],
        "round_s.p50_untraced": untraced_p50,
        "round_s.p50_traced": traced_p50,
        "tracing_overhead_s": traced_p50 - untraced_p50,
        "self_time_by_layer": summary,
    }
    with open(os.path.join(r.out_dir, "trace_summary.json"), "w") as fh:
        json.dump(dict(detail, counters=tr["counters"],
                       train_phase_s=tr["train_phase_s"]), fh, indent=1)
    return metrics, detail


def run_one(args, bench: dict) -> int:
    started = time.monotonic()
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    r = Runner(args.workload, args.seed, args.tiny, out_dir, started)
    env = env_stamp()
    print("env " + json.dumps(env, sort_keys=True))
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    if args.trace:
        values, detail = run_traced(r, list(units))
    else:
        values, detail = run_untraced(r, args.seconds)
    if not values:
        print("no repeat finished: " + "; ".join(r.problems), file=sys.stderr)
        return 1
    for p in r.problems:
        print(f"CHECK FAILED: {p}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in detail.items()
                      if not isinstance(v, dict)))
    for name, unit in units.items():
        print(f"  {name:<36} {values[name]:>14.6g} {unit}")
    # reported but not gated: see fedbench/README.md
    ungated = {"failed_frac": {"value": r.failed / r.attempted, "unit": "ratio"}}
    if not args.trace:
        ungated["round_s.tail"] = {"value": values["round_s.tail"], "unit": "s"}
    for name, m in ungated.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']} (not gated)")
    print(f"  ({r.failed}/{r.attempted} operations failed)")
    correct = not r.problems
    result = {"correct": correct, "attempted": r.attempted, "failed": r.failed,
              "metrics": {n: {"value": values[n], "unit": u}
                          for n, u in units.items()}}
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       trace=args.trace, ungated=ungated, env=env,
                       spec=r.spec, problems=r.problems, detail=detail),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced and (with --trace 1) traced, plus the
    desk/desk_serial worker-count check."""
    results = {}
    for name in WORKLOADS:
        for trace in sorted({0, args.trace}):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            path = os.path.join(OUT_ROOT, f"{name}-seed{args.seed}"
                                          f"-trace{trace}", "result.json")
            if proc.returncode != 0 or not os.path.isfile(path):
                print(f"{name} trace {trace}: exit {proc.returncode}")
                return 1
            with open(path) as fh:
                results[(name, trace)] = json.load(fh)
    problems = [f"{w} trace {t}: {p}" for (w, t), res in results.items()
                for p in res["problems"]]
    desk, serial = results[("desk", 0)], results[("desk_serial", 0)]
    if desk["detail"]["digests"] != serial["detail"]["digests"]:
        problems.append("desk and desk_serial wrote different metrics.csv")
    print("\nsummary (seed %d)" % args.seed)
    for (w, trace), res in results.items():
        label = f"{w} traced" if trace else w
        for name, m in res["metrics"].items():
            print(f"  {label:<19} {name:<36} {m['value']:>14.6g} {m['unit']}")
        for name, m in res["ungated"].items():
            print(f"  {label:<19} {name:<36} {m['value']:>14.6g} {m['unit']}"
                  " (not gated)")
        if trace:
            print(f"  {label:<19} {'tracing overhead (round_s.p50)':<36} "
                  f"{res['detail']['tracing_overhead_s']:>14.6g} s")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    attempted = sum(res["attempted"] for res in results.values())
    failed = sum(res["failed"] for res in results.values())
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {f"{w}/{n}": m for (w, t), res in results.items()
                                  for n, m in res["metrics"].items()}}))
    return 0 if not problems else 1


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="few rounds and clients, for the self-test")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join("src", "fednoisy", "__init__.py")):
        print("src/fednoisy not found: run from the root of a fednoisy "
              "checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
