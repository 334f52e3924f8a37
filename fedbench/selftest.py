"""Self-test of the benchmark on tiny workloads (few rounds, few clients).

Usage (from the repository root): python3 fedbench/selftest.py

1. Runs ``run.py --workload all --tiny --trace 1``: every workload (the
   ungated ``desk`` too), untraced and traced, with all correctness checks.
2. Asserts that every end-to-end and per-layer metric named in
   BENCHMARK.json is reported with its unit and a finite value.
3. Traces one tiny ``run`` in this process and asserts that after the
   traced run every attribute of every fednoisy module and class is the
   object it was before, so no wrapper outlives the trace.
4. Asserts that the benchmark exits nonzero, printing no result, in a
   directory that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def check_results(bench: dict) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--seed", "1", "--seconds", "1", "--trace", "1", "--tiny"],
        capture_output=True, text=True, timeout=600)
    check(proc.returncode == 0,
          f"run.py --workload all exited {proc.returncode}:\n"
          f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    check(final["correct"] and final["failed"] == 0, f"suite result {final}")
    sys.path.insert(0, HERE)
    from run import WORKLOADS
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            path = os.path.join(".fedbench", f"{workload}-seed1-trace{trace}",
                                "result.json")
            with open(path) as fh:
                res = json.load(fh)
            where = f"{workload} trace {trace}"
            check(res["correct"] and res["attempted"] >= 1 and res["failed"] == 0,
                  f"{where}: correct/attempted/failed {res['correct']} "
                  f"{res['attempted']} {res['failed']} {res['problems']}")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = res["metrics"]
            check(set(got) == set(want),
                  f"{where}: metric names differ: {set(got) ^ set(want)}")
            for name, unit in want.items():
                check(got[name]["unit"] == unit, f"{where}: {name} unit")
                value = got[name]["value"]
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      f"{where}: {name} = {value!r}")
            for name in ("failed_frac",) + (() if trace else ("round_s.tail",)):
                check(name in res["ungated"], f"{where}: {name} not reported")
            print(f"selftest: {where}: {len(want)} metrics with units")


def check_no_wrapper_survives() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fednoisy
    from fednoisy import (analysis, checkpoint, cli, client, config, data, nn,
                          server)
    import tracer

    owners = [fednoisy, analysis, checkpoint, cli, client, config, data, nn,
              server, server.Experiment, nn.ModelParams]

    def snapshot():
        return {(id(o), k): v for o in owners for k, v in vars(o).items()}

    before = snapshot()
    out = os.path.abspath(os.path.join(".fedbench", "selftest-wrappers"))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cfg = {"subset_size": 100, "test_size": 50, "hidden_dims": [8],
           "client": {"local_epochs": 1},
           "server": {"rounds": 2, "num_clients": 3, "t_corr": 1},
           "workers": 2, "out_dir": out}
    cfg_path = os.path.join(out, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    t = tracer.install()
    try:
        code = cli.main(["run", "--config", cfg_path])
    finally:
        t.uninstall()
    check(code == 0, f"traced tiny run exited {code}")
    names = {s[tracer.NAME] for s in t.spans}
    for name in ("cli.main", "server.run_round", "client.local_train",
                 "nn.loss_and_grad", "nn.forward"):
        check(name in names, f"no {name} span recorded")
    after = snapshot()
    changed = [k for k in before.keys() | after.keys()
               if before.get(k) is not after.get(k)]
    check(not changed, f"{len(changed)} attributes differ after the trace")
    check(not t.leftovers(), f"wrappers left: {t.leftovers()}")
    shutil.rmtree(out)
    print(f"selftest: {len(t.spans)} spans, no wrapper left after the trace")


def check_fails_without_program() -> None:
    bare = os.path.abspath(os.path.join(".fedbench", "selftest-bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
         "--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)
    print("selftest: exits nonzero without the program")


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    check_results(bench)
    check_no_wrapper_survives()
    check_fails_without_program()
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
