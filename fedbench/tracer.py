"""Span tracer that wraps fednoisy's public functions from outside the package.

Each wrapper records one span per call: id, name, start, end, parent span,
thread id, round id and client id. Spans stay in memory until the traced run
ends. ``uninstall`` puts every original attribute back, and ``leftovers``
reports any attribute that still holds a wrapper afterwards.

Functions are wrapped in the namespace they are called through: ``server``
imports ``local_train``, ``make_partitions`` and friends by name, so those are
wrapped as attributes of ``fednoisy.server``; ``nn`` functions are reached
through the module attribute, so they are wrapped on ``fednoisy.nn``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict

# span record layout (a list keeps the per-call cost low)
ID, NAME, T0, T1, PARENT, THREAD, ROUND, CLIENT = range(8)


def _client_arg0(args, kwargs):
    return args[0].client_id


def _client_arg1(args, kwargs):
    return args[1].client_id


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()   # counters are updated from pool threads
        self._patched: list[tuple[object, str, object]] = []
        self.round_span = None   # run_round span id, parent of worker spans
        self.round_idx = None

    # ------------------------------------------------------------- wrapping

    def wrap(self, owner, attr: str, name: str, client_of=None, extra=None,
             sets_round=False):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``client_of(args, kwargs)`` names the client a call works for;
        ``extra(args, kwargs, result, counters)`` adds computed counts after
        the span has ended, so its cost is outside the measured interval.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
                client = parent[CLIENT]
            else:
                parent = None
                client = None
            if client_of is not None:
                client = client_of(args, kwargs)
            span = [next(tracer._ids), name, 0.0, 0.0,
                    parent[ID] if parent is not None else tracer.round_span,
                    threading.get_ident(), tracer.round_idx, client]
            if sets_round:
                tracer.round_span, tracer.round_idx = span[ID], args[1]
                span[ROUND] = args[1]
            stack.append(span)
            span[T0] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[T1] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
                if sets_round:
                    tracer.round_span = tracer.round_idx = None
            if extra is not None:
                with tracer._lock:
                    extra(args, kwargs, result, tracer.counters)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Wrapped attributes that do not hold their original after uninstall."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patched
                if getattr(owner, attr) is not original]

    # --------------------------------------------------------------- output

    def write_spans(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread", "round",
                "client")
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s[T0]):
                fh.write(json.dumps(dict(zip(keys, span)),
                                    separators=(",", ":")) + "\n")

    def summary(self) -> dict:
        """Per span name: calls, total time, self time and call durations.

        Self time is the span's duration minus the time its child spans on
        the same thread cover; children on other threads (pool workers under
        ``server.run_round``) are not subtracted.
        """
        by_id = {s[ID]: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            parent = by_id.get(s[PARENT])
            if parent is not None and parent[THREAD] == s[THREAD]:
                child_time[parent[ID]] += s[T1] - s[T0]
        layers: dict[str, dict] = {}
        phase: dict[int, list[float]] = {}
        for s in self.spans:
            dur = s[T1] - s[T0]
            entry = layers.setdefault(s[NAME], {"calls": 0, "s": 0.0,
                                                "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["s"] += dur
            entry["self_s"] += dur - child_time[s[ID]]
            entry["durations"].append(dur)
            if s[NAME] == "client.local_train" and s[ROUND] is not None:
                lo, hi = phase.get(s[ROUND], (s[T0], s[T1]))
                phase[s[ROUND]] = [min(lo, s[T0]), max(hi, s[T1])]
        return {"layers": layers,
                "counters": dict(self.counters),
                "train_phase_s": sum(hi - lo for lo, hi in phase.values())}


# --------------------------------------------------------- computed counts

def _params_size(params) -> int:
    return sum(w.size + b.size for w, b in zip(params.weights, params.biases))


def _loss_and_grad_flop(args, kwargs, result, counters):
    params, batch_x = args[0], args[1]
    n = len(batch_x)
    sizes = [w.size for w in params.weights]
    # forward, weight gradients, and delta propagation below the top layer
    counters["nn.loss_and_grad.flop"] += 2 * n * (2 * sum(sizes) + sum(sizes[1:]))


def _sgd_bytes(args, kwargs, result, counters):
    # read params and gradient, write the new params (float64)
    counters["nn.sgd_step.bytes"] += 3 * 8 * _params_size(args[0])


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _save_bytes(args, kwargs, result, counters):
    counters["checkpoint.save_round.bytes"] += _dir_bytes(result)


def _load_bytes(args, kwargs, result, counters):
    counters["checkpoint.load_round.bytes"] += _dir_bytes(args[0])


def _metrics_bytes(args, kwargs, result, counters):
    counters["analysis.write_metrics.bytes"] += os.path.getsize(args[1])


def _relabeled(args, kwargs, result, counters):
    counters["client.relabeled"] += result[1]
    counters["client.examined"] += len(args[0])


def install() -> Tracer:
    """Wrap every public function of the fednoisy layers the runs reach."""
    from fednoisy import analysis, checkpoint, cli, client, data, nn, server
    t = Tracer()
    # cli: the entry point and the names it imports from config
    t.wrap(cli, "main", "cli.main")
    t.wrap(cli, "parse_config", "config.parse_config")
    t.wrap(cli, "build_datasets", "config.build_datasets")
    # data, reached through config's module attribute and server's names
    t.wrap(data, "make_synthetic", "data.make_synthetic")
    t.wrap(server, "make_partitions", "data.make_partitions")
    t.wrap(server, "sample_client_noise_rates", "data.sample_client_noise_rates")
    t.wrap(server, "apply_symmetric_noise", "data.apply_symmetric_noise")
    # server: the round and its stages
    t.wrap(server.Experiment, "__init__", "server.Experiment")
    t.wrap(server.Experiment, "run_round", "server.run_round", sets_round=True)
    for fn in ("reliability_scores", "detect_noisy", "select_s_corr",
               "layerwise_weights", "aggregate_layerwise", "aggregate_fedavg",
               "aggregate_trimmed_mean", "detection_precision_recall"):
        t.wrap(server, fn, f"server.{fn}")
    # client, reached through server's names and client's module globals
    t.wrap(server, "local_train", "client.local_train",
           client_of=_client_arg1)
    t.wrap(server, "apply_label_correction", "client.apply_label_correction",
           client_of=_client_arg0, extra=_relabeled)
    t.wrap(server, "correction_mask", "client.correction_mask",
           client_of=_client_arg0)
    t.wrap(client, "data_quality_loss", "client.data_quality_loss",
           client_of=_client_arg1)
    t.wrap(client, "correction_mask", "client.correction_mask",
           client_of=_client_arg0)
    # analysis, reached through server's names and analysis's module globals
    t.wrap(server, "evaluate_accuracy", "analysis.evaluate_accuracy")
    t.wrap(server, "weight_divergence", "analysis.weight_divergence")
    t.wrap(analysis, "cka_layer_report", "analysis.cka_layer_report")
    t.wrap(analysis, "linear_cka", "analysis.linear_cka")
    t.wrap(analysis, "write_metrics", "analysis.write_metrics",
           extra=_metrics_bytes)
    # checkpoint
    t.wrap(checkpoint, "save_round", "checkpoint.save_round", extra=_save_bytes)
    t.wrap(checkpoint, "load_round", "checkpoint.load_round", extra=_load_bytes)
    t.wrap(checkpoint, "available_rounds", "checkpoint.available_rounds")
    # nn kernels, reached through the module attribute
    t.wrap(nn, "forward", "nn.forward")
    t.wrap(nn, "loss_and_grad", "nn.loss_and_grad", extra=_loss_and_grad_flop)
    t.wrap(nn, "sgd_step", "nn.sgd_step", extra=_sgd_bytes)
    t.wrap(nn, "predict_confidences", "nn.predict_confidences")
    t.wrap(nn, "param_sq_distance", "nn.param_sq_distance")
    t.wrap(nn, "layer_sq_distance", "nn.layer_sq_distance")
    t.wrap(nn, "init_params", "nn.init_params")
    t.wrap(nn.ModelParams, "copy", "nn.ModelParams.copy")
    return t
