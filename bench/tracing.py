"""In-memory spans around vibsim's public functions, and the per-layer
metrics derived from them.

The package binds functions across modules with ``from .x import y``, so a
wrapper is written into every ``vibsim`` module namespace that holds the
original function object, and removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

#: modules whose public functions get spans; ``tables`` and ``fixtures``
#: count in their callers' self time
LAYERS = ("gaussian", "decompositions", "fock", "vibronic", "experiment", "metrics",
          "optimize", "sampler", "calibrate", "cli")


def _public_functions(mod) -> dict[str, object]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return {n: getattr(mod, n) for n in names
            if inspect.isfunction(getattr(mod, n, None))
            and getattr(mod, n).__module__ == mod.__name__}


def _cutoff_tag(args, kwargs, result):
    cutoff = kwargs.get("cutoff", args[1] if len(args) > 1 else None)
    return f"c{cutoff}"


def _solver_tag(args, kwargs, result):
    return (result.iterations, bool(getattr(result, "converged", True)))


#: extra facts recorded on some spans
TAGGERS = {"fock.replay_fock": _cutoff_tag, "optimize.nelder_mead": _solver_tag,
           "calibrate.fit_source": _solver_tag}


class Tracer:
    """Records ``[name, start_ns, end_ns, parent, op_id, tag]`` spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.states_built: dict[int, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tagger = TAGGERS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.op_id, None])
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter_ns()
                spans[idx][1] = start
                stack.pop()
            if tagger is not None:
                spans[idx][5] = tagger(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        from vibsim.gaussian import GaussianState

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"vibsim.{layer}"]
            for fname, fn in _public_functions(mod).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "vibsim" or n.startswith("vibsim.")]
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        init = GaussianState.__init__
        counts = self.states_built

        def counting_init(obj, *args, **kwargs):
            counts[self.op_id] += 1
            init(obj, *args, **kwargs)

        self._patches.append((GaussianState, "__init__", init))
        GaussianState.__init__ = counting_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def operator_caches() -> dict[str, object]:
    """Cached operator builders: module-level callables with ``cache_info``."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"vibsim.{layer}")
        for name, val in vars(mod).items():
            if callable(getattr(val, "cache_info", None)):
                found[f"{layer}.{name}"] = val
    return found


def clear_caches() -> None:
    for fn in operator_caches().values():
        fn.cache_clear()


def cache_counts() -> tuple[int, int]:
    hits = misses = 0
    for fn in operator_caches().values():
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def layer_metrics(tracer: Tracer, op_ids: set[int], cutoffs, cache_delta, cpu_s: float,
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the spans of the operations in ``op_ids``,
    normalised per operation where they are totals."""
    n_ops = max(1, len(op_ids))
    child = defaultdict(int)
    for s in tracer.spans:
        if s[4] in op_ids and s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    calls = defaultdict(int)
    total_ns = defaultdict(int)
    self_ns = defaultdict(int)
    tags = defaultdict(list)
    for i, s in enumerate(tracer.spans):
        if s[4] not in op_ids:
            continue
        name, dur = s[0], s[2] - s[1]
        calls[name] += 1
        total_ns[name] += dur
        self_ns[name] += dur - child.get(i, 0)
        if s[5] is not None:
            tags[name].append(s[5])
        if name == "fock.replay_fock":
            calls[f"{name}.{s[5]}"] += 1
            total_ns[f"{name}.{s[5]}"] += dur

    def per_op_calls(name):
        return calls[name] / n_ops, "1/op"

    def self_s(name):
        return self_ns[name] / 1e9 / n_ops, "s/op"

    def ms_per_call(name):
        return (total_ns[name] / 1e6 / calls[name] if calls[name] else 0.0), "ms"

    def mean_tag(name, k):
        vals = [t[k] for t in tags[name]]
        return float(sum(vals) / len(vals)) if vals else 0.0

    out = {
        "gaussian.replay.calls": per_op_calls("gaussian.replay"),
        "gaussian.replay.self_s": self_s("gaussian.replay"),
        "gaussian.fidelity.calls": per_op_calls("gaussian.fidelity"),
        "gaussian.fidelity.self_s": self_s("gaussian.fidelity"),
        "gaussian.states_built": (sum(tracer.states_built[i] for i in op_ids) / n_ops, "1/op"),
        "experiment.model_fidelity.calls": per_op_calls("experiment.model_fidelity"),
        "experiment.model_fidelity.ms_per_call": ms_per_call("experiment.model_fidelity"),
        "optimize.nelder_mead.calls": per_op_calls("optimize.nelder_mead"),
        "optimize.nelder_mead.iterations": (mean_tag("optimize.nelder_mead", 0), "1/call"),
        "optimize.nelder_mead.converged_ratio": (mean_tag("optimize.nelder_mead", 1), "ratio"),
        "optimize.monte_carlo_fidelity.self_s": self_s("optimize.monte_carlo_fidelity"),
        "fock.replay_fock.calls": per_op_calls("fock.replay_fock"),
        "fock.replay_fock.self_s": self_s("fock.replay_fock"),
    }
    for c in cutoffs:
        out[f"fock.replay_fock.c{c}.ms_per_call"] = ms_per_call(f"fock.replay_fock.c{c}")
    out.update({
        "fock.attach_detector_noise.self_s": self_s("fock.attach_detector_noise"),
        "fock.photon_distribution.self_s": self_s("fock.photon_distribution"),
        "calibrate.fit_source.iterations": (mean_tag("calibrate.fit_source", 0), "1/call"),
        "calibrate.predicted_distribution.calls": per_op_calls("calibrate.predicted_distribution"),
        "calibrate.predicted_distribution.ms_per_call":
            ms_per_call("calibrate.predicted_distribution"),
        "calibrate.read_histogram_csv.self_s": self_s("calibrate.read_histogram_csv"),
        "metrics.tvd.calls": per_op_calls("metrics.tvd"),
        "metrics.tvd.self_s": self_s("metrics.tvd"),
        "fock.gaussian_to_fock.calls": per_op_calls("fock.gaussian_to_fock"),
        "fock.gaussian_to_fock.self_s": self_s("fock.gaussian_to_fock"),
        "decompositions.williamson.self_s": self_s("decompositions.williamson"),
        "decompositions.bloch_messiah.self_s": self_s("decompositions.bloch_messiah"),
        "vibronic.fc_factors.self_s": self_s("vibronic.fc_factors"),
        "vibronic.doktorov_decompose.self_s": self_s("vibronic.doktorov_decompose"),
        "vibronic.spectrum.self_s": self_s("vibronic.spectrum"),
        "vibronic.gaussian_statistics.self_s": self_s("vibronic.gaussian_statistics"),
        "sampler.sample.self_s": self_s("sampler.sample"),
        "sampler.estimate_fc.self_s": self_s("sampler.estimate_fc"),
        "metrics.closest_classical.self_s": self_s("metrics.closest_classical"),
    })
    if operator_caches():  # absent where no cached builder exists
        hits, misses = cache_delta
        out.update({
            "fock.operator_cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                                              "ratio"),
            "fock.operator_cache.hits": (hits / n_ops, "1/op"),
            "fock.operator_cache.misses": (misses / n_ops, "1/op"),
        })
    out.update({
        "cli.load_config.self_s": self_s("cli.load_config"),
        "cli.self_s": (sum(self_ns[n] for n in self_ns
                           if n.startswith("cli.") and n != "cli.load_config") / 1e9 / n_ops,
                       "s/op"),
        "process.cpu_s": (cpu_s / n_ops, "s/op"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return out
