"""What the traced run wraps in scendiff, and the per-layer metrics it derives.

Attributes are wrapped where their callers look them up: `value` imports
`simplex_solve` and `build_two_stage_lp` by name, `metrics.evaluate` calls the
scoring rules as module globals, and `diffusion` calls `nn.<function>`. The
CLI binds `cmd_<command>` when `main` builds its parser, so wrapping the
module global reaches it.
"""
from __future__ import annotations

import inspect

import numpy as np

from spans import SpanStats

# Per-layer metrics, in output order: (name, unit, better).
PER_LAYER = [
    ("nn.forward_batch.calls", "count", "lower"),
    ("nn.forward_batch.rows", "count", "higher"),
    ("nn.forward_batch.s", "s", "lower"),
    ("nn.forward_batch.p50_s", "s", "lower"),
    ("nn.forward_batch.tail_s", "s", "lower"),
    ("nn.forward_batch.gflop", "GFLOP", "lower"),
    ("nn.forward_batch.gflop_per_s", "GFLOP/s", "higher"),
    ("nn.timestep_embedding.calls", "count", "lower"),
    ("nn.timestep_embedding.s", "s", "lower"),
    ("nn.backward_batch.calls", "count", "lower"),
    ("nn.backward_batch.s", "s", "lower"),
    ("nn.backward_batch.p50_s", "s", "lower"),
    ("nn.backward_batch.tail_s", "s", "lower"),
    ("nn.backward_batch.gflop", "GFLOP", "lower"),
    ("nn.adam_step.calls", "count", "lower"),
    ("nn.adam_step.s", "s", "lower"),
    ("diffusion.training_loss.calls", "count", "lower"),
    ("diffusion.training_loss.self_s", "s", "lower"),
    ("diffusion.train.s", "s", "lower"),
    ("diffusion.train.self_s", "s", "lower"),
    ("diffusion.train.epochs", "count", "higher"),
    ("diffusion.sample_days.s", "s", "lower"),
    ("diffusion.sample_days.self_s", "s", "lower"),
    ("diffusion.sample_days.rows", "count", "higher"),
    ("diffusion.sampler_noise_mb", "MB", "lower"),
    ("diffusion.save_checkpoint.s", "s", "lower"),
    ("diffusion.load_checkpoint.s", "s", "lower"),
    ("diffusion.write_scenarios.s", "s", "lower"),
    ("diffusion.read_scenarios.s", "s", "lower"),
    ("diffusion.read_scenarios.rows", "count", "higher"),
    ("data.load_csv.s", "s", "lower"),
    ("data.load_csv.rows", "count", "higher"),
    ("data.normalize.s", "s", "lower"),
    ("data.split_random.s", "s", "lower"),
    ("data.write_observations.s", "s", "lower"),
    ("data.read_observations.s", "s", "lower"),
    ("metrics.evaluate.s", "s", "lower"),
    ("metrics.evaluate.self_s", "s", "lower"),
    ("metrics.crps.s", "s", "lower"),
    ("metrics.quantile_score.s", "s", "lower"),
    ("metrics.energy_score.s", "s", "lower"),
    ("metrics.variogram_score.s", "s", "lower"),
    ("metrics.reliability.s", "s", "lower"),
    ("simplex.simplex_solve.large.calls", "count", "lower"),
    ("simplex.simplex_solve.large.s", "s", "lower"),
    ("simplex.simplex_solve.large.iterations", "count", "lower"),
    ("simplex.simplex_solve.large.s_per_iter", "s", "lower"),
    ("simplex.simplex_solve.large.p50_s", "s", "lower"),
    ("simplex.simplex_solve.large.tail_s", "s", "lower"),
    ("simplex.simplex_solve.small.calls", "count", "lower"),
    ("simplex.simplex_solve.small.s", "s", "lower"),
    ("simplex.simplex_solve.small.iterations", "count", "lower"),
    ("simplex.simplex_solve.small.s_per_iter", "s", "lower"),
    ("simplex.simplex_solve.small.p50_s", "s", "lower"),
    ("simplex.simplex_solve.small.tail_s", "s", "lower"),
    ("simplex.tableau_mb.large", "MB", "lower"),
    ("simplex.optimal_ratio", "ratio", "higher"),
    *[(f"value.{fn}.{stat}", unit, "lower")
      for fn in ("build_two_stage_lp", "solve_bidding", "realtime_dispatch",
                 "oracle_profit", "deterministic_bids", "extract_bids")
      for stat, unit in (("calls", "count"), ("s", "s"))],
    ("value.run_value_benchmark.self_s", "s", "lower"),
    *[(f"cli.{cmd}.self_s", "s", "lower") for cmd in ("train", "generate", "evaluate", "value")],
    ("trace_overhead_pct", "%", "lower"),
]


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _dense_flop(params, rows: int) -> int:
    """2 * rows * fan_in * fan_out per dense layer; bias and activation ignored."""
    return 2 * rows * sum(w.size for w, _ in params.layers)


def wrap_list(sd):
    """(module, attribute, span, label, count) entries for spans.Tracer.

    `sd` is the imported scendiff package with its submodules loaded.
    """
    cli, data, diffusion, metrics, nn, value, simplex = (
        sd.cli, sd.data, sd.diffusion, sd.metrics, sd.nn, sd.value, sd.simplex)
    chunk = inspect.signature(diffusion._reverse_engine).parameters["chunk"].default
    fwd, bwd, sample = nn.forward_batch, nn.backward_batch, diffusion.sample_days
    build = value.build_two_stage_lp

    def count_forward(st, args, kwargs, result):
        a = _bind(fwd, args, kwargs)
        rows = np.atleast_2d(a["x_noisy"]).shape[0]
        st.add("rows", rows)
        st.add("flop", _dense_flop(a["params"], rows))

    def count_backward(st, args, kwargs, result):
        a = _bind(bwd, args, kwargs)
        params, rows = a["params"], np.atleast_2d(a["x_noisy"]).shape[0]
        # forward recompute, weight gradients, and input gradients below layer 0
        below = 2 * rows * sum(w.size for w, _ in params.layers[1:])
        st.add("flop", 2 * _dense_flop(params, rows) + below)

    def count_sample(st, args, kwargs, result):
        a = _bind(sample, args, kwargs)
        rows = np.atleast_2d(a["conditions"]).shape[0] * a["m"]
        st.add("rows", rows)
        noise = min(chunk, rows) * max(a["sched"].n - 1, 0) * data.HOURS * 8
        st.counters["noise_bytes"] = max(st.counters.get("noise_bytes", 0), noise)

    # scenario count S of each LP, keyed by id(lp), as its builder was called;
    # an LP solved without going through build_two_stage_lp counts as small
    lp_scenarios: dict[int, int] = {}

    def count_build(st, args, kwargs, result):
        lp_scenarios[id(result)] = len(_bind(build, args, kwargs)["scenarios"])

    def lp_span(args, kwargs):
        lp = args[0] if args else kwargs["lp"]
        size = "large" if lp_scenarios.get(id(lp), 1) >= 2 else "small"
        return f"simplex.simplex_solve.{size}"

    def count_solve(st, args, kwargs, result):
        lp = args[0] if args else kwargs["lp"]
        st.add("iterations", result.iterations)
        st.add("optimal", result.status == "optimal")
        if lp_scenarios.pop(id(lp), 1) >= 2:
            m, n = lp.a.shape
            st.counters["tableau_bytes"] = max(st.counters.get("tableau_bytes", 0),
                                               (m + 1) * (n + 1) * 8)
            ok = result.status == "optimal" and simplex.verify_certificate(lp, result)["ok"]
            st.add("certified" if ok else "cert_failed", 1)

    def count_load(st, args, kwargs, result):
        st.add("rows", len(result.samples) * data.HOURS)

    def count_read_scenarios(st, args, kwargs, result):
        st.add("rows", sum(arr.shape[0] for arr in result.values()))

    def count_train(st, args, kwargs, result):
        st.add("epochs", len(result[1]))

    wraps = [(cli, f"cmd_{c}", f"cli.{c}", None, None)
             for c in ("train", "generate", "evaluate", "value")]
    wraps += [
        (data, "load_csv", "data.load_csv", None, count_load),
        (data, "normalize", "data.normalize", None, None),
        (data, "split_random", "data.split_random", None, None),
        (data, "write_observations", "data.write_observations", None, None),
        (data, "read_observations", "data.read_observations", None, None),
        (nn, "forward_batch", "nn.forward_batch", None, count_forward),
        (nn, "backward_batch", "nn.backward_batch", None, count_backward),
        (nn, "adam_step", "nn.adam_step", None, None),
        (nn, "timestep_embedding", "nn.timestep_embedding", None, None),
        (diffusion, "train", "diffusion.train", None, count_train),
        (diffusion, "training_loss", "diffusion.training_loss", None, None),
        (diffusion, "sample_days", "diffusion.sample_days", None, count_sample),
        (diffusion, "save_checkpoint", "diffusion.save_checkpoint", None, None),
        (diffusion, "load_checkpoint", "diffusion.load_checkpoint", None, None),
        (diffusion, "write_scenarios", "diffusion.write_scenarios", None, None),
        (diffusion, "read_scenarios", "diffusion.read_scenarios", None, count_read_scenarios),
        (metrics, "evaluate", "metrics.evaluate", None, None),
    ]
    wraps += [(metrics, f, f"metrics.{f}", None, None)
              for f in ("crps", "quantile_score", "energy_score", "variogram_score",
                        "reliability")]
    wraps += [(value, "simplex_solve", "simplex.simplex_solve", lp_span, count_solve)]
    wraps += [(value, "build_two_stage_lp", "value.build_two_stage_lp", None, count_build)]
    wraps += [(value, f, f"value.{f}", None, None)
              for f in ("solve_bidding", "realtime_dispatch",
                        "oracle_profit", "deterministic_bids", "extract_bids",
                        "run_value_benchmark")]
    return wraps


def _tail(durations) -> float:
    """Highest percentile with at least ten samples beyond it (p50 at least)."""
    n = len(durations)
    if n == 0:
        return 0.0
    return float(np.quantile(durations, max(0.5, 1.0 - 10.0 / n)))


def per_layer_metrics(stats: dict, n_iter: int, overhead_pct: float) -> dict:
    """Per-iteration values of every PER_LAYER metric from traced spans.

    Spans that never ran on the workload give 0.
    """
    def get(span):
        return stats.get(span, SpanStats())

    out = {"trace_overhead_pct": overhead_pct}
    for name, _, _ in PER_LAYER:
        if name in out:
            continue
        span, _, stat = name.rpartition(".")
        st = get(span)
        if stat in ("calls", "s", "self_s"):
            v = getattr(st, stat) / n_iter
        elif stat == "p50_s":
            v = float(np.median(st.durations)) if st.durations else 0.0
        elif stat == "tail_s":
            v = _tail(st.durations)
        elif stat == "gflop":
            v = st.counters.get("flop", 0) / 1e9 / n_iter
        elif stat == "gflop_per_s":
            v = st.counters.get("flop", 0) / 1e9 / st.s if st.s else 0.0
        elif stat == "s_per_iter":
            it = st.counters.get("iterations", 0)
            v = st.s / it if it else 0.0
        elif name == "diffusion.sampler_noise_mb":
            v = get("diffusion.sample_days").counters.get("noise_bytes", 0) / 1e6
        elif name == "simplex.tableau_mb.large":
            v = get("simplex.simplex_solve.large").counters.get("tableau_bytes", 0) / 1e6
        elif name == "simplex.optimal_ratio":
            solves = [get(f"simplex.simplex_solve.{k}") for k in ("large", "small")]
            calls = sum(s.calls for s in solves)
            v = sum(s.counters.get("optimal", 0) for s in solves) / calls if calls else 0.0
        else:  # a work counter such as rows, epochs or iterations
            v = st.counters.get(stat, 0) / n_iter
        out[name] = float(v)
    return out
