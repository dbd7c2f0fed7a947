"""Per-layer numbers: one traced pass over every operation of every workload,
plus timing loops around single public functions.

Second-scale numbers come from the spans of the traced pass; microsecond-
scale numbers come from timing loops with tracing off, because a span costs
about as much as the call it would wrap.  Every value is returned as
``(value, sample_count)``.
"""

import contextlib
import io
import math
import statistics
import time
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable

import numpy as np

from concrete_geom import cli
from concrete_geom import distributions as D
from concrete_geom import geometry as G
from concrete_geom import moments as M
from concrete_geom import simplex as S
from concrete_geom import special as SP

import workloads as W
from tracing import LAYERS, Tracer

MICRO_REPEATS = 5


def run_cli_inprocess(argv: list) -> tuple:
    """``cli.main`` with stdout captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@dataclass(frozen=True)
class CatalogueOp:
    """An operation run in-process: ``run()`` returns its output and
    ``check(output)`` a dict with a ``problems`` list."""

    workload: str
    name: str
    run: Callable
    check: Callable
    rows: int = 0


def catalogue(seed: int, sizes: W.Sizes) -> list:
    """Every operation of every workload, in workload order."""
    ops = [
        CatalogueOp(workload, op.name, partial(run_cli_inprocess, op.argv),
                    lambda res, op=op: op.check(*res), op.rows)
        for workload in ("verify", "sample")
        for op in W.cli_ops(workload, seed, sizes)
    ]
    inputs = W.library_inputs(seed, sizes)
    ops += [
        CatalogueOp("library", op.name, partial(op.run, inputs),
                    lambda res, op=op: {"problems": op.check(res[1])})
        for op in W.LIBRARY_OPS
    ]
    return ops


def traced_pass(tracer, ops: list, before=lambda op: None) -> tuple:
    """Run ``ops`` once under ``tracer``, calling ``before(op)`` untimed
    ahead of each; returns (outputs, wall seconds) by op name."""
    outputs, walls = {}, {}
    with tracer.installed():
        for op in ops:
            before(op)
            t0 = time.perf_counter()
            with tracer.op(op.name):
                if op.workload == "library":
                    outputs[op.name] = op.run()
                else:
                    with tracer.span("cli.main"):
                        outputs[op.name] = op.run()
            walls[op.name] = time.perf_counter() - t0
    return outputs, walls


def span_metrics(tracer, ops: list, outputs: dict, infos: dict) -> dict:
    """Per-layer metrics read from the spans of :func:`traced_pass`; ``infos``
    holds each op's check result."""
    def total(name, op):
        d = tracer.durations(name, op)
        return sum(d), len(d)

    def median(values):
        return statistics.median(values), len(values)

    self_s = tracer.self_times()
    cli_self = {span[4]: t for span, t in zip(tracer.spans, self_s) if span[0] == "cli.main"}
    verify_ops = [f"verify_k{k}" for k in W.VERIFY_KS]
    m = {
        "cli.verify_self_s": median([cli_self[op] for op in verify_ops]),
        "cli.sample_json_self_s": (cli_self["sample_json"], 1),
        "cli.sample_csv_self_s": (cli_self["sample_csv"], 1),
    }
    for op in verify_ops + ["sample_json", "sample_csv", "round"]:
        m[f"cli.output_bytes_{op}"] = (len(outputs[op][1].encode()), 1)
    for k in W.VERIFY_KS:
        op = f"verify_k{k}"
        info = infos[op]
        m[f"oracle.run_suite_k{k}_s"] = total("oracle.run_suite", op)
        m[f"oracle.checks_k{k}"] = (info.get("checks", 0), 1)
        m[f"oracle.checks_failed_k{k}"] = (len(info.get("failed_checks", [])), 1)
    m["oracle.quad_normalization_k3_s"] = total("oracle.quad_normalization", "verify_k3")
    m["oracle.mc_special_moments_k3_s"] = total("oracle.mc_special_moments", "verify_k3")
    m["oracle.mc_special_moments_k4_s"] = total("oracle.mc_special_moments", "verify_k4")
    m["oracle.mc_log_ratio_moments_k4_s"] = total("oracle.mc_log_ratio_moments", "verify_k4")
    m["oracle.mc_score_fisher_k4_s"] = total("oracle.mc_score_fisher", "verify_k4")
    m["oracle.quad_fisher_k2_s"] = total("oracle.quad_fisher", "verify_k2")
    pull = [d for op in verify_ops for d in tracer.durations("oracle.pullback_metric_check", op)]
    m["oracle.pullback_metric_check_ms"] = (statistics.median(pull) * 1e3, len(pull))
    m["simplex.integrate_gl_k3_s"] = total("simplex.integrate_simplex", "verify_k3")
    m["simplex.quad_points_k3"] = (tracer.counts.get(("verify_k3", "simplex.points"), 0), 1)
    m["simplex.integrate_mc_k4_s"] = total("simplex.integrate_simplex", "verify_k4")
    k4 = tracer.durations("distributions.sample_concrete", "verify_k4")
    m["distributions.sample_concrete_k4_ms"] = (statistics.median(k4) * 1e3, len(k4))
    rates = [
        op.rows / d
        for op in ops if op.workload == "sample"
        for d in tracer.durations("distributions.sample_concrete", op.name)
    ]
    m["distributions.sample_concrete_k3_rows_per_s"] = median(rates)
    layers = tracer.layer_self()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layers[layer]["self_s"], layers[layer]["spans"])
    return m


def span_cost_s(min_s: float) -> float:
    """Seconds one span adds to a call: a wrapped no-op minus a bare one."""
    def noop():
        pass

    traced = Tracer().wrap("probe", noop)
    return per_call([traced], min_s)[0] - per_call([noop], min_s)[0]


def per_call(calls: list, min_s: float) -> tuple:
    """Median seconds per call over repeats of calling every callable once per
    round; each repeat lasts at least ``min_s``."""
    t0 = time.perf_counter()
    for c in calls:
        c()
    first = time.perf_counter() - t0
    rounds = max(1, math.ceil(min_s / max(first, 1e-9)))
    per = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        for _ in range(rounds):
            for c in calls:
                c()
        per.append((time.perf_counter() - t0) / (rounds * len(calls)))
    return statistics.median(per), MICRO_REPEATS * rounds * len(calls)


def micro_metrics(seed: int, sizes: W.Sizes) -> dict:
    """Timing loops around single public functions, on the ``library`` inputs."""
    inputs = W.library_inputs(seed, sizes)
    small, large = inputs.small, inputs.large
    k3 = [s for s in small if len(s.beta) == 3]
    ps = {id(s): D.ConcreteParams(beta=s.beta, tau=s.tau) for s in small + large}
    etas = {id(s): G.to_poincare(ps[id(s)]) for s in small}
    etas_q = {id(s): G.to_poincare(s.q) for s in small}
    gen = np.random.default_rng([seed, 4])
    e = gen.standard_exponential((64, W.SCALAR_K))
    rows = e / np.sum(e, axis=1, keepdims=True)

    def scaled(value, factor):
        return value[0] * factor, value[1]

    us, ms = 1e6, 1e3
    t = sizes.micro_s
    m = {}
    for name, fn in (("digamma", SP.digamma), ("trigamma", SP.trigamma),
                     ("log_gamma", SP.log_gamma)):
        m[f"special.{name}_us"] = scaled(
            per_call([lambda a=a, fn=fn: fn(a) for a in inputs.alphas], t), us)
    m["simplex.simplex_point_us"] = scaled(
        per_call([lambda r=r: S.SimplexPoint(r) for r in rows], t), us)
    batch_s, n = per_call([lambda: W.scalar_batch(inputs)], t)
    points = inputs.scalar_cfg.mc_samples
    m["simplex.integrate_scalar_us_per_point"] = (batch_s / points * us, n * points)
    m["distributions.params_us"] = scaled(
        per_call([lambda s=s: D.ConcreteParams(beta=s.beta, tau=s.tau) for s in small], t), us)
    m["distributions.concrete_log_density_us"] = scaled(
        per_call([lambda s=s: D.concrete_log_density(ps[id(s)], s.x) for s in small], t), us)
    m["distributions.uniform_transform_us"] = scaled(
        per_call([lambda s=s: D.uniform_transform(ps[id(s)], s.x, D.TO_UNIFORM)
                  for s in small], t), us)
    m["distributions.rounding_probabilities_k100_ms"] = scaled(
        per_call([lambda s=s: D.rounding_probabilities(s.beta) for s in large], t), ms)
    m["moments.lr_mean_us"] = scaled(per_call(
        [lambda s=s, i=i: M.lr_mean(s.isp, *i)
         for s in small for i in product(range(len(s.beta)), repeat=2)], t), us)
    m["moments.lr_cov_us"] = scaled(per_call(
        [lambda s=s, i=i: M.lr_cov(s.isp, *i)
         for s in small for i in product(range(len(s.beta)), repeat=4)], t), us)
    m["moments.raw_second_moment_special_us"] = scaled(per_call(
        [lambda s=s, i=i: M.raw_second_moment_special(s.beta, s.tau, *i)
         for s in small for i in product(range(len(s.beta)), repeat=5)], t), us)
    m["geometry.fisher_full_k3_us"] = scaled(
        per_call([lambda s=s: G.fisher_full(ps[id(s)]) for s in k3], t), us)
    m["geometry.fisher_reduced_k3_us"] = scaled(
        per_call([lambda s=s: G.fisher_reduced(ps[id(s)]) for s in k3], t), us)
    m["geometry.fr_distance_us"] = scaled(
        per_call([lambda s=s: G.fr_distance(ps[id(s)], s.q) for s in small], t), us)
    m["geometry.to_poincare_us"] = scaled(
        per_call([lambda s=s: G.to_poincare(ps[id(s)]) for s in small], t), us)
    m["geometry.from_poincare_us"] = scaled(
        per_call([lambda s=s: G.from_poincare(etas[id(s)]) for s in small], t), us)
    m["geometry.half_space_distance_us"] = scaled(
        per_call([lambda s=s: G.half_space_distance(etas[id(s)], etas_q[id(s)])
                  for s in small], t), us)
    m["geometry.fisher_full_k100_us"] = scaled(
        per_call([lambda s=s: G.fisher_full(ps[id(s)]) for s in large], t), us)
    m["geometry.fisher_reduced_k100_ms"] = scaled(
        per_call([lambda s=s: G.fisher_reduced(ps[id(s)]) for s in large], t), ms)
    return m
