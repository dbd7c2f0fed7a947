"""Operations of the three benchmark workloads, their inputs and output checks.

Each workload is a list of three operations, run in that order once per
pass.  ``verify`` and ``sample`` operations are CLI invocations; ``library``
operations are in-process batches of public API calls.  Every operation's
output is checked, and a check returns a list of problems (empty when the
output is correct).
"""

import json
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

from concrete_geom import distributions as D
from concrete_geom import geometry as G
from concrete_geom import moments as M
from concrete_geom import simplex as S

WORKLOADS = ("verify", "sample", "library")

SAMPLE_BETA = np.array([1.0, 2.0, 3.0])
SAMPLE_TAU = 0.7
VERIFY_KS = (2, 3, 4)
SMALL_KS = (3, 5)
LARGE_K = 100
SCALAR_K = 4


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``SMOKE`` the quick self-test."""

    verify_n: int | None  # None keeps the CLI default (100000)
    sample_n: int
    round_n: int
    large_sets: int
    scalar_points: int
    setup_probes: int
    micro_s: float  # minimum length of one microbenchmark repeat


FULL = Sizes(None, 100_000, 1_000_000, 4, 4000, 5, 0.02)
SMOKE = Sizes(5000, 2000, 20_000, 1, 100, 2, 0.001)


# ---------------------------------------------------------------- CLI ops


@dataclass(frozen=True)
class CliOp:
    """One CLI invocation; ``check(exit_code, stdout)`` returns a dict with a
    ``problems`` list and any facts worth recording."""

    name: str
    argv: list
    check: Callable[[int, str], dict]
    rows: int = 0  # rows the sampler draws, for rows/s


VERIFY_KEYS = {"name", "target", "estimate", "se_or_tol", "pass"}


def _guarded(check):
    """Report output that cannot be parsed as a problem instead of raising."""

    def guarded(code: int, out: str) -> dict:
        try:
            return check(code, out)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return {"problems": [f"malformed output: {type(exc).__name__}: {exc}"]}

    return guarded


def _check_verify(seed: int):
    @_guarded
    def check(code: int, out: str) -> dict:
        if code not in (0, 2):
            return {"problems": [f"exit code {code}"]}
        report = json.loads(out)
        checks = report.get("checks") or []
        problems = []
        if not checks:
            problems.append("report has no checks")
        if report.get("seed") != seed:
            problems.append(f"report seed {report.get('seed')!r} != {seed}")
        bad_keys = [c.get("name") for c in checks if set(c) != VERIFY_KEYS]
        if bad_keys:
            problems.append(f"checks without the five keys: {bad_keys[:3]}")
        failed = [c.get("name") for c in checks if c.get("pass") is not True]
        if code != (2 if failed else 0):
            problems.append(f"exit code {code} disagrees with {len(failed)} failed checks")
        return {"problems": problems, "checks": len(checks), "failed_checks": failed}

    return check


def reference_sample(seed: int, n: int) -> np.ndarray:
    params = D.ConcreteParams(beta=SAMPLE_BETA, tau=SAMPLE_TAU)
    return D.sample_concrete(params, D.RngState(seed), n)


def _sample_problems(x: np.ndarray, ref: np.ndarray) -> list:
    if x.shape != ref.shape:
        return [f"shape {x.shape} != {ref.shape}"]
    problems = []
    if not np.array_equal(x, ref):
        problems.append(f"{int(np.sum(x != ref))} values differ from sample_concrete")
    worst = float(np.max(np.abs(np.sum(x, axis=1) - 1.0)))
    if worst > 1e-12:
        problems.append(f"a row sums to 1 {worst:+.3g}")
    return problems


def _check_sample_json(seed: int, ref: np.ndarray):
    @_guarded
    def check(code: int, out: str) -> dict:
        if code != 0:
            return {"problems": [f"exit code {code}"]}
        data = json.loads(out)
        problems = _sample_problems(np.array(data["samples"], dtype=float), ref)
        if data.get("seed") != seed:
            problems.append(f"seed {data.get('seed')!r} != {seed}")
        return {"problems": problems}

    return check


def _check_sample_csv(ref: np.ndarray):
    @_guarded
    def check(code: int, out: str) -> dict:
        if code != 0:
            return {"problems": [f"exit code {code}"]}
        lines = out.splitlines()
        header = ",".join(f"x{i + 1}" for i in range(ref.shape[1]))
        if not lines or lines[0] != header:
            return {"problems": ["missing CSV header"]}
        x = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        return {"problems": _sample_problems(x, ref)}

    return check


def _check_round(seed: int, n: int):
    target = SAMPLE_BETA / np.sum(SAMPLE_BETA)

    @_guarded
    def check(code: int, out: str) -> dict:
        if code != 0:
            return {"problems": [f"exit code {code}"]}
        data = json.loads(out)
        problems = []
        if data["probabilities"] != [float(v) for v in target]:
            problems.append(f"probabilities {data['probabilities']} != beta/sum(beta)")
        if data["mc_samples"] != n or data["seed"] != seed:
            problems.append("mc_samples or seed not echoed")
        for i, (f, p) in enumerate(zip(data["mc_frequencies"], target)):
            se = math.sqrt(p * (1.0 - p) / n)
            if abs(f - p) > 5.0 * se:
                problems.append(f"mc_frequencies[{i}] = {f} is {abs(f - p) / se:.1f} SE off")
        return {"problems": problems}

    return check


def cli_ops(workload: str, seed: int, sizes: Sizes) -> list:
    """The three CLI operations of ``verify`` or ``sample`` at this seed."""
    if workload == "verify":
        extra = [] if sizes.verify_n is None else ["-n", str(sizes.verify_n)]
        return [
            CliOp(f"verify_k{k}", ["verify", "--k", str(k), "--seed", str(seed)] + extra,
                  _check_verify(seed))
            for k in VERIFY_KS
        ]
    if workload == "sample":
        ref = reference_sample(seed, sizes.sample_n)
        params = ["--beta", "1,2,3", "--tau", str(SAMPLE_TAU)]
        sample = ["sample", *params, "-n", str(sizes.sample_n), "--seed", str(seed)]
        return [
            CliOp("sample_json", sample + ["--format", "json"],
                  _check_sample_json(seed, ref), sizes.sample_n),
            CliOp("sample_csv", sample + ["--format", "csv"],
                  _check_sample_csv(ref), sizes.sample_n),
            CliOp("round", ["round", *params, "-n", str(sizes.round_n), "--seed", str(seed)],
                  _check_round(seed, sizes.round_n), sizes.round_n),
        ]
    raise ValueError(f"{workload!r} has no CLI operations")


# ------------------------------------------------------------ library ops


@dataclass(frozen=True)
class ParamSet:
    """One generated (beta, tau) input with its partner and evaluation point."""

    beta: np.ndarray
    tau: float
    q: D.ConcreteParams  # partner for distances
    isp: D.InverseSchlomilchParams  # alpha-weighted version for the moments
    x: S.SimplexPoint


def _param_set(gen: np.random.Generator, k: int) -> ParamSet:
    beta = np.exp(gen.uniform(-1.0, 1.0, size=k))
    tau = float(gen.uniform(0.4, 3.0))
    q = D.ConcreteParams(beta=np.exp(gen.uniform(-1.0, 1.0, size=k)),
                         tau=float(gen.uniform(0.4, 3.0)))
    isp = D.InverseSchlomilchParams(alpha=gen.uniform(0.5, 3.0, size=k), beta=beta, tau=tau)
    x = S.SimplexPoint(gen.dirichlet(np.full(k, 2.0)))
    return ParamSet(beta, tau, q, isp, x)


@dataclass(frozen=True)
class LibraryInputs:
    small: list  # one ParamSet each at K = 3 and 5
    large: list  # ParamSets at K = 100
    scalar_cfg: S.QuadratureConfig

    @property
    def alphas(self) -> list:
        return [float(a) for s in self.small for a in s.isp.alpha.weights]


def library_inputs(seed: int, sizes: Sizes) -> LibraryInputs:
    gen = np.random.default_rng([seed, 20221102])
    small = [_param_set(gen, k) for k in SMALL_KS]
    large = [_param_set(gen, LARGE_K) for _ in range(sizes.large_sets)]
    cfg = S.QuadratureConfig(mc_samples=sizes.scalar_points, mc_seed=seed)
    return LibraryInputs(small, large, cfg)


@dataclass
class FamilyResult:
    """Outputs of the public-API family at one parameter set."""

    s: ParamSet
    p: D.ConcreteParams
    full: G.FisherFull
    reduced: G.FisherReduced
    d_pq: float
    d_qp: float
    d_pp: float
    back: D.ConcreteParams
    half: float
    rounding: np.ndarray
    log_density: float
    uniform: S.SimplexPoint
    moments: list = field(default_factory=list)


def _family(s: ParamSet, with_moments: bool) -> tuple:
    """Call every public function of the family once; returns (calls, result)."""
    p = D.ConcreteParams(beta=s.beta, tau=s.tau)
    eta_p = G.to_poincare(p)
    res = FamilyResult(
        s=s,
        p=p,
        full=G.fisher_full(p),
        reduced=G.fisher_reduced(p),
        d_pq=G.fr_distance(p, s.q).value,
        d_qp=G.fr_distance(s.q, p).value,
        d_pp=G.fr_distance(p, p).value,
        back=G.from_poincare(eta_p),
        half=G.half_space_distance(eta_p, G.to_poincare(s.q)),
        rounding=D.rounding_probabilities(s.beta),
        log_density=D.concrete_log_density(p, s.x),
        uniform=D.uniform_transform(p, s.x, D.TO_UNIFORM),
    )
    calls = 13
    if with_moments:
        k = len(s.beta)
        res.moments = [M.lr_mean(s.isp, i, j) for i, j in product(range(k), repeat=2)]
        res.moments += [M.lr_cov(s.isp, *t) for t in product(range(k), repeat=4)]
        res.moments += [
            M.raw_second_moment_special(s.beta, s.tau, *t) for t in product(range(k), repeat=5)
        ]
        calls += len(res.moments)
    return calls, res


def small_k_batch(inputs: LibraryInputs) -> tuple:
    results = [_family(s, True) for s in inputs.small]
    return sum(c for c, _ in results), [r for _, r in results]


def large_k_batch(inputs: LibraryInputs) -> tuple:
    results = [_family(s, False) for s in inputs.large]
    return sum(c for c, _ in results), [r for _, r in results]


def scalar_batch(inputs: LibraryInputs) -> tuple:
    est = S.integrate_simplex(lambda x: 1.0, SCALAR_K, inputs.scalar_cfg)
    return inputs.scalar_cfg.mc_samples, est


def _family_problems(r: FamilyResult) -> list:
    k = r.p.dim
    tag = f"K={k} beta[0]={r.s.beta[0]:.6g}"
    problems = []
    try:
        np.linalg.cholesky(r.reduced.entries)
    except np.linalg.LinAlgError:
        problems.append(f"{tag}: fisher_reduced is not positive definite")
    if not np.allclose(r.reduced.entries, r.reduced.entries.T, rtol=1e-12, atol=0.0):
        problems.append(f"{tag}: fisher_reduced is not symmetric")
    gauge = np.append(r.p.beta.weights, 0.0)
    f = r.full.entries
    if np.any(np.abs(f @ gauge) > 1e-10 * (np.abs(f) @ np.abs(gauge))):
        problems.append(f"{tag}: fisher_full does not annihilate (beta, 0)")
    if r.d_pp != 0.0:
        problems.append(f"{tag}: fr_distance(p, p) = {r.d_pp}")
    if abs(r.d_pq - r.d_qp) > 1e-12 * max(1.0, r.d_pq):
        problems.append(f"{tag}: fr_distance not symmetric ({r.d_pq} vs {r.d_qp})")
    if not (np.allclose(r.back.beta.weights, r.p.normalized_beta(), rtol=0.0, atol=1e-9)
            and abs(r.back.tau - r.p.tau) <= 1e-9):
        problems.append(f"{tag}: Poincare round trip does not return (beta, tau)")
    if not np.array_equal(r.rounding, r.s.beta / np.sum(r.s.beta)):
        problems.append(f"{tag}: rounding_probabilities != beta/sum(beta)")
    values = [r.half, r.log_density, *r.moments]
    if not np.all(np.isfinite(values)):
        problems.append(f"{tag}: non-finite distance, density or moment")
    return problems


def check_family(results: list) -> list:
    return [msg for r in results for msg in _family_problems(r)]


def check_scalar(est: float) -> list:
    exact = 1.0 / math.factorial(SCALAR_K - 1)
    if abs(est - exact) > 1e-12:
        return [f"constant integrand gave {est!r}, not 1/{SCALAR_K - 1}!"]
    return []


@dataclass(frozen=True)
class LibraryOp:
    """An in-process batch: ``run(inputs) -> (work, output)``, where work
    counts calls or integrand points; ``check(output)`` lists problems."""

    name: str
    run: Callable
    check: Callable


LIBRARY_OPS = (
    LibraryOp("small_k", small_k_batch, check_family),
    LibraryOp("large_k", large_k_batch, check_family),
    LibraryOp("scalar_integrand", scalar_batch, check_scalar),
)
