"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 numeric or
domain error, 141 stdout closed by its reader (128 + SIGPIPE, as in a shell
pipe to ``head``).  Data goes to stdout, diagnostics to stderr; identical
arguments and seed produce byte-identical output.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .distributions import (
    ConcreteParams,
    InverseSchlomilchParams,
    RngState,
    _rounding_frequencies,
    concrete_log_density,
    is_log_density,
    rounding_probabilities,
    sample_concrete,
)
from .errors import ConcreteGeomError
from .forks import available_cpus, forked
from .geometry import (
    curvature_length,
    fisher_full,
    fisher_reduced,
    fr_distance,
    to_poincare,
)
from .moments import lr_cov, lr_mean, lr_var
from .oracle import MC_SAMPLES, familywise, run_suite
from .simplex import SimplexPoint

EXIT_BROKEN_PIPE = 141

# A forked formatter saves its share of about 1.3 us of formatting per value
# and costs a fork of the `sample` process plus a pipe copy of its text.  On a
# 2-core VM (Python 3.11, numpy 2.4, a 60 MB process) two processes break even
# with one at 9,000-12,000 values (3,000-4,000 rows at K = 3, 1,100-1,500 at
# K = 8), so the first fork comes at 20,000 values, about 20% faster there.
MIN_VALUES_PER_PROCESS = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _vector(text: str) -> np.ndarray:
    try:
        v = np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError as exc:
        raise _UsageError(f"bad vector {text!r}: {exc}") from None
    if v.size < 2:
        raise _UsageError("vectors need at least 2 comma-separated entries")
    return v


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _matrix_dict(mat: np.ndarray) -> dict:
    return {
        f"m_{i + 1}_{j + 1}": mat[i, j]
        for i in range(mat.shape[0])
        for j in range(mat.shape[1])
    }


def _format_rows(values: list, k: int, sep: str, row_sep: str, brackets: str = "") -> str:
    """Rows of ``k`` values each, from the flat list ``values``, as text.

    One ``%`` call formats the whole chunk.  ``%r`` on a float is
    ``float.__repr__``, the call ``json`` makes, so finite values give the
    bytes of ``json.dumps`` or ``repr`` per value.
    """
    row = brackets[:1] + sep.join(["%r"] * k) + brackets[1:]
    return row_sep.join([row] * (len(values) // k)) % tuple(values)


def _formatters(values: int) -> int:
    """Processes that format ``values`` floats: one per available CPU, each
    with at least MIN_VALUES_PER_PROCESS values; 1 where fork is missing."""
    return max(1, min(available_cpus(), values // MIN_VALUES_PER_PROCESS))


def _write_rows(x: np.ndarray, sep: str, row_sep: str, brackets: str = "") -> None:
    """Write the rows of ``x`` to stdout as ``_format_rows`` would, in
    contiguous row chunks formatted in parallel by forked children.

    The parent formats and writes chunk 0, then writes each child's text in
    order.  A chunk whose child failed is formatted by the parent.  Every
    child is reaped on every path (:func:`forks.forked`), so no process
    outlives the call.  Each chunk is formatted from a row-major copy of
    its own rows, so no copy of all of ``x`` is made.
    """
    n, k = x.shape
    c = _formatters(x.size)
    bounds = [n * i // c for i in range(c + 1)]  # in rows
    chunks = list(zip(bounds[1:-1], bounds[2:]))

    def rows(lo, hi):
        return (row_sep if 0 < lo < hi else "") + _format_rows(
            x[lo:hi].ravel().tolist(), k, sep, row_sep, brackets)

    with forked(lambda lo=lo, hi=hi: rows(lo, hi).encode() for lo, hi in chunks) as outputs:
        write = sys.stdout.write
        write(rows(0, bounds[1]))
        for (lo, hi), parts in zip(chunks, outputs):
            if parts is None:
                write(rows(lo, hi))
            else:
                for part in parts:  # ASCII, so no read splits a character
                    write(part.decode())


def _cmd_sample(args) -> int:
    p = ConcreteParams(beta=args.beta, tau=args.tau)
    x = sample_concrete(p, RngState(args.seed), args.n)
    write = sys.stdout.write
    if args.format == "csv":
        write(",".join(f"x{i + 1}" for i in range(p.dim)) + "\n")
        _write_rows(x, ",", "\n")
        write("\n")
    else:
        write('{"samples": [')
        _write_rows(x, ", ", ", ", "[]")
        write(f"], \"seed\": {json.dumps(args.seed)}}}\n")
    return 0


def _cmd_pdf(args) -> int:
    x = SimplexPoint(args.x)
    if args.alpha is not None:
        p = InverseSchlomilchParams(alpha=args.alpha, beta=args.beta, tau=args.tau)
        value = is_log_density(p, x)
    else:
        value = concrete_log_density(ConcreteParams(beta=args.beta, tau=args.tau), x)
    _emit_json({"log_density": value})
    return 0


def _cmd_moments(args) -> int:
    if args.alpha is not None:
        p = InverseSchlomilchParams(alpha=args.alpha, beta=args.beta, tau=args.tau)
    else:
        p = ConcreteParams(beta=args.beta, tau=args.tau).to_inverse_schlomilch()
    k = p.dim
    i, j = np.indices((k, k)).reshape(2, -1)
    pairs = [f"{a + 1}_{b + 1}" for a, b in zip(i.tolist(), j.tolist())]
    means = dict(zip([f"mean_{s}" for s in pairs], lr_mean(p, i, j).tolist()))
    variances = dict(zip([f"var_{s}" for s in pairs], lr_var(p, i, j).tolist()))
    # (i, j, a, b) with i != j and a != b, in the order of the nested loops.
    off = i != j
    i, j = i[off], j[off]
    pairs = [s for s, o in zip(pairs, off.tolist()) if o]
    covs = dict(zip(
        [f"cov_{s}_{t}" for s in pairs for t in pairs],
        lr_cov(p, i[:, None], j[:, None], i, j).ravel().tolist(),
    ))
    _emit_json({"log_ratio_means": means, "log_ratio_variances": variances,
                "log_ratio_covariances": covs})
    return 0


def _cmd_fisher(args) -> int:
    p = ConcreteParams(beta=args.beta, tau=args.tau)
    if args.full:
        mat = fisher_full(p).entries
    else:
        mat = fisher_reduced(p).entries
    if args.format == "csv":
        sys.stdout.write(",".join(_matrix_dict(mat)) + "\n")
        sys.stdout.write(",".join(repr(float(v)) for v in mat.ravel()) + "\n")
    else:
        _emit_json({"dim": mat.shape[0], "entries": _matrix_dict(mat)})
    return 0


def _cmd_poincare(args) -> int:
    q = to_poincare(ConcreteParams(beta=args.beta, tau=args.tau))
    _emit_json({"eta": list(q.eta), "eta_K": q.eta_k, "ell": q.ell})
    return 0


def _cmd_distance(args) -> int:
    p = ConcreteParams(beta=args.beta_a, tau=args.tau_a)
    q = ConcreteParams(beta=args.beta_b, tau=args.tau_b)
    result = fr_distance(p, q)
    _emit_json({
        "distance": result.value,
        "ell": curvature_length(p.dim),
        "delta": list(result.delta),
    })
    return 0


def _cmd_round(args) -> int:
    probs = rounding_probabilities(args.beta)
    p = ConcreteParams(beta=args.beta, tau=args.tau)
    freq = _rounding_frequencies(p, RngState(args.seed), args.n).tolist()
    _emit_json({
        "probabilities": list(probs),
        "mc_frequencies": freq,
        "mc_samples": args.n,
        "seed": args.seed,
    })
    return 0


def _cmd_verify(args) -> int:
    checks = run_suite(args.k, args.seed, args.n)
    report = {
        "checks": [
            {
                "name": c.name,
                "target": float(c.target),
                "estimate": float(c.estimate),
                "se_or_tol": float(c.se_or_tol),
                "pass": bool(c.passed),
            }
            for c in checks
        ],
        "familywise": familywise(checks),
        "seed": args.seed,
        "version": __version__,
    }
    _emit_json(report)
    return 0 if all(c.passed for c in checks) else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="concrete-geom",
                     description="Concrete-distribution geometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp, alpha=False):
        sp.add_argument("--beta", type=_vector, required=True,
                        help="comma-separated positive weights (unnormalized)")
        sp.add_argument("--tau", type=float, required=True, help="temperature")
        if alpha:
            sp.add_argument("--alpha", type=_vector, default=None,
                            help="Dirichlet vector; omit for the Concrete case")

    sp = sub.add_parser("sample", help="draw Concrete samples")
    add_params(sp)
    sp.add_argument("-n", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("pdf", help="log density at a point")
    add_params(sp, alpha=True)
    sp.add_argument("--x", type=_vector, required=True)
    sp.set_defaults(func=_cmd_pdf)

    sp = sub.add_parser("moments", help="log-ratio means, variances, covariances")
    add_params(sp, alpha=True)
    sp.set_defaults(func=_cmd_moments)

    sp = sub.add_parser("fisher", help="Fisher information matrix")
    add_params(sp)
    sp.add_argument("--full", action="store_true",
                    help="emit the degenerate (K+1)x(K+1) matrix")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_fisher)

    sp = sub.add_parser("poincare", help="Poincare half-space coordinates")
    add_params(sp)
    sp.set_defaults(func=_cmd_poincare)

    sp = sub.add_parser("distance", help="Fisher-Rao distance between two Concretes")
    sp.add_argument("--beta-a", type=_vector, required=True)
    sp.add_argument("--tau-a", type=float, required=True)
    sp.add_argument("--beta-b", type=_vector, required=True)
    sp.add_argument("--tau-b", type=float, required=True)
    sp.set_defaults(func=_cmd_distance)

    sp = sub.add_parser("round", help="rounding probabilities with an MC check")
    sp.add_argument("--beta", type=_vector, required=True)
    sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("-n", type=int, default=MC_SAMPLES)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_round)

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-n", type=int, default=MC_SAMPLES)
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 1
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ConcreteGeomError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull, so the flush at
        # interpreter exit cannot raise again (the Python docs' recipe).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
