"""Command-line front end.

Subcommands: eval, classify, sweep, verify, certify-stars, spectral.
Exit codes: 0 success, 1 consistency/bound violation or solver failure,
2 bad input or I/O. Setting AALPHA_PERMISSIVE=1 admits alpha > 1 where the
formulas remain defined (eval, spectral); classification always refuses it.
"""

import argparse
import json
import os
import sys

from .alpha_matrix import build_alpha_matrix
from .bounds import bound_f, bound_g, classify, compare_numeric
from .errors import ConsistencyError, ConvergenceError, InputError
from .graphs import (Graph, add_isolated, emit_graph6, gen_complete,
                     gen_cycle, gen_random, gen_star, parse_edge_list,
                     parse_graph6)
from .harness import (certify_star_equality, emit_report, summarize_sweep,
                      sweep_grid, verification_violations, verify_graph)
from .spectral import spectral_radius


def _permissive() -> bool:
    return os.environ.get("AALPHA_PERMISSIVE") == "1"


def _fmt(v: float) -> str:
    return "%.17g" % v


def _parse_gen(spec: str) -> tuple[str, Graph]:
    """Build a graph from a generator spec like star:5 or random:8,0.5,3."""
    name, sep, args = spec.partition(":")
    if not sep:
        raise InputError(f"generator spec needs a colon, got {spec!r}")
    try:
        if name == "star":
            return spec, gen_star(int(args))
        if name == "complete":
            return spec, gen_complete(int(args))
        if name == "cycle":
            return spec, gen_cycle(int(args))
        if name == "random":
            parts = args.split(",")
            if len(parts) != 3:
                raise InputError(
                    f"random generator needs N,P,SEED, got {args!r}")
            return spec, gen_random(int(parts[0]), float(parts[1]),
                                    int(parts[2]))
    except ValueError:
        raise InputError(f"malformed generator arguments in {spec!r}")
    raise InputError(
        f"unknown generator {name!r}; expected star, complete, cycle, random")


def _load_graph(args) -> tuple[str, Graph]:
    """Graph plus its identifier from --graph6/--edgelist/--gen flags."""
    if args.graph6 is not None:
        with open(args.graph6, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines:
            raise InputError(f"no graph6 line found in {args.graph6}")
        g = parse_graph6(lines[0])
        gid = "graph6:" + emit_graph6(g)  # canonical: prefix-independent
    elif args.edgelist is not None:
        with open(args.edgelist, "r", encoding="ascii") as fh:
            g = parse_edge_list(fh.read())
        gid = f"edgelist:{args.edgelist}"
    else:
        gid, g = _parse_gen(args.gen)
    k = getattr(args, "add_isolated", 0) or 0
    if k:
        if k < 0:
            raise InputError(f"--add-isolated must be nonnegative, got {k}")
        g = add_isolated(g, k)
        gid += f"+iso{k}"
    return gid, g


def _add_graph_source(p: argparse.ArgumentParser, with_isolated: bool) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", metavar="FILE",
                     help="file whose first line is a graph6 string")
    src.add_argument("--edgelist", metavar="FILE",
                     help="file in 'n m' + edge-lines format")
    src.add_argument("--gen", metavar="SPEC",
                     help="star:N | complete:N | cycle:N | random:N,P,SEED")
    if with_isolated:
        p.add_argument("--add-isolated", type=int, default=0, metavar="K",
                       help="append K isolated vertices to the graph")


def _alpha_list(text: str) -> list[float]:
    try:
        values = [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise InputError(f"--alphas must be comma-separated reals, got {text!r}")
    if not values:
        raise InputError("--alphas is empty")
    return values


def _cmd_eval(args) -> int:
    permissive = _permissive()
    if permissive and args.alpha > 1.0:
        # Outside the proven trichotomy: report values, refuse to classify.
        f = bound_f(args.delta, args.Delta, args.alpha, permissive=True)
        g = bound_g(args.Delta, args.alpha, permissive=True)
        ordering = witness = "unclassified"
    else:
        comp = compare_numeric(args.delta, args.Delta, args.alpha)
        f, g = comp.f_value, comp.g_value
        ordering, witness = comp.ordering.value, comp.witness.value
    fields = [("delta", args.delta), ("Delta", args.Delta),
              ("alpha", args.alpha), ("f", f), ("g", g), ("diff", f - g),
              ("ordering", ordering), ("witness", witness)]
    if args.json:
        print(json.dumps(dict(fields)))
    else:
        for key, val in fields:
            print(f"{key} = {_fmt(val) if isinstance(val, float) else val}")
    return 0


def _cmd_classify(args) -> int:
    ordering, witness = classify(args.delta, args.Delta, args.alpha)
    print(f"ordering = {ordering.value}")
    print(f"witness = {witness.value}")
    return 0


def _cmd_sweep(args) -> int:
    records = sweep_grid(args.delta_max, args.Delta_max, args.alpha_steps)
    emit_report(records, args.format, args.out, kind="sweep")
    s = summarize_sweep(records)
    print(f"points = {s.total}")
    print(f"greater = {s.greater}")
    print(f"equal = {s.equal}")
    print(f"less = {s.less}")
    print(f"inconsistent = {s.inconsistent}")
    print(f"report = {args.out}")
    return 0 if s.inconsistent == 0 else 1


def _cmd_verify(args) -> int:
    gid, g = _load_graph(args)
    records = verify_graph(g, _alpha_list(args.alphas), args.method, gid)
    emit_report(records, args.format, args.out, kind="verification")
    bad = verification_violations(records)
    print(f"graph = {gid}")
    print(f"records = {len(records)}")
    print(f"violations = {len(bad)}")
    print(f"report = {args.out}")
    for r in bad:
        print(f"VIOLATION alpha={_fmt(r.alpha)} lambda1={_fmt(r.lambda1)} "
              f"f={_fmt(r.f_value)} g={_fmt(r.g_value)}")
    return 0 if not bad else 1


def _cmd_certify_stars(args) -> int:
    cert = certify_star_equality(args.Delta_max, args.alpha_steps)
    print(f"equality checks = {cert.equality_checks}")
    print(f"max equality gap = {_fmt(cert.max_equality_gap)}")
    print(f"strictness checks = {cert.strictness_checks}")
    print(f"min strictness margin = {_fmt(cert.min_strictness_margin)}")
    print(f"failures = {len(cert.failures)}")
    for line in cert.failures:
        print(f"FAILED {line}")
    return 0 if cert.passed else 1


def _cmd_spectral(args) -> int:
    gid, g = _load_graph(args)
    am = build_alpha_matrix(g, args.alpha, permissive=_permissive())
    res = spectral_radius(am, args.method)
    print(f"graph = {gid}")
    print(f"lambda1 = {_fmt(res.lambda1)}")
    print(f"residual = {_fmt(res.residual)}")
    print(f"iterations = {res.iterations}")
    print(f"method = {res.method}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="aalpha",
        description="Spectral-radius lower bounds for the alpha matrix "
                    "family of a simple graph, with verification campaigns.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate f, g and their ordering")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--Delta", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("classify", help="symbolic trichotomy only")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--Delta", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("sweep", help="exhaustive grid consistency sweep")
    p.add_argument("--delta-max", type=int, required=True)
    p.add_argument("--Delta-max", type=int, required=True)
    p.add_argument("--alpha-steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify", help="bound checks on one graph")
    _add_graph_source(p, with_isolated=True)
    p.add_argument("--alphas", required=True,
                   help="comma-separated alpha values in [0, 1]")
    p.add_argument("--method", choices=("dense", "jacobi", "power"))
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("certify-stars",
                       help="star equality and non-star strictness")
    p.add_argument("--Delta-max", type=int, required=True)
    p.add_argument("--alpha-steps", type=int, required=True)
    p.set_defaults(fn=_cmd_certify_stars)

    p = sub.add_parser("spectral", help="spectral radius of one alpha matrix")
    _add_graph_source(p, with_isolated=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=("dense", "jacobi", "power"))
    p.set_defaults(fn=_cmd_spectral)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency violation: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"solver failure: {exc} (estimate {exc.estimate!r}, residual "
              f"{exc.residual!r}, iterations {exc.iterations})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
