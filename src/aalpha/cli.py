"""Command-line front end.

Subcommands: eval, classify, sweep, verify, certify-stars, spectral.
Exit codes: 0 success, 1 consistency/bound violation or solver failure,
2 bad input or I/O. Every alpha must lie in [0, 1]; any other is refused
with exit 2.

Each choice a user can type is one table, kept with what it names:
_GENERATORS below for --gen, spectral.METHODS for --method and
reports.REPORT_FORMATS for --format. A generator spec with the wrong
number of arguments gets its generator's arity message. Every command
prints its result through _show.
"""

import argparse
import functools
import json
import sys

from .alpha_matrix import build_alpha_matrix
from .bounds import classify, compare_numeric
from .errors import ConsistencyError, ConvergenceError, InputError
from .graphs import (Graph, add_isolated, gen_complete, gen_cycle,
                     gen_random, gen_star, parse_edge_list, parse_graph6)
from .harness import (certify_star_equality, default_graph_id,
                      summarize_sweep, sweep_grid, verification_violations,
                      verify_graph)
from .reports import REPORT_FORMATS, emit_report
from .spectral import METHODS, spectral_radius

# A --gen name: its argument names, their types, and a call of its
# generator, which reads the generator off this module at call time.
_GENERATORS = {
    "star": ("N", (int,), lambda *a: gen_star(*a)),
    "complete": ("N", (int,), lambda *a: gen_complete(*a)),
    "cycle": ("N", (int,), lambda *a: gen_cycle(*a)),
    "random": ("N,P,SEED", (int, float, int), lambda *a: gen_random(*a)),
}


def _show(fields, lines=()) -> None:
    """Print each (key, value) field as 'key = value', reals at %.17g, then
    each of lines. A character stdout cannot encode is written escaped, as
    sys.stderr writes it."""
    text = "".join([f"{key} = {val:.17g}\n" if isinstance(val, float)
                    else f"{key} = {val}\n" for key, val in fields]
                   + [f"{line}\n" for line in lines])
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError:  # raised before any of text is written
        enc = sys.stdout.encoding
        sys.stdout.write(text.encode(enc, "backslashreplace").decode(enc))


def _parse_gen(spec: str) -> tuple[str, Graph]:
    """Build a graph from a generator spec like star:5 or random:8,0.5,3."""
    name, sep, args = spec.partition(":")
    if not sep:
        raise InputError(f"generator spec needs a colon, got {spec!r}")
    if name not in _GENERATORS:
        raise InputError(
            f"unknown generator {name!r}; expected {', '.join(_GENERATORS)}")
    names, types, gen = _GENERATORS[name]
    parts = args.split(",")
    if len(parts) != len(types):
        raise InputError(f"{name} generator needs {names}, got {args!r}")
    try:
        return spec, gen(*(t(a) for t, a in zip(types, parts)))
    except InputError:  # the generator's own error names the argument
        raise
    except ValueError:
        raise InputError(f"malformed generator arguments in {spec!r}")


def _load_graph(args) -> tuple[str, Graph]:
    """Graph plus its identifier from --graph6/--edgelist/--gen flags."""
    path = args.edgelist if args.graph6 is None else args.graph6
    if path is not None:
        with open(path, encoding="ascii", errors="replace") as fh:
            text = fh.read()
        if "\ufffd" in text:  # the mark of a byte that is not ASCII
            raise InputError(f"{path} is not ASCII text")
    if args.graph6 is not None:
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InputError(f"no graph6 line found in {args.graph6}")
        g = parse_graph6(lines[0])
        gid = default_graph_id(g)  # canonical: prefix-independent
    elif args.edgelist is not None:
        g = parse_edge_list(text)
        gid = f"edgelist:{args.edgelist}"
    else:
        gid, g = _parse_gen(args.gen)
    if args.add_isolated:
        g = add_isolated(g, args.add_isolated)
        gid += f"+iso{args.add_isolated}"
    return gid, g


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", metavar="FILE",
                     help="file whose first line is a graph6 string")
    src.add_argument("--edgelist", metavar="FILE",
                     help="file in 'n m' + edge-lines format")
    src.add_argument("--gen", metavar="SPEC", help=" | ".join(
        f"{name}:{names}" for name, (names, *_) in _GENERATORS.items()))
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
    comp = compare_numeric(args.delta, args.Delta, args.alpha)
    fields = [("delta", args.delta), ("Delta", args.Delta),
              ("alpha", args.alpha), ("f", comp.f_value), ("g", comp.g_value),
              ("diff", comp.difference), ("ordering", comp.ordering.value),
              ("witness", comp.witness.value)]
    if args.json:
        _show((), [json.dumps(dict(fields))])
    else:
        _show(fields)
    return 0


def _cmd_classify(args) -> int:
    ordering, witness = classify(args.delta, args.Delta, args.alpha)
    _show([("ordering", ordering.value), ("witness", witness.value)])
    return 0


def _cmd_sweep(args) -> int:
    records = sweep_grid(args.delta_max, args.Delta_max, args.alpha_steps)
    emit_report(records, args.format, args.out, kind="sweep")
    s = summarize_sweep(records)
    _show([("points", s.total), ("greater", s.greater), ("equal", s.equal),
           ("less", s.less), ("inconsistent", s.inconsistent),
           ("report", args.out)])
    return 0 if s.inconsistent == 0 else 1


def _cmd_verify(args) -> int:
    gid, g = _load_graph(args)
    records = verify_graph(g, _alpha_list(args.alphas), args.method, gid)
    emit_report(records, args.format, args.out, kind="verification")
    bad = verification_violations(records)
    _show([("graph", gid), ("records", len(records)),
           ("violations", len(bad)), ("report", args.out)],
          [f"VIOLATION alpha={r.alpha:.17g} lambda1={r.lambda1:.17g} "
           f"f={r.f_value:.17g} g={r.g_value:.17g}" for r in bad])
    return 0 if not bad else 1


def _cmd_certify_stars(args) -> int:
    cert = certify_star_equality(args.Delta_max, args.alpha_steps)
    _show([("equality checks", cert.equality_checks),
           ("max equality gap", cert.max_equality_gap),
           ("strictness checks", cert.strictness_checks),
           ("min strictness margin", cert.min_strictness_margin),
           ("failures", len(cert.failures))],
          [f"FAILED {line}" for line in cert.failures])
    return 0 if cert.passed else 1


def _cmd_spectral(args) -> int:
    gid, g = _load_graph(args)
    res = spectral_radius(build_alpha_matrix(g, args.alpha), args.method)
    _show([("graph", gid), ("lambda1", res.lambda1),
           ("residual", res.residual), ("iterations", res.iterations),
           ("method", res.method)])
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
    p.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify", help="bound checks on one graph")
    _add_graph_source(p)
    p.add_argument("--alphas", required=True,
                   help="comma-separated alpha values in [0, 1]")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("certify-stars",
                       help="star equality and non-star strictness")
    p.add_argument("--Delta-max", type=int, required=True)
    p.add_argument("--alpha-steps", type=int, required=True)
    p.set_defaults(fn=_cmd_certify_stars)

    p = sub.add_parser("spectral", help="spectral radius of one alpha matrix")
    _add_graph_source(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=METHODS)
    p.set_defaults(fn=_cmd_spectral)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError) as exc:
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
