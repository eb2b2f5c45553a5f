"""The three benchmark workloads: grid, campaign and large.

Each workload class does its set-up in the constructor (the inputs, made
from the seed) and then offers:

  run_pass()   one closed-loop pass that calls aalpha the way a user does:
               composite harness functions, the CLI entry point.
  hooks()      the public layer functions a traced pass records, each
               wrapped in the module that calls it. A traced pass is
               run_pass() with these hooks installed, so it runs the same
               library code as an untraced pass.
  replay(out)  extra traced work after a traced pass. Only grid has any:
               sweep_grid inlines the bound kernels, so their per-point
               cost is measured by calling the public bound functions over
               the same points, which must give the same records.
  check(out)   verifies the pass's outputs outside the timed region; returns
               attempted/failed counts, the list of output errors and a
               bit-exact digest of the records.

A failed operation (a ConsistencyError, a bound violation, a nonzero CLI
exit) counts in ``failed``. An output that disagrees with its reference is
also an error and makes the run incorrect.
"""

import contextlib
import csv
import hashlib
import io
import json
from array import array

import aalpha
import aalpha.cli
import aalpha.harness
import aalpha.spectral
from aalpha import ConsistencyError, SweepRecord

from spans import Hook

SIZES = {
    "full": {
        "grid": (60, 60, 100),
        "campaign_n": range(2, 13),
        "certify": (20, 100),
        "large": {"n100": (100, 0.05), "n200": (200, 0.05),
                  "n2000": (2000, 0.01)},
        "cycle": 400,
    },
    "tiny": {
        "grid": (4, 4, 4),
        "campaign_n": range(2, 5),
        "certify": (3, 4),
        "large": {"n100": (12, 0.3), "n200": (20, 0.2), "n2000": (40, 0.1)},
        "cycle": 8,
    },
}

# Known tally of sweep_grid(60, 60, 100): total, greater, equal, less.
FULL_GRID_COUNTS = (190991, 175230, 9721, 6040)

CAMPAIGN_P = (0.2, 0.5, 0.8)
CAMPAIGN_ISOLATED = (0, 1, 2)
CAMPAIGN_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
NON_STAR_FIXTURES = 5
LARGE_ALPHA = 0.5
REF_TOL = 1e-8  # README's agreement tolerance for lambda1

_harness, _cli, _spectral = aalpha.harness, aalpha.cli, aalpha.spectral


def probe_points():
    """Endpoint probe for compare_numeric: every delta in 0..3, Delta in
    {3, 1e3, 1e6, 1e9, 1e12}, alpha in {10^-k, 1 - 10^-k : k = 1..16}, plus
    the five points known to trip the dead-zone comparison (645 points)."""
    pts = [(d, D, a) for d in range(4)
           for D in (3, 10**3, 10**6, 10**9, 10**12)
           for k in range(1, 17) for a in (10.0 ** -k, 1.0 - 10.0 ** -k)]
    pts += [(2, 3, 1e-12), (2, 3, 1.0 - 1e-12), (0, 3, 1e-10),
            (2, 10**12, 0.5), (0, 0, 1e-300)]
    return pts


def expected_grid_counts(delta_max, Delta_max, alpha_steps):
    """(total, greater, equal, less) of the grid by the README trichotomy,
    with alpha = k/alpha_steps so the endpoints are k = 0 and k = steps."""
    pairs = [(d, D) for d in range(delta_max + 1)
             for D in range(d, Delta_max + 1)]
    interior = alpha_steps - 1
    equal = len(pairs) + sum(1 for _, D in pairs if D >= 1) \
        + interior * sum(1 for d, _ in pairs if d == 1)
    less = interior * sum(1 for d, _ in pairs if d == 0) \
        + sum(1 for _, D in pairs if D == 0)
    greater = interior * sum(1 for d, _ in pairs if d >= 2)
    return len(pairs) * (alpha_steps + 1), greater, equal, less


def digest(records):
    """Bit-exact fingerprint of a list of equal-shaped tuples: float columns
    hash by their IEEE bytes, everything else by repr."""
    h = hashlib.sha256()
    if records:
        for col in zip(*records):
            if all(type(v) is float for v in col):
                h.update(array("d", col).tobytes())
            else:
                h.update(repr([getattr(v, "value", v) for v in col]).encode())
    h.update(str(len(records)).encode())
    return h.hexdigest()


# Counts recorded on hooked calls.

def _solved(args, res):
    return {"iterations": res.iterations, "converged": 1,
            "max_residual": res.residual}


def _unsolved(exc):
    return {"iterations": getattr(exc, "iterations", 0), "converged": 0,
            "max_residual": getattr(exc, "residual", 0.0)}


def _matrix_bytes(args, am):
    return {"bytes": 8 * am.n * am.n}  # computed, not measured


def _text_bytes(args, text):
    return {"bytes": len(text)}


def _report_hooks():
    return [Hook(aalpha, "emit_report", "harness.emit_report"),
            Hook(aalpha, "parse_report", "harness.parse_report"),
            Hook(_harness, "render_report", "harness.render_report",
                 _text_bytes)]


def _verify_hooks(module, solve_name):
    """verify_graph as called from module, and the layer calls inside it:
    graph predicates, alpha-matrix assembly and the eigensolvers."""
    hooks = [Hook(module, "verify_graph", "harness.verify_graph")]
    for mod in {module, _harness}:
        hooks += [Hook(mod, "build_alpha_matrix", "alpha_matrix.build",
                       _matrix_bytes),
                  Hook(mod, "spectral_radius", solve_name, _solved,
                       _unsolved)]
    hooks += [Hook(_harness, name, "graphs." + name)
              for name in ("degree_profile", "is_star", "is_connected")]
    hooks += [Hook(_spectral, "spectral_radius_" + m, "spectral." + m,
                   _solved, _unsolved) for m in ("jacobi", "power")]
    return hooks


class _Workload:
    items = 0  # units of work per pass

    def __init__(self, size, tracer):
        self.size = SIZES[size]
        self.tracer = tracer

    def _span(self, name, **attrs):
        """A span of the benchmark's own loop, recorded in traced passes."""
        if self.tracer is None:
            return contextlib.nullcontext(attrs)
        return self.tracer.maybe_span(name, **attrs)

    def replay(self, out):
        pass


class Grid(_Workload):
    """Trichotomy sweep, its CSV report round-trip and the endpoint probe.
    The grid is fixed, so the seed is unused."""

    def __init__(self, seed, size, workdir, tracer=None):
        super().__init__(size, tracer)
        self.dims = dmax, Dmax, steps = self.size["grid"]
        self.probe = probe_points()
        self.report = f"{workdir}/sweep.csv"
        self.items = expected_grid_counts(*self.dims)[0] + len(self.probe)
        if tracer is not None:  # the replay's inputs: sweep_grid's point order
            alphas = [k / steps for k in range(steps + 1)]
            self.points = [(d, D, a) for d in range(dmax + 1)
                           for D in range(d, Dmax + 1) for a in alphas]

    def hooks(self):
        return [Hook(aalpha, "sweep_grid", "harness.sweep_grid"),
                Hook(aalpha, "summarize_sweep", "harness.summarize_sweep"),
                *_report_hooks()]

    def run_pass(self):
        records = aalpha.sweep_grid(*self.dims)
        summary = aalpha.summarize_sweep(records)
        aalpha.emit_report(records, "csv", self.report, kind="sweep")
        back = aalpha.parse_report(self.report)
        with self._span("bounds.probe", points=len(self.probe)) as s:
            bad = s["inconsistent"] = self._probe()
        return {"records": records, "summary": summary, "back": back,
                "probe_inconsistent": bad}

    def _probe(self):
        """compare_numeric at every probe point; returns how many raised."""
        bad = 0
        for p in self.probe:
            try:
                aalpha.compare_numeric(*p)
            except ConsistencyError:
                bad += 1
        return bad

    def replay(self, out):
        """bound_f/bound_g, classify and numeric_ordering over the sweep's
        points, one span per kernel batch (a span per call would cost more
        than the kernel); the records must equal sweep_grid's."""
        pts = self.points
        n = len(pts)
        with self.tracer.span("bounds.f_g", points=n):
            fs = [aalpha.bound_f(d, D, a) for d, D, a in pts]
            gs = [aalpha.bound_g(D, a) for _, D, a in pts]
        with self.tracer.span("bounds.classify", points=n):
            cls = [aalpha.classify(d, D, a) for d, D, a in pts]
        with self.tracer.span("bounds.numeric_ordering", points=n):
            nums = [aalpha.numeric_ordering(f, g) for f, g in zip(fs, gs)]
        out["replayed"] = [
            SweepRecord(d, D, a, f, g, f - g, s, num, w, s is num)
            for (d, D, a), f, g, (s, w), num in zip(pts, fs, gs, cls, nums)]

    def check(self, out):
        records = out["records"]
        errors = []
        expected = (FULL_GRID_COUNTS if self.dims == SIZES["full"]["grid"]
                    else expected_grid_counts(*self.dims))
        inconsistent = sum(1 for r in records if not r.consistent)
        summary = out["summary"]
        if tuple(summary) != expected + (inconsistent,):
            errors.append(f"sweep summary {tuple(summary)} != {expected}")
        if out["back"] != records:
            errors.append("CSV sweep report does not round-trip")
        fp = digest(records)
        if "replayed" in out and digest(out["replayed"]) != fp:
            errors.append("replayed sweep records differ from sweep_grid")
        failed = inconsistent + out["probe_inconsistent"] + len(errors)
        fp += f"|{tuple(summary)}|{out['probe_inconsistent']}"
        return {"attempted": self.items + 2, "failed": failed,
                "errors": errors, "digest": fp}


class Campaign(_Workload):
    """random_campaign with the seed shifting its three seeds, the star
    certification, and a JSON report round-trip of the records."""

    def __init__(self, seed, size, workdir, tracer=None):
        super().__init__(size, tracer)
        self.n_values = self.size["campaign_n"]
        self.seeds = range(seed, seed + 3)
        self.certify = self.size["certify"]
        self.report = f"{workdir}/verification.json"
        self.n_records = (len(self.n_values) * len(CAMPAIGN_P) * len(self.seeds)
                          * len(CAMPAIGN_ISOLATED) * len(CAMPAIGN_ALPHAS))
        Dmax, steps = self.certify
        self.n_equality = Dmax * (steps + 1)
        self.n_strict = NON_STAR_FIXTURES * len(aalpha.STRICTNESS_ALPHAS)
        self.items = self.n_records + self.n_equality + self.n_strict

    def hooks(self):
        return [Hook(aalpha, "random_campaign", "harness.random_campaign"),
                Hook(aalpha, "certify_star_equality",
                     "harness.certify_star_equality"),
                Hook(_harness, "gen_random", "graphs.gen_random",
                     lambda a, g: {"pairs": g.n * (g.n - 1) // 2}),
                Hook(_harness, "add_isolated", "graphs.add_isolated"),
                Hook(_harness, "gen_star", "graphs.gen_star"),
                *_verify_hooks(_harness, "spectral.solve"),
                *_report_hooks()]

    def run_pass(self):
        records = aalpha.random_campaign(self.n_values, CAMPAIGN_P, self.seeds,
                                         CAMPAIGN_ISOLATED, CAMPAIGN_ALPHAS)
        cert = aalpha.certify_star_equality(*self.certify)
        aalpha.emit_report(records, "json", self.report, kind="verification")
        back = aalpha.parse_report(self.report)
        return {"records": records, "cert": cert, "back": back}

    def check(self, out):
        records, cert = out["records"], out["cert"]
        errors = []
        if len(records) != self.n_records:
            errors.append(f"campaign gave {len(records)} records, "
                          f"expected {self.n_records}")
        if (cert.equality_checks, cert.strictness_checks) != \
                (self.n_equality, self.n_strict):
            errors.append(f"certification ran {cert.equality_checks} + "
                          f"{cert.strictness_checks} checks, expected "
                          f"{self.n_equality} + {self.n_strict}")
        if out["back"] != records:
            errors.append("JSON verification report does not round-trip")
        failed = (len(aalpha.verification_violations(records))
                  + len(cert.failures) + len(errors))
        fp = digest(records) + "|" + repr(tuple(cert))
        return {"attempted": self.items + 2, "failed": failed,
                "errors": errors, "digest": fp}


class Large(_Workload):
    """Big graphs through aalpha.cli.main: verify on G(100, .05) and
    G(200, .05) from edge-list files, spectral on G(2000, .01) and on the
    generated cycle. Set-up draws the graphs and writes the files."""

    def __init__(self, seed, size, workdir, tracer=None):
        super().__init__(size, tracer)
        self.label = None  # the command running, for spectral.solve.<label>
        setup_hooks = [Hook(aalpha, "gen_random", "graphs.gen_random",
                            lambda a, g: {"pairs": g.n * (g.n - 1) // 2})]
        with (tracer.installed(setup_hooks) if tracer
              else contextlib.nullcontext()):
            paths = self._write_graphs(seed, workdir)
        n = self.size["cycle"]
        self.commands = [
            ("n100", ["verify", "--edgelist", paths["n100"], "--alphas",
                      str(LARGE_ALPHA), "--out", f"{workdir}/n100.csv"]),
            ("n200", ["verify", "--edgelist", paths["n200"], "--alphas",
                      str(LARGE_ALPHA), "--out", f"{workdir}/n200.csv"]),
            ("n2000", ["spectral", "--edgelist", paths["n2000"],
                       "--alpha", str(LARGE_ALPHA)]),
            ("cycle400", ["spectral", "--gen", f"cycle:{n}", "--alpha",
                          str(LARGE_ALPHA)]),
        ]
        self.items = len(self.commands)
        self.refs = None

    def _write_graphs(self, seed, workdir):
        paths = {}
        for label, (n, p) in self.size["large"].items():
            g = aalpha.gen_random(n, p, seed)
            path = f"{workdir}/{label}.edges"
            with open(path, "w", encoding="ascii") as fh:
                fh.write(f"{g.n} {g.edge_count}\n")
                fh.writelines(f"{u} {v}\n" for u, v in g.edges)
            paths[label] = path
        n = self.size["cycle"]
        cycle_path = f"{workdir}/cycle400.edges"  # for the reference only
        with open(cycle_path, "w", encoding="ascii") as fh:
            fh.write(f"{n} {n}\n")
            fh.writelines(f"{i} {(i + 1) % n}\n" for i in range(n))
        with open(f"{workdir}/refs_input.json", "w", encoding="ascii") as fh:
            json.dump({"alpha": LARGE_ALPHA,
                       "graphs": {**paths, "cycle400": cycle_path}}, fh)
        return paths

    def load_refs(self, path):
        with open(path, encoding="ascii") as fh:
            self.refs = json.load(fh)

    def hooks(self):
        return [Hook(_cli, "parse_edge_list", "graphs.parse_edge_list",
                     lambda a, g: {"edges": g.edge_count}),
                Hook(_cli, "gen_cycle", "graphs.gen_cycle"),
                Hook(_cli, "emit_report", "harness.emit_report"),
                Hook(_harness, "render_report", "harness.render_report",
                     _text_bytes),
                *_verify_hooks(_cli, lambda: "spectral.solve." + self.label)]

    def run_pass(self):
        outs = []
        for label, argv in self.commands:
            self.label = label
            buf = io.StringIO()
            with self._span("cli." + argv[0]) as s, \
                    contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = aalpha.cli.main(argv)
                s["nonzero_exits"] = int(rc != 0)
            outs.append((label, argv[0], rc, buf.getvalue()))
        return {"cli": outs}

    def _lambda1(self, cmd, argv, text):
        """lambda1 from the verify report or the spectral output, plus the
        report text."""
        if cmd == "verify":
            with open(argv[-1], encoding="ascii") as fh:
                report = fh.read()
            row = next(csv.DictReader(io.StringIO(report)))
            return float(row["lambda1"]), report
        for line in text.splitlines():
            if line.startswith("lambda1 = "):
                return float(line.split(" = ", 1)[1]), ""
        return None, ""

    def check(self, out):
        errors = []
        failed = 0
        rows = []
        argvs = dict(self.commands)
        for label, cmd, rc, text in out["cli"]:
            if rc != 0:  # a known defect or a regression: a failed operation
                failed += 1
                rows.append((label, rc, "", ""))
                continue
            lam, report = self._lambda1(cmd, argvs[label], text)
            ref = self.refs[label]
            if lam is None or not abs(lam - ref) <= REF_TOL * max(1.0, abs(ref)):
                errors.append(f"{label}: lambda1 {lam!r} vs eigvalsh {ref!r}")
            rows.append((label, rc, repr(lam), text + report))
        return {"attempted": self.items, "failed": failed + len(errors),
                "errors": errors, "digest": digest(rows)}


WORKLOADS = {"grid": Grid, "campaign": Campaign, "large": Large}
