"""Per-layer metrics computed from span totals, and the map from each one
to the end-to-end metric and workloads it should move.

Names and units are defined once, in BENCHMARK.json; this module computes
the values and states the expected effect of each layer.
"""

SOLVE_LABELS = ("n100", "n200", "n2000", "cycle400")

# per-layer metric -> [(end-to-end metric, workloads it should move there)]
MOVES = {
    "bounds.f_g.ns_per_point": [("items_per_s", ["grid"])],
    "bounds.classify.ns_per_point": [("items_per_s", ["grid"])],
    "bounds.probe.inconsistent": [("ok_frac", ["grid"])],
    "harness.sweep_grid.s": [("wall_s", ["grid"]), ("peak_rss_mb", ["grid"])],
    "harness.summarize_sweep.s": [("wall_s", ["grid"])],
    "harness.render_report.s": [("wall_s", ["grid", "campaign"]),
                                ("peak_rss_mb", ["grid"])],
    "harness.render_report.bytes": [("wall_s", ["grid", "campaign"]),
                                    ("peak_rss_mb", ["grid"])],
    "harness.parse_report.s": [("wall_s", ["grid", "campaign"]),
                               ("peak_rss_mb", ["grid"])],
    "harness.verify_graph.s": [("wall_s", ["campaign"])],
    "harness.verify_graph.calls": [("wall_s", ["campaign"])],
    "harness.certify_star_equality.s": [("wall_s", ["campaign"])],
    "graphs.gen_random.s": [("wall_s", ["campaign"]), ("setup_s", ["large"])],
    "graphs.gen_random.pairs": [("wall_s", ["campaign"]),
                                ("setup_s", ["large"])],
    "graphs.predicates.s": [("wall_s", ["campaign"])],
    "graphs.parse_edge_list.s": [("wall_s", ["large"])],
    "graphs.parse_edge_list.edges": [("wall_s", ["large"])],
    "alpha_matrix.build.s": [("wall_s", ["campaign", "large"])],
    "alpha_matrix.build.calls": [("wall_s", ["campaign", "large"])],
    "alpha_matrix.build.bytes": [("wall_s", ["campaign", "large"]),
                                 ("peak_rss_mb", ["large"])],
    "spectral.jacobi.s": [("wall_s", ["campaign", "large"])],
    "spectral.jacobi.calls": [("wall_s", ["campaign", "large"])],
    "spectral.jacobi.sweeps": [("wall_s", ["campaign", "large"])],
    "spectral.power.s": [("wall_s", ["campaign", "large"])],
    "spectral.power.calls": [("wall_s", ["campaign", "large"])],
    "spectral.power.iterations": [("wall_s", ["campaign", "large"])],
    **{f"spectral.solve.{label}.s": [("wall_s", ["large"])]
       for label in SOLVE_LABELS},
    "spectral.converged_frac": [("ok_frac", ["large"])],
    "spectral.max_residual": [("ok_frac", ["large"])],
    "cli.verify.s": [("wall_s", ["large"]), ("ok_frac", ["large"])],
    "cli.spectral.s": [("wall_s", ["large"]), ("ok_frac", ["large"])],
    "cli.nonzero_exits": [("wall_s", ["large"]), ("ok_frac", ["large"])],
    "trace.overhead_s": [],  # the cost of tracing itself
}


def layer_values(t):
    """Per-layer metric values from Tracer.totals() of one traced pass
    (plus set-up). A layer the workload never calls reads 0; a ratio over
    no attempts reads 1 (nothing failed)."""

    def get(name, key="s"):
        return t.get(name, {}).get(key, 0)

    def per_point(name):
        n = get(name, "points")
        return get(name) / n * 1e9 if n else 0.0

    # Every spectral_radius call, whichever solver it dispatched to.
    solves = [v for k, v in t.items() if k.startswith("spectral.solve")]
    calls = sum(v["calls"] for v in solves)
    out = {
        "bounds.f_g.ns_per_point": per_point("bounds.f_g"),
        "bounds.classify.ns_per_point": per_point("bounds.classify"),
        "bounds.probe.inconsistent": get("bounds.probe", "inconsistent"),
        "harness.render_report.bytes": get("harness.render_report", "bytes"),
        "harness.verify_graph.calls": get("harness.verify_graph", "calls"),
        "graphs.gen_random.pairs": get("graphs.gen_random", "pairs"),
        "graphs.predicates.s": sum(get("graphs." + p) for p in (
            "degree_profile", "is_star", "is_connected")),
        "graphs.parse_edge_list.edges": get("graphs.parse_edge_list", "edges"),
        "alpha_matrix.build.calls": get("alpha_matrix.build", "calls"),
        "alpha_matrix.build.bytes": get("alpha_matrix.build", "bytes"),
        "spectral.jacobi.calls": get("spectral.jacobi", "calls"),
        "spectral.jacobi.sweeps": get("spectral.jacobi", "iterations"),
        "spectral.power.calls": get("spectral.power", "calls"),
        "spectral.power.iterations": get("spectral.power", "iterations"),
        "spectral.converged_frac": (sum(v.get("converged", 0) for v in solves)
                                    / calls if calls else 1.0),
        "spectral.max_residual": max(
            (v.get("max_residual", 0.0) for v in solves), default=0.0),
        "cli.nonzero_exits": get("cli.verify", "nonzero_exits")
        + get("cli.spectral", "nonzero_exits"),
    }
    for name in ("harness.sweep_grid", "harness.summarize_sweep",
                 "harness.render_report", "harness.parse_report",
                 "harness.verify_graph", "harness.certify_star_equality",
                 "graphs.gen_random", "graphs.parse_edge_list",
                 "alpha_matrix.build", "spectral.jacobi", "spectral.power",
                 "cli.verify", "cli.spectral",
                 *(f"spectral.solve.{label}" for label in SOLVE_LABELS)):
        out[name + ".s"] = get(name)
    return out
