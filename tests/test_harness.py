"""Sweep, graph verification, star certification, and report round-trips."""

import csv
import hashlib
import importlib
import io
import json
import math
import tracemalloc
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import aalpha.alpha_matrix as alpha_matrix_mod
import aalpha.harness as harness_mod
import aalpha.reports as reports_mod
from aalpha import (ConvergenceError, DISPATCH_DENSE_LIMIT, EQUALITY_TOL,
                    Graph, InputError, Ordering, STRICTNESS_ALPHAS,
                    ReportTable, SweepRecord, SWEEP_COLUMNS,
                    VERIFICATION_COLUMNS, VerificationRecord, Witness,
                    add_isolated, bound_f, bound_g, build_alpha_matrix,
                    certify_star_equality, classify, emit_report,
                    gen_complete, gen_cycle, gen_random, gen_star,
                    numeric_ordering, parse_report, random_campaign,
                    render_report, spectral_radii_dense, spectral_radius,
                    spectral_radius_dense, spectral_radius_jacobi,
                    summarize_sweep, sweep_grid,
                    verification_violations, verify_graph)


def test_sweep_grid_counts_and_order():
    records = sweep_grid(3, 5, 4)
    # pairs with delta <= 3: sum over delta of (5 - delta + 1)
    pairs = sum(5 - d + 1 for d in range(4))
    assert len(records) == pairs * 5
    keys = [(r.delta, r.Delta, r.alpha) for r in records]
    assert keys == sorted(keys)
    assert all(r.alpha in (0.0, 0.25, 0.5, 0.75, 1.0) for r in records)
    assert all(r.consistent for r in records)


def test_sweep_grid_one_one_ten():
    """delta_max = Delta_max = 1, 11 alphas: 33 points. Hand count from the
    classifier: (0,0) is Equal only at alpha=0 (1 point), (0,1) is Equal at
    the endpoints (2), (1,1) is Equal everywhere (11); the other 19 are Less."""
    s = summarize_sweep(sweep_grid(1, 1, 10))
    assert s.total == 33
    assert s.greater == 0
    assert s.equal == 14
    assert s.less == 19
    assert s.inconsistent == 0


def test_sweep_grid_edgeless_row():
    records = sweep_grid(0, 0, 4)
    assert len(records) == 5
    for r in records:
        want = Ordering.EQUAL if r.alpha == 0 else Ordering.LESS
        assert r.symbolic_ordering is want
        assert r.numeric_ordering is want


def test_sweep_grid_matches_scalar_api():
    """Every column of the array sweep equals the scalar API bit for bit at
    every point, with full-mantissa alphas (k/13)."""
    table = sweep_grid(4, 9, 13)
    assert isinstance(table, ReportTable)
    assert len(table) == sum(9 - d + 1 for d in range(5)) * 14
    for r in table:
        assert type(r.delta) is int and type(r.alpha) is float
        assert type(r.consistent) is bool
        f = bound_f(r.delta, r.Delta, r.alpha)
        g = bound_g(r.Delta, r.alpha)
        assert (r.f_value, r.g_value, r.difference) == (f, g, f - g)
        assert (r.symbolic_ordering, r.witness) == \
            classify(r.delta, r.Delta, r.alpha)
        assert r.numeric_ordering is numeric_ordering(f, g)
        assert r.consistent is (r.symbolic_ordering is r.numeric_ordering)


def test_sweep_table_reads_as_records():
    table = sweep_grid(2, 3, 4)
    records = list(table)
    assert table == records and records == table and table == tuple(records)
    assert table == ReportTable.from_records(records, "sweep")
    assert table != records[:-1] and table != sweep_grid(2, 3, 5)
    assert table[0] == records[0] and table[-1] == records[-1]
    assert table[3:7] == records[3:7] and isinstance(table[3:7], ReportTable)
    with pytest.raises(IndexError):
        table[len(records)]
    assert table[:0] == [] and [] == table[:0]
    assert summarize_sweep(records) == summarize_sweep(table)
    with pytest.raises(InputError):
        ReportTable.from_records(verify_graph(gen_star(3), [0.5]), "sweep")
    with pytest.raises(InputError):
        ReportTable.from_records(table, "verification")
    assert table[:0] != verify_graph(gen_star(3), [0.5])[:0]
    with pytest.raises(InputError, match="of equal length"):
        ReportTable({**table.columns, "delta": table.columns["delta"][1:]})


def test_sweep_grid_validation():
    with pytest.raises(InputError):
        sweep_grid(3, 2, 10)
    with pytest.raises(InputError):
        sweep_grid(-1, 2, 10)
    with pytest.raises(InputError):
        sweep_grid(1, 2, 0)
    with pytest.raises(InputError):
        sweep_grid(1.0, 2, 10)


def test_summarize_sweep_empty():
    assert summarize_sweep([]) == (0, 0, 0, 0, 0)


def test_verify_graph_star_equality():
    records = verify_graph(gen_star(5), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert len(records) == 5
    for r in records:
        assert r.is_star and r.is_connected
        assert r.f_holds and r.g_holds and r.g_equality
        assert r.Delta == 4 and r.delta == 1
        # delta = 1 makes the two bounds coincide
        assert r.f_value == r.g_value


def test_verify_graph_cycle_example():
    r = verify_graph(gen_cycle(5), [0.5])[0]
    assert abs(r.lambda1 - 2.0) <= 1e-10
    assert abs(r.f_value - (1.0 + math.sqrt(2) / 2)) <= 1e-12
    assert r.f_holds and r.g_holds and not r.is_star
    assert r.delta == 2 and r.Delta == 2


def test_verify_graph_isolated_vertex_keeps_radius():
    r = verify_graph(add_isolated(gen_star(4), 1), [0.5])[0]
    assert r.delta == 0 and r.Delta == 3
    assert abs(r.lambda1 - bound_g(3, 0.5)) <= 1e-9
    assert r.f_holds and r.g_holds
    assert not r.is_connected and not r.is_star


def test_verify_graph_edgeless_g_exclusion():
    """g = alpha > 0 = lambda1 on edgeless graphs: recorded, not a violation."""
    records = verify_graph(Graph(3, ()), [0.0, 0.5])
    by_alpha = {r.alpha: r for r in records}
    assert by_alpha[0.5].g_holds is False
    assert by_alpha[0.5].f_holds is True
    assert by_alpha[0.0].g_holds is True
    assert verification_violations(records) == []


def test_verify_graph_validation():
    """A one-vertex graph gets random_campaign's refusal, word for word."""
    with pytest.raises(InputError) as ei:
        verify_graph(Graph(1, ()), [0.5])
    with pytest.raises(InputError) as campaign:
        random_campaign(n_values=[1])
    assert str(ei.value) == str(campaign.value) == \
        "verification needs n >= 2, got n = 1"
    with pytest.raises(InputError):
        verify_graph(gen_star(3), [1.5])
    with pytest.raises(InputError):
        verify_graph(gen_star(3), [-0.1])


def test_verify_graph_default_id_and_method():
    records = verify_graph(gen_complete(3), [0.5])
    assert records[0].graph_id == "graph6:Bw"
    forced = verify_graph(gen_complete(3), [0.5], method="power")
    assert abs(forced[0].lambda1 - records[0].lambda1) <= 1e-7


def test_verify_graph_wraps_solver_failure(monkeypatch):
    def boom(am, method=None):
        raise ConvergenceError("synthetic stall", estimate=1.25,
                               residual=0.5, iterations=7)

    monkeypatch.setattr(harness_mod, "spectral_radii_dense", boom)
    with pytest.raises(ConvergenceError) as ei:
        harness_mod.verify_graph(gen_star(3), [0.5], graph_id="the-culprit")
    err = ei.value
    assert "the-culprit" in str(err)
    assert err.estimate == 1.25 and err.residual == 0.5 and err.iterations == 7


@pytest.mark.parametrize("method", ["jacobi", "power", "lanczos"])
def test_verify_graph_oracles_solve_per_alpha(monkeypatch, method):
    """A forced oracle gives one spectral_radius call per alpha, the same
    lambda1 as solving each matrix alone, and a failure names the alpha."""
    g = gen_cycle(5)
    alphas = [0.0, 0.25, 0.5]
    records = verify_graph(g, alphas, method=method)
    assert [r.lambda1 for r in records] == [
        spectral_radius(build_alpha_matrix(g, a), method).lambda1
        for a in alphas]

    def boom(am, method=None):
        if am.alpha == 0.25:
            raise ConvergenceError("synthetic stall", estimate=1.25,
                                   residual=0.5, iterations=7)
        return spectral_radius(am, method)

    monkeypatch.setattr(harness_mod, "spectral_radius", boom)
    with pytest.raises(ConvergenceError) as ei:
        harness_mod.verify_graph(g, alphas, method=method,
                                 graph_id="the-culprit")
    err = ei.value
    assert "the-culprit at alpha=0.25:" in str(err)
    assert err.estimate == 1.25 and err.residual == 0.5 and err.iterations == 7


def _single_lambda1(g, alpha):
    return spectral_radius_dense(build_alpha_matrix(g, alpha)).lambda1


def test_batched_lambda1_equals_single_solves():
    """Every lambda1 of the default campaign, of the certification's stars
    and of its non-star fixtures equals a LAPACK solve of that one matrix,
    bit for bit, and so do the certification's gap and margin."""
    by_key = {(r.graph_id, r.alpha): r.lambda1 for r in random_campaign()}
    assert len(by_key) == 297 * 5
    for n in range(2, 13):
        for p in (0.2, 0.5, 0.8):
            for seed in range(3):
                for k in range(3):
                    g = add_isolated(gen_random(n, p, seed), k)
                    gid = f"random:{n},{p},{seed}" + (f"+iso{k}" if k else "")
                    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
                        assert by_key[gid, a] == _single_lambda1(g, a), (gid, a)
    alphas = [k / 100 for k in range(101)]
    max_gap = 0.0
    for Delta in range(1, 21):
        star = gen_star(Delta + 1)
        lams = [r.lambda1 for r in verify_graph(star, alphas)]
        assert lams == [_single_lambda1(star, a) for a in alphas], Delta
        max_gap = max([max_gap] + [abs(lam - bound_g(Delta, a))
                                   for lam, a in zip(lams, alphas)])
    margins = []
    for name, g in harness_mod._non_star_fixtures():
        lams = [r.lambda1 for r in verify_graph(g, STRICTNESS_ALPHAS)]
        assert lams == [_single_lambda1(g, a) for a in STRICTNESS_ALPHAS], name
        Delta = max(g.degrees.tolist())
        margins += [lam - bound_g(Delta, a)
                    for lam, a in zip(lams, STRICTNESS_ALPHAS)]
    cert = certify_star_equality(20, 100)
    assert cert.max_equality_gap == max_gap
    assert cert.min_strictness_margin == min(margins)


def test_batched_lambda1_edge_cases():
    """An empty alpha list, repeated alphas and an edgeless graph."""
    assert verify_graph(gen_cycle(4), []) == []
    assert [a.shape for a in spectral_radii_dense(np.zeros((0, 3, 3)))] \
        == [(0,), (0,)]
    g = gen_complete(4)
    alphas = [0.5, 0.5, 0.25, 0.5, 0.25]
    lams = [r.lambda1 for r in verify_graph(g, alphas)]
    assert lams == [_single_lambda1(g, a) for a in alphas]
    assert lams[0] == lams[1] == lams[3] and lams[2] == lams[4]
    empty = Graph(3, ())
    alphas = [0.0, 0.5, 1.0]
    lams = [r.lambda1 for r in verify_graph(empty, alphas)]
    assert lams == [_single_lambda1(empty, a) for a in alphas] == [0.0] * 3


def _counted_eigh(monkeypatch):
    """Record the shape of every np.linalg.eigh call from here on."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_certify_star_equality_one_lapack_call_per_vertex_count(monkeypatch):
    """20 stars, n = 2..21, and 5 non-star fixtures, three of 4 vertices and
    two of 5: 22 eigh calls, in that order, not 2040."""
    calls = _counted_eigh(monkeypatch)
    cert = certify_star_equality(20, 100)
    assert cert.equality_checks + cert.strictness_checks == 2040
    assert calls == [(101, n, n) for n in range(2, 22)] + [(12, 4, 4),
                                                           (8, 5, 5)]
    calls.clear()
    verify_graph(gen_cycle(400), [k / 6 for k in range(7)])
    assert calls == [(6, 400, 400), (1, 400, 400)]  # 10**6 // 400**2 = 6


def test_each_alpha_is_checked_once(monkeypatch):
    """random_campaign checks each alpha once for all its graphs, and
    assembly does not check it again; certify_star_equality builds its own
    alphas and checks none."""
    calls = []
    for mod in (alpha_matrix_mod, harness_mod):
        def counted(alpha, *args, _check=mod.check_alpha, **kwargs):
            calls.append(alpha)
            return _check(alpha, *args, **kwargs)
        monkeypatch.setattr(mod, "check_alpha", counted)
    assert len(random_campaign()) == 1485
    assert calls == [0.0, 0.25, 0.5, 0.75, 1.0]
    calls.clear()
    certify_star_equality(20, 100)
    assert calls == []
    build_alpha_matrix(gen_star(4), 0.3)
    assert calls == [0.3]


def test_random_campaign_one_lapack_call_per_vertex_count(monkeypatch):
    """The default campaign solves its 297 graphs x 5 alphas in 13 eigh
    calls, one per n in 2..14. With the split limit made small, stacks
    split inside graphs' alphas, none passes limit**2 entries, and every
    record is unchanged bit for bit."""
    calls = _counted_eigh(monkeypatch)
    records = random_campaign()
    assert sorted(n for _, n, _ in calls) == list(range(2, 15))
    assert sum(k for k, _, _ in calls) == 1485
    calls.clear()
    limit = 20
    monkeypatch.setattr(harness_mod, "DISPATCH_DENSE_LIMIT", limit)
    patched = random_campaign()
    assert len(patched) == len(records)
    for got, want in zip(patched, records):
        assert repr(got) == repr(want)
    assert all(k * n * n <= limit ** 2 for k, n, _ in calls)
    assert sum(k for k, _, _ in calls) == 1485
    starts = {}  # n -> the first layer of each of its stacks
    for k, n, _ in calls:
        layers = starts.setdefault(n, [0])
        layers.append(layers[-1] + k)
    assert any(layer % 5 for layers in starts.values() for layer in layers)


def test_random_campaign_bounds_are_the_scalar_bounds():
    """f, g and the three checks, computed over a group's arrays, equal
    their values at one point, bit for bit."""
    for r in random_campaign():
        assert r.f_value == bound_f(r.delta, r.Delta, r.alpha), r
        assert r.g_value == bound_g(r.Delta, r.alpha), r
        assert (r.f_holds, r.g_holds, r.g_equality) == (
            r.lambda1 >= r.f_value - harness_mod.BOUND_SLACK,
            r.lambda1 >= r.g_value - harness_mod.BOUND_SLACK,
            abs(r.lambda1 - r.g_value) <= EQUALITY_TOL), r


def _failing_stack(monkeypatch, n, call=0):
    """Make the dense solver raise on the call-th stack of n x n matrices."""
    seen = []

    def boom(stack):
        if stack.shape[1] == n:
            seen.append(stack.shape)
            if len(seen) > call:
                raise ConvergenceError("synthetic stall", estimate=1.25,
                                       residual=0.5, iterations=7)
        return spectral_radii_dense(stack)

    monkeypatch.setattr(harness_mod, "spectral_radii_dense", boom)


def test_random_campaign_names_every_graph_in_a_failing_stack(monkeypatch):
    """A solver failure in a multi-graph stack names each graph in it with
    its alphas there, and keeps the solver's evidence."""
    _failing_stack(monkeypatch, 5)
    with pytest.raises(ConvergenceError) as ei:
        random_campaign()
    err = ei.value
    msg = str(err)
    full = "at alpha=0.0, 0.25, 0.5, 0.75, 1.0"
    # The 27 graphs of n = 5: 9 draws each of n = 5, 4 + 1 and 3 + 2.
    ids = [f"random:{n},{p},{seed}" + (f"+iso{k}" if k else "")
           for n, k in ((3, 2), (4, 1), (5, 0)) for p in (0.2, 0.5, 0.8)
           for seed in range(3)]
    assert msg.count(" at alpha=") == len(ids) == 27
    for gid in ids:
        assert f"{gid} {full}" in msg, gid
    assert msg.endswith(": synthetic stall")
    assert err.estimate == 1.25 and err.residual == 0.5 and err.iterations == 7
    # Stacks of 20**2 // 3**2 = 44 matrices of n = 3 (9 draws of n = 2 + 1,
    # then 9 of n = 3): the second holds layers 44..87, from the last alpha
    # of the 9th graph to the third alpha of the 18th.
    monkeypatch.setattr(harness_mod, "DISPATCH_DENSE_LIMIT", 20)
    _failing_stack(monkeypatch, 3, call=1)
    with pytest.raises(ConvergenceError) as ei:
        random_campaign()
    msg = str(ei.value)
    assert msg == "eigensolver failed on random:2,0.8,2+iso1 at alpha=1.0; " + \
        "; ".join(f"random:3,{p},{seed} {full}" for p in (0.2, 0.5, 0.8)
                  for seed in range(3) if (p, seed) != (0.8, 2)) + \
        "; random:3,0.8,2 at alpha=0.0, 0.25, 0.5: synthetic stall"


@pytest.mark.parametrize("kwargs, message", [
    ({"n_values": [1]}, "verification needs n >= 2, got n = 1"),
    ({"alpha_list": [0.5, 1.5]}, "need alpha in [0, 1], got 1.5"),
    ({"isolated_counts": [-1]}, "k must be >= 0, got -1"),
    ({"n_values": 5}, "n_values must be a sequence, got 5"),
], ids=["n1", "alpha", "isolated", "n-scalar"])
def test_random_campaign_input_errors(kwargs, message):
    with pytest.raises(InputError) as ei:
        random_campaign(**kwargs)
    assert str(ei.value) == message


def test_dense_stack_memory_is_bounded():
    """A stack holds at most DISPATCH_DENSE_LIMIT**2 entries: 20 alphas of
    G(500, .05) as one stack would be 40 MB by itself."""
    g = gen_random(500, 0.05, 0)
    alphas = [k / 19 for k in range(20)]
    tracemalloc.start()
    try:
        records = verify_graph(g, alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * DISPATCH_DENSE_LIMIT ** 2 * 8, f"peak {peak / 1e6:.1f} MB"
    assert records == [verify_graph(g, [a])[0] for a in alphas]


def _sweep_report(tmp_path):
    """The 50096-row CSV report of sweep_grid(30, 30, 100), 6.1 MB."""
    table = sweep_grid(30, 30, 100)
    path = tmp_path / "sweep.csv"
    emit_report(table, "csv", path, kind="sweep")
    return table, path


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_emit_report_memory_is_bounded(tmp_path):
    """emit_report writes a block of rows at a time, so its peak stays below
    the report's size: about 0.6 times on a 6.1 MB sweep report, most of
    it a CSV block's byte matrix and keep-mask and the block's text."""
    table, path = sweep_grid(30, 30, 100), tmp_path / "sweep.csv"
    _, peak = _traced_peak(lambda: emit_report(table, "csv", path))
    size = path.stat().st_size
    assert peak < size, f"peak {peak / size:.2f} x the file size"
    assert size > 6e6


def test_csv_parse_memory_is_bounded(tmp_path):
    """parse_report hands the open file to np.loadtxt and holds neither the
    text nor a list of its lines: on a 6.1 MB sweep report it peaks at about
    1.5 times the file size."""
    table, path = _sweep_report(tmp_path)
    size = path.stat().st_size
    back, peak = _traced_peak(lambda: parse_report(path))
    assert peak < 2 * size, f"peak {peak / size:.2f} x the file size"
    assert render_report(back, "csv") == path.read_text(encoding="ascii")


def test_verification_violations_filter():
    base = verify_graph(gen_star(3), [0.5])[0]
    bad_f = base._replace(f_holds=False)
    bad_g_edge = base._replace(g_holds=False)
    bad_g_edgeless = base._replace(g_holds=False, edge_count=0)
    assert verification_violations([base]) == []
    assert verification_violations([bad_f]) == [bad_f]
    assert verification_violations([bad_g_edge]) == [bad_g_edge]
    assert verification_violations([bad_g_edgeless]) == []


def test_random_campaign_small():
    records = random_campaign(n_values=(4, 5), p_values=(0.5,), seeds=(0, 1),
                              isolated_counts=(0, 1),
                              alpha_list=(0.0, 0.5, 1.0))
    assert len(records) == 2 * 2 * 2 * 3
    assert len({r.graph_id for r in records}) == 8
    keys = [(r.graph_id, r.alpha) for r in records]
    assert keys == sorted(keys)
    assert verification_violations(records) == []
    iso = [r for r in records if r.graph_id.endswith("+iso1")]
    assert iso and all(r.delta == 0 for r in iso)
    assert random_campaign(alpha_list=[]) == []
    assert random_campaign(n_values=[]) == []


def test_certify_star_equality_passes():
    cert = certify_star_equality(6, 20)
    assert cert.passed and not cert.failures
    assert cert.equality_checks == 6 * 21
    assert cert.strictness_checks == 5 * len(STRICTNESS_ALPHAS)
    assert cert.max_equality_gap <= EQUALITY_TOL
    assert cert.min_strictness_margin > 1e-6
    # jacobi agrees as the cross-check solver
    for Delta in range(1, 5):
        for k in range(11):
            am = build_alpha_matrix(gen_star(Delta + 1), k / 10)
            assert abs(spectral_radius_jacobi(am).lambda1
                       - bound_g(Delta, k / 10)) <= EQUALITY_TOL


def test_certify_star_equality_failure_listing(monkeypatch):
    # LAPACK hits g exactly on small stars, so only a negative tolerance
    # makes every equality check fail.
    monkeypatch.setattr(harness_mod, "EQUALITY_TOL", -1.0)
    cert = harness_mod.certify_star_equality(2, 2)
    assert not cert.passed
    assert sum(line.startswith("star Delta=") for line in cert.failures) == 2 * 3
    monkeypatch.setattr(harness_mod, "EQUALITY_TOL", 1e-8)
    monkeypatch.setattr(harness_mod, "STRICTNESS_MARGIN", 10.0)
    cert = harness_mod.certify_star_equality(1, 2)
    assert not cert.passed
    assert any(line.startswith("non-star") for line in cert.failures)
    # The non-stars come grouped by vertex count: n = 4, then n = 5.
    margins = {"C4": ("5.858e-01", "5.570e-01", "5.000e-01", "3.596e-01"),
               "K4": ("1.268e+00", "1.177e+00", "1.000e+00", "6.340e-01"),
               "P4": ("2.038e-01", "2.084e-01", "2.071e-01", "1.686e-01"),
               "C5": ("5.858e-01", "5.570e-01", "5.000e-01", "3.596e-01"),
               "K23": ("7.174e-01", "6.435e-01", "5.000e-01", "2.270e-01")}
    assert cert.failures == tuple(
        f"non-star {name} alpha={a:g}: margin = {m}"
        for name, ms in margins.items() for a, m in zip(STRICTNESS_ALPHAS, ms))


def test_certify_star_equality_validation():
    with pytest.raises(InputError):
        certify_star_equality(0, 10)
    with pytest.raises(InputError):
        certify_star_equality(3, 0)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_report_round_trip(tmp_path, fmt):
    records = sweep_grid(2, 4, 7)  # alpha = k/7 exercises long decimals
    path = tmp_path / f"sweep.{fmt}"
    emit_report(records, fmt, path)
    assert parse_report(path) == records


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verification_report_round_trip(tmp_path, fmt):
    records = random_campaign(n_values=(5,), p_values=(0.5,), seeds=(0,),
                              isolated_counts=(0, 2), alpha_list=(1 / 3, 0.75))
    path = tmp_path / f"verif.{fmt}"
    emit_report(records, fmt, path)
    assert parse_report(path) == records


def test_report_headers_and_quoting(tmp_path):
    records = verify_graph(gen_random(4, 0.5, 0), [0.5],
                           graph_id="random:4,0.5,0")
    path = tmp_path / "v.csv"
    emit_report(records, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(VERIFICATION_COLUMNS)
    assert lines[1].startswith('"random:4,0.5,0",')  # comma forces quoting
    spath = tmp_path / "s.csv"
    emit_report(sweep_grid(1, 1, 1), "csv", spath)
    assert spath.read_text().splitlines()[0] == ",".join(SWEEP_COLUMNS)


def test_report_json_shape():
    text = render_report(sweep_grid(1, 1, 1), "json")
    objs = json.loads(text)
    assert len(objs) == 6
    assert tuple(objs[0].keys()) == SWEEP_COLUMNS
    assert objs[0]["witness"] == Witness.ALPHA_ZERO.value
    assert isinstance(objs[0]["consistent"], bool)


def test_report_empty_and_errors(tmp_path):
    path = tmp_path / "empty.csv"
    emit_report([], "csv", path, kind="sweep")
    assert path.read_text() == ",".join(SWEEP_COLUMNS) + "\n"
    assert parse_report(path) == []
    jpath = tmp_path / "empty.json"
    emit_report([], "json", jpath, kind="verification")
    assert parse_report(jpath) == []
    with pytest.raises(InputError):
        render_report([], "csv")  # kind unknown when empty
    with pytest.raises(InputError):
        render_report([], "csv", kind="other")
    with pytest.raises(InputError):
        render_report(sweep_grid(0, 0, 1), "xml")
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(InputError):
        parse_report(bad)
    with pytest.raises(InputError):
        emit_report(sweep_grid(0, 0, 1), "csv", None)


def _csv_writer_reference(records, columns):
    """CSV text written one record at a time by csv.writer."""
    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return "%.17g" % v
        return getattr(v, "value", v)

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    w.writerows([cell(v) for v in r] for r in records)
    return buf.getvalue()


# Rows per written block: the edge sizes, one that does not divide any
# record count used below, and the default.
BLOCK_ROWS = pytest.mark.parametrize(
    "block_rows", [1, 2, 7, reports_mod._BLOCK_ROWS],
    ids=["rows1", "rows2", "rows7", "default"])


def _assert_report_text(tmp_path, records, fmt, expected):
    """render_report gives expected, and emit_report writes its bytes."""
    assert render_report(records, fmt) == expected
    path = tmp_path / f"r.{fmt}"
    emit_report(records, fmt, path)
    assert path.read_bytes() == expected.encode()


def _hand_sweep(sweep):
    return [SweepRecord(2, 3, 1 / 3, math.sqrt(2), math.pi / 3, -0.0,
                        Ordering.GREATER, Ordering.EQUAL,
                        Witness.INTERIOR_GREATER, False),
            SweepRecord(1, 2, 0.5, math.nan, math.inf, -math.inf,
                        Ordering.LESS, Ordering.LESS, Witness.DELTA_MIN_ONE,
                        True)] + list(sweep)[:5]


def _hand_verification(graph_ids):
    records = list(verify_graph(gen_random(4, 0.5, 0), [0.0, 1 / 3],
                                graph_id="random:4,0.5,0"))
    for gid in graph_ids:
        records += verify_graph(gen_cycle(4), [0.5], graph_id=gid)
    return records


@BLOCK_ROWS
def test_csv_report_bytes_match_csv_writer(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(reports_mod, "_BLOCK_ROWS", block_rows)
    sweep = sweep_grid(2, 4, 7)
    # sweep_grid(3, 6, 20) has 462 rows, enough that the default block's
    # columns go through the vectorized kernels.
    for records in (sweep, list(sweep), _hand_sweep(sweep),
                    sweep_grid(3, 6, 20)):
        _assert_report_text(tmp_path, records, "csv",
                            _csv_writer_reference(records, SWEEP_COLUMNS))
    # csv.writer with a "\n" terminator leaves a lone "\r" unquoted, and the
    # report quotes it (test_csv_graph_id_line_breaks_round_trip), so each
    # "\r" here stands in a field that is quoted for another reason.
    verif = _hand_verification(['say "hi"', "", "a,b", "a,b\r", "a\nb",
                                "a\r\nb", "grafo_é,\"x"])
    _assert_report_text(tmp_path, verif, "csv",
                        _csv_writer_reference(verif, VERIFICATION_COLUMNS))
    # Counts the digit table does not cover are written by str.
    big = _hand_verification([]) + _huge_counts()
    _assert_report_text(tmp_path, big, "csv",
                        _csv_writer_reference(big, VERIFICATION_COLUMNS))


def _huge_counts():
    """Verification records whose n and m lie outside [0, 10**16)."""
    record = verify_graph(gen_cycle(4), [0.5], graph_id="huge")[0]
    return [record._replace(n=n, edge_count=m) for n, m in
            [(10 ** 16 - 1, 10 ** 16), (2 ** 63 - 1, -1), (5, -(2 ** 63))]]


@BLOCK_ROWS
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_graph_id_with_nul_round_trips(tmp_path, monkeypatch,
                                              block_rows, fmt):
    """A CSV block is cut out of a byte matrix by the length of each field,
    not by byte value, so a NUL in a graph_id is written and read back."""
    monkeypatch.setattr(reports_mod, "_BLOCK_ROWS", block_rows)
    records = _hand_verification(["\x00", "a\x00b"]) + _huge_counts()
    path = tmp_path / f"r.{fmt}"
    emit_report(records, fmt, path)
    assert parse_report(path) == records


def _repeated_values():
    """Verification records whose graph_ids and lambda1s repeat and
    interleave, 0.0 and -0.0 among them: every block of 2 or 7 rows holds a
    repeat, or shares a value with the block before it."""
    record = verify_graph(gen_cycle(4), [0.5], graph_id="x")[0]
    ids = ["a,b", "x", "a,b", "", "x", "grafo_é"]
    lams = [0.0, -0.0, 1 / 3, 0.0, 2.5, 1 / 3, -0.0]
    return [record._replace(graph_id=gid, lambda1=lam)
            for gid, lam in zip(ids * 3, lams * 3)]


@BLOCK_ROWS
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_repeated_values_match_the_references(tmp_path, monkeypatch,
                                                     block_rows, fmt):
    """Each distinct graph_id and JSON real of a block is formatted once and
    handed to every row that holds it, so each row must get its own."""
    monkeypatch.setattr(reports_mod, "_BLOCK_ROWS", block_rows)
    records = _repeated_values()
    reference = _csv_writer_reference if fmt == "csv" else _json_reference
    _assert_report_text(tmp_path, records, fmt,
                        reference(records, VERIFICATION_COLUMNS))


def _json_reference(records, columns):
    """JSON text built record by record with json.dumps."""
    return json.dumps([{name: getattr(v, "value", v)
                        for name, v in zip(columns, r)} for r in records],
                      indent=1) + "\n"


@BLOCK_ROWS
def test_json_report_bytes_match_json_dumps(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(reports_mod, "_BLOCK_ROWS", block_rows)
    sweep = sweep_grid(2, 4, 7)
    for records in (sweep, list(sweep), _hand_sweep(sweep)):
        _assert_report_text(tmp_path, records, "json",
                            _json_reference(records, SWEEP_COLUMNS))
    verif = _hand_verification(['say "hi"', "", "a,b", "tab\there",
                                "back\\slash", "a\rb", "a\nb", "a\r\nb",
                                "grafo_é,\"x"])
    _assert_report_text(tmp_path, verif, "json",
                        _json_reference(verif, VERIFICATION_COLUMNS))


class _ResidualRecord(NamedTuple):
    """A layout that no campaign writes, to stand for a new report kind."""

    graph_id: str
    alpha: float
    lambda1: float
    residual: float
    iterations: int
    converged: bool


@BLOCK_ROWS
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_new_report_kind_is_one_kinds_entry(tmp_path, monkeypatch,
                                             block_rows, fmt):
    """A record type added to _KINDS is a report kind with nothing else
    changed: its records are written in either format (200 rows, enough
    that the default block goes through the vectorized kernels), read back
    as its kind, and kept apart from the other kinds."""
    monkeypatch.setitem(reports_mod._KINDS, "residual", _ResidualRecord)
    monkeypatch.setattr(reports_mod, "_BLOCK_ROWS", block_rows)
    records = [_ResidualRecord(f"g{i % 3},x", i / 7, math.sqrt(i),
                               -0.0 if i % 2 else i * 1e-300, i, i % 4 == 0)
               for i in range(200)]
    columns = tuple(reports_mod._schema(_ResidualRecord))
    reference = _csv_writer_reference if fmt == "csv" else _json_reference
    _assert_report_text(tmp_path, records, fmt, reference(records, columns))
    back = parse_report(tmp_path / f"r.{fmt}")
    assert back.kind == "residual" and back == records
    assert ReportTable.from_records(records, "residual") == back
    assert back[:0] != ReportTable.from_records([], "verification")
    with pytest.raises(InputError, match="^expected residual records, got a "
                                         "sweep table$"):
        ReportTable.from_records(sweep_grid(0, 0, 1), "residual")
    with pytest.raises(InputError, match="^unrecognized report columns"):
        ReportTable(dict(zip(columns[::-1], back.columns.values())))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_reals_round_trip_bit_for_bit(tmp_path, fmt):
    """NaN, both infinities and -0.0 read back with the bits they were
    written with; ReportTable equality cannot show this, as NaN != NaN."""
    records = _hand_sweep(sweep_grid(1, 1, 1))
    path = tmp_path / f"r.{fmt}"
    emit_report(records, fmt, path)
    back = parse_report(path).columns
    table = ReportTable.from_records(records, "sweep")
    for name, column in table.columns.items():
        if column.dtype == np.float64:
            assert np.array_equal(back[name].view(np.int64),
                                  column.view(np.int64)), name


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_parse_report_after_leading_blank_lines(tmp_path, fmt):
    """A CSV header or a JSON list that follows blank lines is found there."""
    records = verify_graph(gen_star(3), [0.5])
    path = tmp_path / f"r.{fmt}"
    path.write_text("\n\n" + render_report(records, fmt))
    assert parse_report(path) == records


def test_report_schema_is_read_off_the_record_types():
    """Each kind's columns are its record's fields, renamed where the report
    name is shorter, and each column's cell follows its field's annotation;
    so one more annotated field is one more column."""
    assert SWEEP_COLUMNS == ("delta", "Delta", "alpha", "f", "g", "diff",
                             "symbolic", "numeric", "witness", "consistent")
    assert VERIFICATION_COLUMNS == (
        "graph_id", "n", "m", "Delta", "delta", "alpha", "lambda1", "f", "g",
        "f_holds", "g_holds", "g_equality", "is_star", "is_connected")
    r = reports_mod
    cells = {"delta": r._INT, "Delta": r._INT, "alpha": r._REAL,
             "f": r._REAL, "g": r._REAL, "diff": r._REAL,
             "symbolic": r._ORDERING, "numeric": r._ORDERING,
             "witness": r._WITNESS, "consistent": r._BOOL,
             "graph_id": r._TEXT, "n": r._INT, "m": r._INT,
             "lambda1": r._REAL, "f_holds": r._BOOL, "g_holds": r._BOOL,
             "g_equality": r._BOOL, "is_star": r._BOOL,
             "is_connected": r._BOOL}
    schemas = r._schema(SweepRecord) | r._schema(VerificationRecord)
    assert schemas.keys() == cells.keys()
    assert all(schemas[name] is cell for name, cell in cells.items())
    extended = NamedTuple("Extended", [
        *VerificationRecord.__annotations__.items(), ("residual", float)])
    schema = r._schema(extended)
    assert tuple(schema) == VERIFICATION_COLUMNS + ("residual",)
    assert schema["residual"] is r._REAL
    assert all(schema[name] is schemas[name] for name in VERIFICATION_COLUMNS)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_graph_id_outside_ascii_round_trips(tmp_path, fmt):
    records = verify_graph(gen_star(3), [0.5], graph_id='grafo_é,"x')
    path = tmp_path / f"v.{fmt}"
    emit_report(records, fmt, path)
    assert parse_report(path) == records


@pytest.mark.parametrize("make, fmt, sha256", [
    (random_campaign, "csv",
     "c62cc5b82ddbd6073a56e228df016e9ad0db513952cda65c9e5e88a5977c6787"),
    (random_campaign, "json",
     "8bcb84cec8325ffc8374ea9c805377cae3c1daecd42103c07b769eb38baf7bf3"),
    (lambda: sweep_grid(60, 60, 100), "csv",
     "2d79ded369fd89e6e70347059fd64bed5650fcc18d1a698f6aa2b275dab37976"),
], ids=["campaign-csv", "campaign-json", "sweep-csv"])
def test_report_bytes_are_pinned(make, fmt, sha256):
    """The default campaign's reports and the 190991-point sweep's CSV
    report keep their SHA-256 digests, so no change to how records are held
    or written can change a byte of them."""
    text = render_report(make(), fmt)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_parse_report_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xff")
    with pytest.raises(InputError, match="bad.csv is not UTF-8"):
        parse_report(path)


def test_parse_report_not_utf8_past_the_first_megabyte(tmp_path):
    """The file is decoded as np.loadtxt reads it, and a bad byte far into
    it still names the file."""
    _, path = _sweep_report(tmp_path)
    data = bytearray(path.read_bytes())
    data[1_500_000] = 0xFF
    path.write_bytes(data)
    with pytest.raises(InputError, match="sweep.csv is not UTF-8"):
        parse_report(path)


def test_parse_report_names_a_bad_last_line(tmp_path):
    """A bad cell on the last of 50096 rows is found by reading the file
    again, and named by its line number."""
    _, path = _sweep_report(tmp_path)
    text = path.read_text(encoding="ascii")
    assert text.endswith(",true\n") and text.count("\n") == 50097
    path.write_text(text[:-len("true\n")] + "maybe\n", encoding="ascii")
    with pytest.raises(InputError,
                       match="^line 50097: bad consistent cell 'maybe'$"):
        parse_report(path)


@pytest.mark.parametrize("records, format, kind, message", [
    ([], "csv", None, "unknown report kind None"),
    (sweep_grid(0, 0, 1), "csv", "other", "unknown report kind 'other'"),
    (sweep_grid(0, 0, 1), "xml", None, "unknown report format 'xml'"),
    ([(1, 2, 3)], "csv", "sweep", "report records have 10 fields, got 3"),
    (verify_graph(gen_star(3), [0.5]), "csv", "sweep",
     "expected sweep records, got a verification table"),
], ids=["no-kind", "unknown-kind", "unknown-format", "record-width",
        "kind-mismatch"])
def test_emit_report_refusal_creates_no_file(tmp_path, records, format, kind,
                                             message):
    path = tmp_path / "r.out"
    with pytest.raises(InputError, match=message):
        emit_report(records, format, path, kind=kind)
    assert not path.exists()


def test_emit_report_refuses_a_graph_id_utf8_cannot_encode(tmp_path):
    """A lone surrogate has no UTF-8 code: a CSV report of it is refused
    before its file is opened, and a JSON report escapes it."""
    records = verify_graph(gen_star(3), [0.5], graph_id="a\ud800b")
    path = tmp_path / "r.csv"
    with pytest.raises(InputError, match=r"^graph_id 'a\\ud800b' cannot be "
                                         "written as UTF-8"):
        emit_report(records, "csv", path)
    assert not path.exists()
    jpath = tmp_path / "r.json"
    emit_report(records, "json", jpath)
    assert '"graph_id": "a\\ud800b"' in jpath.read_text(encoding="ascii")
    assert parse_report(jpath) == records


def test_csv_graph_id_line_breaks_round_trip(tmp_path):
    records = []
    for gid in ("a\rb", "a\r\nb", "a\nb", "a,b\r"):
        records += verify_graph(gen_star(3), [0.5], graph_id=gid)
    path = tmp_path / "v.csv"
    emit_report(records, "csv", path)
    assert parse_report(path) == records
    # A report whose lines end in CRLF reads the same.
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(render_report(sweep_grid(1, 2, 3), "csv")
                     .replace("\n", "\r\n").encode())
    assert parse_report(crlf) == sweep_grid(1, 2, 3)


@pytest.mark.parametrize("records, change, message", [
    (sweep_grid(1, 1, 2), lambda objs: objs[2].pop("f"),
     "record 2: missing f"),
    (sweep_grid(1, 1, 2), lambda objs: objs[1].update(symbolic="Bigger"),
     "record 1: bad symbolic value 'Bigger'"),
    (sweep_grid(1, 1, 2), lambda objs: objs.insert(3, [1, 2]),
     r"record 3: expected an object, got \[1, 2\]"),
    (verify_graph(gen_cycle(4), [0.0, 0.5]),
     lambda objs: objs[1].update(n=4.5), "record 1: bad n value 4.5"),
    (verify_graph(gen_cycle(4), [0.0, 0.5]),
     lambda objs: objs[0].update(m=True), "record 0: bad m value True"),
    (verify_graph(gen_cycle(4), [0.0, 0.5]),
     lambda objs: objs[1].update(n=2 ** 63), "record 1: bad n value 9223"),
    (verify_graph(gen_cycle(4), [0.0, 0.5]),
     lambda objs: objs[1].update(is_star="false"),
     "record 1: bad is_star value 'false'"),
], ids=["missing-field", "unknown-ordering", "not-an-object", "float-count",
        "bool-count", "huge-count", "string-bool"])
def test_parse_json_report_names_bad_record(tmp_path, records, change,
                                             message):
    objs = json.loads(render_report(records, "json"))
    change(objs)
    path = tmp_path / "r.json"
    path.write_text(json.dumps(objs, indent=1))
    with pytest.raises(InputError, match=message):
        parse_report(path)


def test_parse_json_report_invalid_json_names_position(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(render_report(sweep_grid(1, 1, 2), "json")[:-40])
    with pytest.raises(InputError, match=r"line \d+ column \d+"):
        parse_report(path)


def _write(tmp_path, lines):
    path = tmp_path / "r.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_parse_report_short_row_names_line(tmp_path):
    lines = render_report(sweep_grid(1, 1, 2), "csv").splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0]
    with pytest.raises(InputError, match="line 4: expected 10 fields"):
        parse_report(_write(tmp_path, lines))


def test_parse_report_unknown_ordering_names_line(tmp_path):
    lines = render_report(sweep_grid(1, 1, 2), "csv").splitlines()
    lines[6] = lines[6].replace(",Equal,", ",Equals,", 1)
    with pytest.raises(InputError, match="line 7: bad symbolic cell 'Equals'"):
        parse_report(_write(tmp_path, lines))


@pytest.mark.parametrize("bad, message", [
    ({(3, "consistent"): "maybe", (6, "witness"): "x"},
     "line 4: bad consistent cell 'maybe'"),
    ({(3, "witness"): "x", (3, "symbolic"): "Bigger", (7, "consistent"): "no"},
     "line 4: bad symbolic cell 'Bigger'"),
    ({(4, "delta"): "x", (2, "consistent"): "maybe"},
     "line 3: bad consistent cell 'maybe'"),
], ids=["smallest-line", "first-column", "coded-before-numeric"])
def test_parse_report_names_the_first_bad_cell(tmp_path, bad, message):
    """Of several bad cells, the one on the smallest line is named, and on
    that line the one in the first column in header order."""
    lines = render_report(sweep_grid(1, 1, 2), "csv").splitlines()
    for (i, name), cell in bad.items():
        cells = lines[i].split(",")
        cells[SWEEP_COLUMNS.index(name)] = cell
        lines[i] = ",".join(cells)
    with pytest.raises(InputError, match=f"^{message}$"):
        parse_report(_write(tmp_path, lines))


def test_parse_report_huge_integer_names_line(tmp_path):
    lines = render_report(verify_graph(gen_cycle(4), [0.0, 0.5]),
                          "csv").splitlines()
    lines[2] = lines[2].replace(",4,4,", ",99999999999999999999,4,", 1)
    with pytest.raises(InputError, match="line 3: bad n cell '9999"):
        parse_report(_write(tmp_path, lines))


def test_parse_report_after_blank_lines_names_bad_line(tmp_path):
    """Line numbers count the blank lines before the header, and the header
    is not read as a row."""
    lines = render_report(sweep_grid(1, 1, 2), "csv").splitlines()
    lines[2] = "x" + lines[2][1:]
    with pytest.raises(InputError, match="^line 5: bad delta cell 'x'$"):
        parse_report(_write(tmp_path, ["", " ", *lines]))


def test_parse_report_header_only(tmp_path):
    """An empty file, and a header with no rows or only blank lines after
    it, parse to [] without a warning (pytest makes a warning an error)."""
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_report(empty) == []
        for columns in (SWEEP_COLUMNS, VERIFICATION_COLUMNS):
            for blank in ([], ["", " ", ""]):
                back = parse_report(_write(tmp_path, [",".join(columns),
                                                      *blank]))
                assert back == [] and len(back) == 0


def test_report_preserves_full_precision(tmp_path):
    """Irrational values survive text round-trip bit-for-bit."""
    records = [SweepRecord(2, 3, 1 / 3, math.sqrt(2), math.pi / 3,
                           math.sqrt(2) - math.pi / 3, Ordering.GREATER,
                           Ordering.GREATER, Witness.INTERIOR_GREATER, True)]
    for fmt in ("csv", "json"):
        path = tmp_path / f"p.{fmt}"
        emit_report(records, fmt, path)
        back = parse_report(path)[0]
        assert back.alpha == 1 / 3
        assert back.f_value == math.sqrt(2)
        assert back.g_value == math.pi / 3


def test_cross_format_equivalence(tmp_path):
    records = verify_graph(gen_cycle(6), [0.0, 0.31])
    cpath, jpath = tmp_path / "r.csv", tmp_path / "r.json"
    emit_report(records, "csv", cpath)
    emit_report(records, "json", jpath)
    assert parse_report(cpath) == parse_report(jpath) == records


def test_verification_record_fields_are_named_tuples():
    r = verify_graph(gen_star(3), [0.5])[0]
    assert isinstance(r, VerificationRecord)
    assert r._fields[:3] == ("graph_id", "n", "edge_count")


def _workloads(monkeypatch):
    """The benchmark's workloads module, imported from perfbench/."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("workloads")


def test_benchmark_hooks_resolve(tmp_path, monkeypatch):
    """Every function a traced benchmark pass wraps is still there under the
    name it wraps, so dropping one fails here and not only in the benchmark.
    harness keeps its degree_profile, emit_report, parse_report and
    render_report imports for these hooks alone."""
    for name, workload in _workloads(monkeypatch).WORKLOADS.items():
        (tmp_path / name).mkdir()
        hooks = workload(0, "tiny", str(tmp_path / name)).hooks()
        assert hooks, name
        for hook in hooks:
            assert callable(getattr(hook.module, hook.attr)), (name, hook)


@pytest.mark.parametrize("name", ["grid", "campaign"])
def test_benchmark_checks_pass(tmp_path, monkeypatch, name):
    """One tiny untraced pass of a benchmark workload passes the benchmark's
    own output checks: the record digest, the report round-trip and the
    counts. large checks against references that run.py computes, so
    perfbench/test_smoke.py covers it."""
    workload = _workloads(monkeypatch).WORKLOADS[name](0, "tiny",
                                                        str(tmp_path))
    assert workload.check(workload.run_pass())["errors"] == []
