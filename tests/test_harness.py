"""Sweep, graph verification, star certification, and report round-trips."""

import csv
import io
import json
import math
import warnings

import pytest

import aalpha.harness as harness_mod
from aalpha import (ConvergenceError, EQUALITY_TOL, Graph, InputError,
                    Ordering, STRICTNESS_ALPHAS, SweepRecord, SweepTable,
                    SWEEP_COLUMNS, VERIFICATION_COLUMNS, VerificationRecord,
                    Witness, add_isolated, bound_f, bound_g,
                    certify_star_equality, classify, emit_report,
                    gen_complete, gen_cycle, gen_random, gen_star,
                    numeric_ordering, parse_report, random_campaign,
                    render_report, summarize_sweep, sweep_grid,
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
    assert isinstance(table, SweepTable)
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
    assert table == SweepTable.from_records(records)
    assert table != records[:-1] and table != sweep_grid(2, 3, 5)
    assert table[0] == records[0] and table[-1] == records[-1]
    assert table[3:7] == records[3:7] and isinstance(table[3:7], SweepTable)
    with pytest.raises(IndexError):
        table[len(records)]
    assert table[:0] == [] and [] == table[:0]
    assert summarize_sweep(records) == summarize_sweep(table)
    with pytest.raises(InputError):
        SweepTable.from_records(verify_graph(gen_star(3), [0.5]))


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
    with pytest.raises(InputError):
        verify_graph(Graph(1, ()), [0.5])
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

    monkeypatch.setattr(harness_mod, "spectral_radius", boom)
    with pytest.raises(ConvergenceError) as ei:
        harness_mod.verify_graph(gen_star(3), [0.5], graph_id="the-culprit")
    err = ei.value
    assert "the-culprit" in str(err)
    assert err.estimate == 1.25 and err.residual == 0.5 and err.iterations == 7


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


def test_certify_star_equality_passes():
    cert = certify_star_equality(6, 20)
    assert cert.passed and not cert.failures
    assert cert.equality_checks == 6 * 21
    assert cert.strictness_checks == 5 * len(STRICTNESS_ALPHAS)
    assert cert.max_equality_gap <= EQUALITY_TOL
    assert cert.min_strictness_margin > 1e-6
    # jacobi agrees as the cross-check solver
    cert_j = certify_star_equality(4, 10, method="jacobi")
    assert cert_j.passed


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


def test_csv_report_bytes_match_csv_writer():
    sweep = sweep_grid(2, 4, 7)
    hand = [SweepRecord(2, 3, 1 / 3, math.sqrt(2), math.pi / 3, -0.0,
                        Ordering.GREATER, Ordering.EQUAL,
                        Witness.INTERIOR_GREATER, False)] + list(sweep)[:5]
    for records in (sweep, list(sweep), hand):
        assert render_report(records, "csv") == \
            _csv_writer_reference(records, SWEEP_COLUMNS)
    verif = verify_graph(gen_random(4, 0.5, 0), [0.0, 1 / 3],
                         graph_id="random:4,0.5,0")
    verif += verify_graph(gen_star(3), [0.5], graph_id='say "hi"')
    verif += verify_graph(gen_cycle(4), [0.5], graph_id="")
    assert render_report(verif, "csv") == \
        _csv_writer_reference(verif, VERIFICATION_COLUMNS)


def _json_reference(records, columns):
    """JSON text built record by record with json.dumps."""
    return json.dumps([{name: getattr(v, "value", v)
                        for name, v in zip(columns, r)} for r in records],
                      indent=1) + "\n"


def test_json_report_bytes_match_json_dumps():
    sweep = sweep_grid(2, 4, 7)
    for records in (sweep, list(sweep)):
        assert render_report(records, "json") == \
            _json_reference(records, SWEEP_COLUMNS)
    verif = verify_graph(gen_random(4, 0.5, 0), [0.0, 1 / 3],
                         graph_id="random:4,0.5,0")
    for gid in ('say "hi"', "", "tab\there", "back\\slash", "a\r\nb"):
        verif += verify_graph(gen_cycle(4), [0.5], graph_id=gid)
    assert render_report(verif, "json") == \
        _json_reference(verif, VERIFICATION_COLUMNS)


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


def test_parse_report_huge_integer_names_line(tmp_path):
    lines = render_report(verify_graph(gen_cycle(4), [0.0, 0.5]),
                          "csv").splitlines()
    lines[2] = lines[2].replace(",4,4,", ",99999999999999999999,4,", 1)
    with pytest.raises(InputError, match="line 3: bad n cell '9999"):
        parse_report(_write(tmp_path, lines))


def test_parse_report_header_only(tmp_path):
    for columns in (SWEEP_COLUMNS, VERIFICATION_COLUMNS):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = parse_report(_write(tmp_path, [",".join(columns)]))
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
