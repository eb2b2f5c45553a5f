"""CLI behavior: output shapes, exit codes, the alpha domain."""

import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import aalpha.cli as cli_mod
import aalpha.harness as harness_mod
import aalpha.spectral as spectral_mod
from aalpha import (bound_f, bound_g, build_alpha_matrix, gen_cycle,
                    parse_report, spectral_radius)
from aalpha.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def fields(text):
    got = {}
    for line in text.splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            got[k] = v
    return got


def test_eval_less_case(capsys):
    rc, out, _ = run(capsys, "eval", "--delta", "0", "--Delta", "3",
                     "--alpha", "0.5")
    assert rc == 0
    got = fields(out)
    assert float(got["f"]) == bound_f(0, 3, 0.5)
    assert float(got["g"]) == 2.0
    assert got["ordering"] == "Less"
    assert got["witness"] == "delta=0 & alpha!=0 & alpha!=1"


def test_eval_greater_case_json(capsys):
    rc, out, _ = run(capsys, "eval", "--delta", "2", "--Delta", "3",
                     "--alpha", "0.5", "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["f"] == bound_f(2, 3, 0.5)
    assert obj["ordering"] == "Greater"
    assert obj["diff"] == obj["f"] - obj["g"]


def test_classify_output(capsys):
    rc, out, _ = run(capsys, "classify", "--delta", "1", "--Delta", "5",
                     "--alpha", "0.7")
    assert rc == 0
    assert fields(out) == {"ordering": "Equal", "witness": "delta=1"}


def test_sweep_writes_report(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    rc, out, _ = run(capsys, "sweep", "--delta-max", "2", "--Delta-max", "4",
                     "--alpha-steps", "5", "--out", str(out_path))
    assert rc == 0
    got = fields(out)
    assert got["inconsistent"] == "0"
    records = parse_report(out_path)
    assert len(records) == int(got["points"])


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    """main reuses one parser, and each command still looks its
    collaborators up as module globals, so a patched one is called."""
    argv = ["classify", "--delta", "2", "--Delta", "3", "--alpha", "0.5"]
    assert run(capsys, *argv)[0] == 0

    def build_parser():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli_mod, "build_parser", build_parser)
    assert run(capsys, *argv)[0] == 0
    calls = []
    monkeypatch.setattr(cli_mod, "emit_report",
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "s.csv"
    assert run(capsys, "sweep", "--delta-max", "1", "--Delta-max", "1",
               "--alpha-steps", "2", "--out", str(out))[0] == 0
    assert len(calls) == 1 and not out.exists()


def test_sweep_json_format(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    rc, _, _ = run(capsys, "sweep", "--delta-max", "1", "--Delta-max", "1",
                   "--alpha-steps", "2", "--out", str(out_path),
                   "--format", "json")
    assert rc == 0
    assert len(json.loads(out_path.read_text())) == 9


def test_verify_star(tmp_path, capsys):
    out_path = tmp_path / "v.csv"
    rc, out, _ = run(capsys, "verify", "--gen", "star:6",
                     "--alphas", "0,0.5,1", "--out", str(out_path))
    assert rc == 0
    got = fields(out)
    assert got["graph"] == "star:6" and got["violations"] == "0"
    records = parse_report(out_path)
    assert [r.alpha for r in records] == [0.0, 0.5, 1.0]
    assert all(r.g_equality for r in records)


def test_verify_sources_and_isolated(tmp_path, capsys):
    g6 = tmp_path / "k4.g6"
    g6.write_text(">>graph6<<C~\n")  # K4, optional header prefix
    rc, out, _ = run(capsys, "verify", "--graph6", str(g6),
                     "--add-isolated", "1", "--alphas", "0.5",
                     "--out", str(tmp_path / "a.csv"))
    assert rc == 0
    r = parse_report(tmp_path / "a.csv")[0]
    assert r.graph_id == "graph6:C~+iso1"  # canonical, prefix stripped
    assert r.n == 5 and r.Delta == 3 and r.delta == 0
    el = tmp_path / "p3.txt"
    el.write_text("3 2\n0 1\n1 2\n")
    rc, out, _ = run(capsys, "verify", "--edgelist", str(el),
                     "--alphas", "0.25", "--method", "jacobi",
                     "--out", str(tmp_path / "b.csv"))
    assert rc == 0
    assert parse_report(tmp_path / "b.csv")[0].n == 3


def test_verify_violation_exit_code(tmp_path, capsys, monkeypatch):
    """Exit 1 is reserved for a failed bound check; no honest input triggers
    it, so fake one record."""
    real = cli_mod.verify_graph

    def tampered(g, alphas, method, gid):
        recs = real(g, alphas, method, gid)
        return [r._replace(f_holds=False) for r in recs]

    monkeypatch.setattr(cli_mod, "verify_graph", tampered)
    rc, out, _ = run(capsys, "verify", "--gen", "cycle:4", "--alphas", "0.5",
                     "--out", str(tmp_path / "v.csv"))
    assert rc == 1
    assert "VIOLATION" in out


def test_certify_stars(capsys):
    rc, out, _ = run(capsys, "certify-stars", "--Delta-max", "4",
                     "--alpha-steps", "8")
    assert rc == 0
    got = fields(out)
    assert got["failures"] == "0"
    assert int(got["equality checks"]) == 4 * 9
    assert float(got["max equality gap"]) <= 1e-8


def test_certify_stars_failure_exit_code(capsys, monkeypatch):
    """Every failed check prints one FAILED line, and the command exits 1."""
    monkeypatch.setattr(harness_mod, "EQUALITY_TOL", -1.0)
    rc, out, _ = run(capsys, "certify-stars", "--Delta-max", "1",
                     "--alpha-steps", "2")
    assert rc == 1
    assert fields(out)["failures"] == "3"
    failed = [ln for ln in out.splitlines() if ln.startswith("FAILED ")]
    assert [ln.split(":")[0] for ln in failed] == [
        f"FAILED star Delta=1 alpha={a}" for a in ("0", "0.5", "1")]


def test_spectral_outputs(capsys):
    rc, out, _ = run(capsys, "spectral", "--gen", "complete:4",
                     "--alpha", "0.3")
    assert rc == 0
    got = fields(out)
    assert abs(float(got["lambda1"]) - 3.0) <= 1e-10
    assert got["method"] == "dense"
    rc, out, _ = run(capsys, "spectral", "--gen", "cycle:4", "--alpha", "0",
                     "--method", "power")
    got = fields(out)
    assert abs(float(got["lambda1"]) - 2.0) <= 1e-9
    assert got["method"] == "power"
    assert int(got["iterations"]) >= 1


@pytest.mark.parametrize("n", [400, 1000])
def test_spectral_cycle_small_gap(capsys, n):
    """Cycles have a spectral gap of order 1/n^2 that stalls power iteration;
    the default path still returns lambda1 = 2 to 1e-10 and exits 0."""
    rc, out, _ = run(capsys, "spectral", "--gen", f"cycle:{n}", "--alpha", "0.5")
    assert rc == 0
    got = fields(out)
    assert abs(float(got["lambda1"]) - 2.0) <= 1e-10
    assert got["method"] == "dense"


def test_verify_cycle_5000_is_fast(tmp_path, capsys):
    """Above the dense limit a cycle, whose gap of about 1/n^2 stalled power
    iteration for 100000 iterations, is solved in one Lanczos step."""
    start = time.perf_counter()
    rc, out, _ = run(capsys, "verify", "--gen", "cycle:5000", "--alphas",
                     "0.5", "--out", str(tmp_path / "v.csv"))
    assert time.perf_counter() - start < 0.5
    assert rc == 0
    assert fields(out)["violations"] == "0"


def test_spectral_cycle_100000(capsys):
    rc, out, _ = run(capsys, "spectral", "--gen", "cycle:100000",
                     "--alpha", "0.5")
    assert rc == 0
    got = fields(out)
    assert abs(float(got["lambda1"]) - 2.0) <= 1e-10
    assert got["method"] == "lanczos"
    assert got["iterations"] == "1"
    # The solve holds O(n + m) arrays, 7.2 MB at its peak: matvec holds no
    # arrays of its own, only its product and the temporaries of one
    # product over the edge array. No n x n matrix (80 GB) and no
    # LANCZOS_MAX_STEPS x n basis (240 MB) is made.
    # The graph is built first: gen_cycle's own peak is not the solver's.
    g = gen_cycle(100000)
    tracemalloc.start()
    try:
        spectral_radius(build_alpha_matrix(g, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000, f"peak {peak / 1e6:.2f} MB"


def test_spectral_and_verify_force_dense(tmp_path, capsys):
    rc, out, _ = run(capsys, "spectral", "--gen", "star:5", "--alpha", "0.5",
                     "--method", "dense")
    assert rc == 0
    got = fields(out)
    assert got["method"] == "dense" and got["iterations"] == "1"
    assert abs(float(got["lambda1"]) - bound_g(4, 0.5)) <= 1e-12
    rc, _, _ = run(capsys, "verify", "--gen", "cycle:5", "--alphas", "0,0.5",
                   "--method", "dense", "--out", str(tmp_path / "d.csv"))
    assert rc == 0
    assert [r.lambda1 for r in parse_report(tmp_path / "d.csv")] == \
        pytest.approx([2.0, 2.0], abs=1e-12)


def test_solver_failure_reports_evidence(capsys, monkeypatch):
    """A stalled solver exits 1 and names its estimate, residual and
    iteration count."""
    monkeypatch.setattr(spectral_mod, "POWER_MAX_ITER", 3)
    rc, out, err = run(capsys, "spectral", "--gen", "cycle:5", "--alpha", "0.3",
                       "--method", "power")
    assert rc == 1
    assert out == ""
    assert err.startswith("solver failure: power iteration did not converge")
    assert "estimate " in err and "residual " in err
    assert "iterations 3)" in err


def test_lanczos_failure_reports_enclosure(capsys, monkeypatch):
    monkeypatch.setattr(spectral_mod, "LANCZOS_MAX_STEPS", 2)
    rc, out, err = run(capsys, "spectral", "--gen", "random:60,0.1,5",
                       "--add-isolated", "7", "--alpha", "0.25",
                       "--method", "lanczos")
    assert rc == 1
    assert out == ""
    assert err.startswith("solver failure: lanczos did not enclose lambda1")
    assert "lambda1 in [" in err and "iterations 2)" in err


def test_spectral_random_gen(capsys):
    rc, out, _ = run(capsys, "spectral", "--gen", "random:8,0.5,3",
                     "--alpha", "0.5")
    assert rc == 0
    assert fields(out)["graph"] == "random:8,0.5,3"


@pytest.mark.parametrize("argv", [
    ("eval", "--delta", "5", "--Delta", "3", "--alpha", "0.5"),
    ("eval", "--delta", "2", "--Delta", "3", "--alpha", "1.5"),
    ("classify", "--delta", "0", "--Delta", "2", "--alpha", "-0.1"),
    ("verify", "--gen", "star:1", "--alphas", "0.5", "--out", "/tmp/x.csv"),
    ("verify", "--gen", "spiral:4", "--alphas", "0.5", "--out", "/tmp/x.csv"),
    ("verify", "--gen", "random:4,0.5", "--alphas", "0.5", "--out", "/tmp/x.csv"),
    ("spectral", "--gen", "random:5,0.5,-1", "--alpha", "0.5"),
    ("verify", "--gen", "star:4", "--alphas", "abc", "--out", "/tmp/x.csv"),
    ("verify", "--gen", "star:4", "--add-isolated", "-1", "--alphas", "0.5",
     "--out", "/tmp/x.csv"),
    ("spectral", "--graph6", "/does/not/exist.g6", "--alpha", "0.5"),
    ("sweep", "--delta-max", "4", "--Delta-max", "2", "--alpha-steps", "5",
     "--out", "/tmp/x.csv"),
    ("spectral", "--gen", "star:4", "--add-isolated", str(2 ** 50),
     "--alpha", "0.5"),
    ("spectral", "--gen", "star:4611686018427387904", "--alpha", "0.5"),
    ("spectral", "--gen", "cycle:1125899906842624", "--alpha", "0.5"),
])
def test_input_errors_exit_two(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("spec, message", [
    ("star:1", "n must be >= 2, got 1"),
    ("random:5,0.5,-1", "seed must be >= 0, got -1"),
    ("random:5,1.5,0", "need p in [0, 1], got 1.5"),
    ("star5", "generator spec needs a colon, got 'star5'"),
    ("random:5,x,1", "malformed generator arguments in 'random:5,x,1'"),
    ("spiral:4",
     "unknown generator 'spiral'; expected star, complete, cycle, random"),
    ("star:1,2", "star generator needs N, got '1,2'"),
    ("complete:4,5", "complete generator needs N, got '4,5'"),
    ("cycle:3,4,5", "cycle generator needs N, got '3,4,5'"),
    ("random:4,0.5", "random generator needs N,P,SEED, got '4,0.5'"),
])
def test_generator_error_names_the_argument(capsys, spec, message):
    rc, _, err = run(capsys, "spectral", "--gen", spec, "--alpha", "0.5")
    assert rc == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["verify", "spectral"])
def test_help_lists_every_generator_and_method(capsys, command):
    """--gen's help comes from the generator table and --method's choices
    from spectral.METHODS."""
    with pytest.raises(SystemExit) as ei:
        main([command, "--help"])
    assert ei.value.code == 0
    out = " ".join(capsys.readouterr().out.split())  # as wrapped or not
    specs = [f"{name}:{names}"
             for name, (names, *_) in cli_mod._GENERATORS.items()]
    assert "--gen SPEC " + " | ".join(specs) in out
    assert "--method {" + ",".join(spectral_mod.METHODS) + "}" in out


@pytest.mark.parametrize("spec", ["star:5", "complete:4", "cycle:5",
                                  "random:6,0.5,1"])
def test_generator_is_read_off_the_cli_module(capsys, monkeypatch, spec):
    """The generator a spec names is looked up on aalpha.cli at call time,
    so one patched there is the one that runs."""
    name = "gen_" + spec.partition(":")[0]
    real, calls = getattr(cli_mod, name), []
    monkeypatch.setattr(cli_mod, name,
                        lambda *a: calls.append(a) or real(*a))
    rc, out, _ = run(capsys, "spectral", "--gen", spec, "--alpha", "0.5")
    assert rc == 0 and fields(out)["graph"] == spec
    assert len(calls) == 1


@pytest.mark.parametrize("method", spectral_mod.METHODS)
def test_solver_is_read_off_the_spectral_module(capsys, monkeypatch, method):
    """--method names a solver that spectral_radius looks up on
    aalpha.spectral at call time, so one patched there is the one that
    runs."""
    name = "spectral_radius_" + method
    real, calls = getattr(spectral_mod, name), []
    monkeypatch.setattr(spectral_mod, name,
                        lambda m: calls.append(m) or real(m))
    rc, out, _ = run(capsys, "spectral", "--gen", "cycle:5", "--alpha", "0.5",
                     "--method", method)
    assert rc == 0 and fields(out)["method"] == method
    assert len(calls) == 1


@pytest.mark.parametrize("flag, data", [
    ("--edgelist", "3 1\n0 1 # café\n".encode()),
    ("--graph6", b"B\xbf\n"),
])
def test_non_ascii_input_exits_two(capsys, tmp_path, flag, data):
    path = tmp_path / "graph.txt"
    path.write_bytes(data)
    rc, _, err = run(capsys, "spectral", flag, str(path), "--alpha", "0.5")
    assert rc == 2
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("argv, text, message", [
    (("spectral", "--graph6", "{path}", "--alpha", "0.5"), "\n \n",
     "no graph6 line found in {path}"),
    (("spectral", "--edgelist", "{path}", "--alpha", "0.5"),
     "3 1\n0 99999999999999999999999\n",
     "line 2: 99999999999999999999999 is outside int64"),
    (("verify", "--gen", "star:4", "--alphas", ",", "--out", "{path}.csv"),
     "", "--alphas is empty"),
    (("spectral", "--edgelist", "{path}", "--alpha", "0.5"),
     "9223372036854775807 0\n",
     "cannot hold a graph on n = 9223372036854775807 vertices: "),
    # The dense matrix of a graph that is cheap to hold: 7.28 TiB at n = 10**6.
    (("spectral", "--gen", "cycle:1000000", "--alpha", "0.5", "--method",
      "dense"), "", "cannot hold a graph on n = 1000000 vertices: "),
    (("verify", "--gen", "cycle:1000000", "--alphas", "0.5", "--method",
      "dense", "--out", "{path}.csv"), "",
     "cannot hold a graph on n = 1000000 vertices: "),
], ids=["empty-graph6", "huge-endpoint", "empty-alphas", "huge-n",
        "huge-dense", "huge-dense-verify"])
def test_input_error_messages(capsys, tmp_path, argv, text, message):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    rc, _, err = run(capsys, *(a.format(path=path) for a in argv))
    assert rc == 2
    assert err.startswith("error: " + message.format(path=path))


def test_report_of_a_non_ascii_path(capsys, tmp_path):
    """The edge-list path becomes the graph_id, which a report holds as
    UTF-8 text."""
    path = tmp_path / "grafo_é.edges"
    path.write_text("3 2\n0 1\n1 2\n")
    out = tmp_path / "v.csv"
    rc, _, _ = run(capsys, "verify", "--edgelist", str(path), "--alphas",
                   "0.5", "--out", str(out))
    assert rc == 0
    assert [r.graph_id for r in parse_report(out)] == [f"edgelist:{path}"]


def test_report_of_a_path_utf8_cannot_encode(capsys, tmp_path):
    """A path byte that is not UTF-8 reaches the graph_id as a lone
    surrogate, which a CSV report cannot hold: exit 2, and no file."""
    path = tmp_path / os.fsdecode(b"\xff.edges")
    path.write_text("3 2\n0 1\n1 2\n")
    out = tmp_path / "o.csv"
    rc, _, err = run(capsys, "verify", "--edgelist", str(path), "--alphas",
                     "0.5", "--out", str(out))
    assert rc == 2
    assert err == (f"error: graph_id {'edgelist:' + str(path)!r} cannot be "
                   "written as UTF-8: surrogates not allowed\n")
    assert not out.exists()


@pytest.mark.parametrize("encoding, name, shown", [
    ("utf-8", b"\xff.edges", b"\\udcff.edges"),
    ("utf-8:surrogateescape", b"\xff.edges", b"\xff.edges"),
    ("utf-8", "grafo_é.edges".encode(), "grafo_é.edges".encode()),
    ("ascii", "grafo_é.edges".encode(), b"grafo_\\xe9.edges"),
], ids=["surrogate-escaped", "surrogate-raw", "utf-8", "ascii-escaped"])
def test_stdout_escapes_what_it_cannot_encode(tmp_path, encoding, name, shown):
    """A graph id that stdout cannot encode is printed escaped, as stderr
    prints it, after the report is written; one it can encode is printed
    as it is."""
    path = tmp_path / os.fsdecode(name)
    path.write_text("3 2\n0 1\n1 2\n")
    out = tmp_path / "o.json"
    proc = subprocess.run(
        [sys.executable, "-m", "aalpha", "verify", "--edgelist", path,
         "--alphas", "0.5", "--format", "json", "--out", out],
        capture_output=True, timeout=60,
        env=dict(os.environ, PYTHONIOENCODING=encoding))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert [r.graph_id for r in parse_report(out)] == [f"edgelist:{path}"]
    assert proc.stdout.splitlines()[0] == \
        b"graph = edgelist:" + os.fsencode(tmp_path) + b"/" + shown


def test_stdout_without_an_encoding(tmp_path, monkeypatch):
    """A stdout with no encoding, such as io.StringIO, takes every line as
    it is."""
    path = tmp_path / os.fsdecode(b"\xff.edges")
    path.write_text("3 2\n0 1\n1 2\n")
    buf = io.StringIO()
    monkeypatch.setattr(sys, "stdout", buf)
    assert main(["spectral", "--edgelist", str(path), "--alpha", "0.5"]) == 0
    assert buf.getvalue().splitlines()[0] == f"graph = edgelist:{path}"


def test_unwritable_output_exits_two(capsys, tmp_path):
    rc, _, err = run(capsys, "sweep", "--delta-max", "1", "--Delta-max", "1",
                     "--alpha-steps", "1",
                     "--out", str(tmp_path / "no" / "dir" / "x.csv"))
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("eval", "--delta", "2", "--Delta", "3", "--alpha", "1.5"),
    ("classify", "--delta", "2", "--Delta", "3", "--alpha", "1.5"),
    ("spectral", "--gen", "complete:4", "--alpha", "1.5"),
    ("spectral", "--gen", "star:1200", "--alpha", "1.5"),  # above dense limit
    ("verify", "--gen", "star:4", "--alphas", "0.5,1.5", "--out", "{out}"),
], ids=["eval", "classify", "spectral-dense", "spectral-lanczos", "verify"])
def test_alpha_above_one_exits_two_whatever_the_environment(
        capsys, monkeypatch, tmp_path, argv):
    """alpha has one domain, [0, 1], whatever the environment: setting
    AALPHA_PERMISSIVE=1 changes neither the exit code nor the message."""
    argv = [a.format(out=tmp_path / "r.csv") for a in argv]
    monkeypatch.delenv("AALPHA_PERMISSIVE", raising=False)
    unset = run(capsys, *argv)
    monkeypatch.setenv("AALPHA_PERMISSIVE", "1")
    assert run(capsys, *argv) == unset == \
        (2, "", "error: need alpha in [0, 1], got 1.5\n")
    assert not (tmp_path / "r.csv").exists()


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2


def test_mutually_exclusive_sources():
    with pytest.raises(SystemExit) as ei:
        main(["verify", "--gen", "star:4", "--graph6", "x.g6",
              "--alphas", "0.5", "--out", "/tmp/x.csv"])
    assert ei.value.code == 2


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "aalpha", "eval", "--delta", "2",
         "--Delta", "3", "--alpha", "0.5"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "ordering = Greater" in proc.stdout
