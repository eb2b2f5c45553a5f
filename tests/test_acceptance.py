"""Acceptance suite: the eight headline claims, one test per criterion.

Each test prints a single `PASS criterion N` line (visible with -s or in
captured output) after all its assertions hold at the stated tolerance.
Expected counts are recomputed from first principles inside the tests
before being compared against the frozen values.
"""

import math
import time

import pytest

from aalpha import (GRAPH6_MAX_N, Ordering, bound_f, bound_g,
                    build_alpha_matrix, certify_star_equality, emit_graph6,
                    emit_report, gen_circulant, gen_complete, gen_cycle,
                    gen_random, gen_star, parse_graph6, parse_report,
                    random_campaign, spectral_radius, spectral_radius_jacobi,
                    spectral_radius_power, sqrt_arg_identity, summarize_sweep,
                    sweep_grid, verification_violations)
from aalpha.cli import main

GRID_DELTA_MAX = 60
GRID_ALPHA_STEPS = 100


def test_criterion_1_trichotomy_sweep(capsys):
    """Zero symbolic/numeric disagreements on the 1891 x 101 grid, under 1 s,
    with the Equal count matching an independent recount."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        records = sweep_grid(GRID_DELTA_MAX, GRID_DELTA_MAX, GRID_ALPHA_STEPS)
        best = min(best, time.perf_counter() - t0)
    s = summarize_sweep(records)

    pairs = sum(GRID_DELTA_MAX - d + 1 for d in range(GRID_DELTA_MAX + 1))
    assert pairs == 1891
    assert s.total == pairs * (GRID_ALPHA_STEPS + 1)
    assert s.inconsistent == 0
    assert best < 1.0, f"sweep took {best:.3f}s"

    # Equal count three ways: combinatorial formula, symbolic tally above,
    # and a brute numeric tally that never consults the classifier.
    # alpha=0 covers every pair; alpha=1 covers every pair but (0,0);
    # delta=1 covers 60 pairs at the 99 interior alphas.
    formula = pairs + (pairs - 1) + GRID_DELTA_MAX * (GRID_ALPHA_STEPS - 1)
    numeric_equal = sum(r.numeric_ordering is Ordering.EQUAL for r in records)
    assert formula == 9721
    assert s.equal == formula
    assert numeric_equal == formula

    # and the CLI front end agrees
    rc = main(["sweep", "--delta-max", "60", "--Delta-max", "60",
               "--alpha-steps", "100", "--out", "/dev/null"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "inconsistent = 0" in out
    assert f"points = {s.total}" in out
    print(f"PASS criterion 1: {s.total} grid points, 0 inconsistent, "
          f"{s.equal} Equal, {best:.3f}s")


def test_criterion_2_sqrt_identity_grid():
    """Both closed forms of g's root argument agree to 1e-10 relative and
    the sum-of-squares form is nonnegative across the whole grid."""
    checked = 0
    for Delta in range(GRID_DELTA_MAX + 1):
        for k in range(GRID_ALPHA_STEPS + 1):
            lhs, rhs = sqrt_arg_identity(Delta, k / GRID_ALPHA_STEPS)
            assert rhs >= 0.0, (Delta, k)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), (Delta, k)
            checked += 1
    print(f"PASS criterion 2: identity holds at {checked} points")


def test_criterion_3_endpoint_algebra():
    """f and g collapse to sqrt(Delta) at alpha=0 and to Delta at alpha=1
    (Delta >= 1), and f(1, ., .) = g everywhere, all within 1e-12."""
    checked = 0
    for Delta in range(GRID_DELTA_MAX + 1):
        root = math.sqrt(Delta)
        assert abs(bound_g(Delta, 0.0) - root) <= 1e-12
        if Delta >= 1:
            assert abs(bound_g(Delta, 1.0) - Delta) <= 1e-12
        for delta in range(Delta + 1):
            assert abs(bound_f(delta, Delta, 0.0) - root) <= 1e-12
            assert abs(bound_f(delta, Delta, 1.0) - Delta) <= 1e-12
            checked += 2
    for Delta in range(1, GRID_DELTA_MAX + 1):
        for k in range(GRID_ALPHA_STEPS + 1):
            alpha = k / GRID_ALPHA_STEPS
            assert abs(bound_f(1, Delta, alpha) - bound_g(Delta, alpha)) <= 1e-12
            checked += 1
    print(f"PASS criterion 3: endpoint algebra holds, {checked} checks")


def test_criterion_4_bound_validity_campaign():
    """Randomized falsification attempt: >= 200 graphs, 5 alphas each, no
    violation of lambda1 >= f - 1e-8, nor of the g bound where it applies."""
    records = random_campaign()  # defaults: n 2..12, 3 p's, 3 seeds, iso 0..2
    graphs = {r.graph_id for r in records}
    assert len(graphs) >= 200
    assert {r.alpha for r in records} == {0.0, 0.25, 0.5, 0.75, 1.0}
    assert any(r.delta == 0 for r in records)  # isolated vertices present
    bad = verification_violations(records)
    assert bad == [], bad[:5]
    print(f"PASS criterion 4: {len(graphs)} graphs, {len(records)} records, "
          f"0 violations")


def test_criterion_5_star_certification():
    """Stars meet g within 1e-8 for Delta up to 20 across 101 alphas; the
    fixed non-star set beats g by more than 1e-6 at four alphas."""
    cert = certify_star_equality(20, GRID_ALPHA_STEPS)
    assert cert.passed, cert.failures[:5]
    assert cert.equality_checks == 20 * (GRID_ALPHA_STEPS + 1)
    assert cert.max_equality_gap <= 1e-8
    assert cert.strictness_checks == 20
    assert cert.min_strictness_margin > 1e-6
    print(f"PASS criterion 5: {cert.equality_checks} star checks "
          f"(max gap {cert.max_equality_gap:.2e}), {cert.strictness_checks} "
          f"strictness checks (min margin {cert.min_strictness_margin:.2e})")


def test_criterion_6_eigensolver_cross_validation():
    """Jacobi and power agree to 1e-7 on 100+ random graphs x 5 alphas;
    regular graphs give lambda1 = r to 1e-10; alpha = 1 gives Delta exactly."""
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    graphs = [gen_random(n, p, seed)
              for n in range(2, 13) for p in (0.2, 0.5, 0.8) for seed in (0,)]
    graphs += [gen_random(n, 0.5, seed) for n in (4, 6, 8, 10, 12, 3, 5, 7,
                                                  9, 11) for seed in (1, 2, 3,
                                                                      4, 5, 6,
                                                                      7)]
    assert len(graphs) >= 100
    pairs_checked = 0
    for g in graphs:
        for alpha in alphas:
            am = build_alpha_matrix(g, alpha)
            lj = spectral_radius_jacobi(am).lambda1
            lp = spectral_radius_power(am).lambda1
            assert abs(lj - lp) <= 1e-7, (g, alpha)
            pairs_checked += 1

    regulars = [(gen_cycle(n), 2) for n in (3, 4, 5, 8)]
    regulars += [(gen_complete(n), n - 1) for n in (2, 4, 6)]
    regulars += [(gen_circulant(10, [1, 2]), 4), (gen_circulant(12, [1, 6]), 3)]
    for g, r in regulars:
        for alpha in alphas:
            am = build_alpha_matrix(g, alpha)
            assert abs(spectral_radius(am).lambda1 - r) <= 1e-10, (g, alpha)

    for g in (gen_star(8), gen_random(9, 0.5, 2), gen_cycle(6)):
        Delta = max(g.degrees.tolist())
        assert spectral_radius(build_alpha_matrix(g, 1.0)).lambda1 == float(Delta)
    print(f"PASS criterion 6: {len(graphs)} graphs cross-validated "
          f"({pairs_checked} solver pairs), regular and alpha=1 exactness hold")


def test_criterion_7_delta_zero_reversal(capsys):
    """The delta = 0 direction flips: eval reports f < g at (0, 3, 0.5) and
    f > g at (2, 3, 0.5), with the frozen arithmetic values."""
    rc = main(["eval", "--delta", "0", "--Delta", "3", "--alpha", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    got = dict(line.split(" = ", 1) for line in out.splitlines())
    assert got["ordering"] == "Less"
    assert abs(float(got["f"]) - 1.89564392373896) <= 1e-12
    assert float(got["g"]) == 2.0

    rc = main(["eval", "--delta", "2", "--Delta", "3", "--alpha", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    got = dict(line.split(" = ", 1) for line in out.splitlines())
    assert got["ordering"] == "Greater"
    assert abs(float(got["f"]) - 2.1513878188659974) <= 1e-12
    assert float(got["g"]) == 2.0
    print("PASS criterion 7: eval shows Less at (0,3,0.5) and "
          "Greater at (2,3,0.5)")


def test_criterion_8_format_round_trips(tmp_path):
    """graph6 parse/emit identity on 100 random graphs, and report files
    reproduce every value bit-for-bit in both formats."""
    count = 0
    for seed in range(100):
        n = 1 + (seed * 7) % GRAPH6_MAX_N  # spread over 1..62
        g = gen_random(n, (seed % 9 + 1) / 10, seed)
        assert parse_graph6(emit_graph6(g)) == g
        count += 1

    sweep_records = sweep_grid(4, 9, 13)  # 1/13 steps: full-mantissa reals
    verif_records = random_campaign(n_values=(5, 9), p_values=(0.4,),
                                    seeds=(0, 1), isolated_counts=(0, 1),
                                    alpha_list=(0.0, 1 / 3, 1.0))
    for fmt in ("csv", "json"):
        sp = tmp_path / f"s.{fmt}"
        vp = tmp_path / f"v.{fmt}"
        emit_report(sweep_records, fmt, sp)
        emit_report(verif_records, fmt, vp)
        assert parse_report(sp) == sweep_records
        assert parse_report(vp) == verif_records
    print(f"PASS criterion 8: {count} graph6 round-trips, "
          f"{len(sweep_records)}+{len(verif_records)} records through "
          f"csv and json unchanged")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
