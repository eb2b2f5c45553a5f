"""Closed-form bounds, the square-root-argument identity, and the exact
trichotomy classifier.

High-precision reference values are recomputed here with mpmath at 50
digits, independently of the float64 implementation under test.
"""

import math

import mpmath
import numpy as np
import pytest

from aalpha import (BoundComparison, ConsistencyError, InputError, Ordering,
                    Witness, bound_f, bound_g, build_alpha_matrix,
                    certify_star_equality, classify, compare_numeric,
                    gen_cycle, numeric_ordering, sqrt_arg_identity,
                    sweep_grid, verify_graph)

mpmath.mp.dps = 50


def mp_f(delta, Delta, alpha):
    a, d, dd = mpmath.mpf(alpha), mpmath.mpf(delta), mpmath.mpf(Delta)
    return (a * (dd + d) + mpmath.sqrt(a ** 2 * (dd - d) ** 2
                                       + 4 * dd * (1 - a) ** 2)) / 2


def mp_g(Delta, alpha):
    return mp_f(1, Delta, alpha)


def test_f_against_mpmath():
    for delta, Delta in [(0, 0), (0, 3), (1, 1), (1, 7), (2, 3), (2, 4),
                         (5, 5), (3, 17), (20, 60)]:
        for alpha in (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.75, 0.99, 1.0):
            want = float(mp_f(delta, Delta, alpha))
            got = bound_f(delta, Delta, alpha)
            assert abs(got - want) <= 4e-16 * max(1.0, want), (delta, Delta, alpha)


def test_g_against_mpmath():
    for Delta in (0, 1, 2, 3, 4, 10, 37, 60):
        for alpha in (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.75, 0.99, 1.0):
            want = float(mp_g(Delta, alpha))
            got = bound_g(Delta, alpha)
            assert abs(got - want) <= 4e-16 * max(1.0, want), (Delta, alpha)


def test_frozen_example_values():
    assert bound_f(2, 3, 0.5) == 2.1513878188659974
    assert bound_f(0, 3, 0.5) == 1.89564392373896
    assert bound_f(2, 4, 0) == 2.0
    assert bound_f(2, 3, 1) == 3.0
    assert bound_g(4, 0) == 2.0
    assert bound_g(3, 1) == 3.0
    assert bound_g(3, 0.5) == 2.0
    assert bound_g(0, 0.5) == 0.5


def test_f_at_delta_one_is_g_bitwise():
    """Same floating expression, so equality is ==, not approx."""
    for Delta in range(1, 61):
        for alpha in np.linspace(0, 1, 23):
            assert bound_f(1, Delta, float(alpha)) == bound_g(Delta, float(alpha))


def test_alpha_endpoint_collapse():
    for delta in range(0, 8):
        for Delta in range(delta, 12):
            assert abs(bound_f(delta, Delta, 0.0) - math.sqrt(Delta)) <= 1e-12
            assert bound_f(delta, Delta, 1.0) == float(Delta)
    for Delta in range(0, 12):
        assert abs(bound_g(Delta, 0.0) - math.sqrt(Delta)) <= 1e-12
        if Delta >= 1:
            assert bound_g(Delta, 1.0) == float(Delta)
    assert bound_g(0, 1.0) == 1.0  # the Delta=0 exception: g = alpha


def test_delta_monotonicity_of_f():
    for Delta in range(1, 30):
        for alpha in np.linspace(0, 1, 11):
            vals = [bound_f(d, Delta, float(alpha)) for d in range(Delta + 1)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_sqrt_arg_identity_examples():
    assert sqrt_arg_identity(3, 0.5) == (4.0, 4.0)
    assert sqrt_arg_identity(0, 1.0) == (1.0, 1.0)
    for Delta in (0, 1, 5, 60):
        lhs, rhs = sqrt_arg_identity(Delta, 0.0)
        assert lhs == 4.0 * Delta and rhs == 4.0 * Delta


def test_sqrt_arg_identity_grid():
    for Delta in range(0, 61):
        for k in range(101):
            lhs, rhs = sqrt_arg_identity(Delta, k / 100)
            assert rhs >= 0.0
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_sqrt_arg_identity_domain():
    # alpha above 1 is in-domain here (only alpha >= 0 is required)
    lhs, rhs = sqrt_arg_identity(3, 2.0)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    with pytest.raises(InputError):
        sqrt_arg_identity(-1, 0.5)
    with pytest.raises(InputError):
        sqrt_arg_identity(3, -0.5)
    with pytest.raises(InputError):
        sqrt_arg_identity(2.5, 0.5)


def test_classify_contract_examples():
    assert classify(2, 3, 0.5) == (Ordering.GREATER, Witness.INTERIOR_GREATER)
    assert classify(1, 5, 0.7) == (Ordering.EQUAL, Witness.DELTA_MIN_ONE)
    assert classify(0, 3, 0.5) == (Ordering.LESS, Witness.ISOLATED_LESS)
    assert classify(0, 0, 1) == (Ordering.LESS, Witness.EDGELESS_LESS)
    assert classify(5, 5, 0) == (Ordering.EQUAL, Witness.ALPHA_ZERO)
    assert classify(3, 3, 1) == (Ordering.EQUAL, Witness.ALPHA_ONE)


def test_classify_partition():
    """Each grid point lands in exactly one branch, and the branch matches
    the defining conditions restated here independently."""
    for delta in range(0, 26):
        for Delta in range(delta, 26):
            for alpha in (0.0, 0.123, 0.5, 0.987, 1.0):
                ordering, witness = classify(delta, Delta, alpha)
                equal = alpha == 0 or (alpha == 1 and Delta >= 1) or delta == 1
                greater = delta >= 2 and alpha not in (0.0, 1.0)
                less = ((delta == 0 and alpha not in (0.0, 1.0))
                        or (Delta == 0 and alpha != 0))
                assert [equal, greater, less].count(True) == 1
                want = (Ordering.EQUAL if equal
                        else Ordering.GREATER if greater else Ordering.LESS)
                assert ordering is want


def test_classify_witness_matches_point():
    checks = {
        Witness.ALPHA_ZERO: lambda d, D, a: a == 0,
        Witness.ALPHA_ONE: lambda d, D, a: a == 1 and D >= 1,
        Witness.DELTA_MIN_ONE: lambda d, D, a: d == 1 and 0 < a < 1,
        Witness.INTERIOR_GREATER: lambda d, D, a: d >= 2 and 0 < a < 1,
        Witness.ISOLATED_LESS: lambda d, D, a: d == 0 and D >= 1 and 0 < a < 1,
        Witness.EDGELESS_LESS: lambda d, D, a: D == 0 and a != 0,
    }
    seen = set()
    for delta in range(0, 9):
        for Delta in range(delta, 9):
            for alpha in (0.0, 0.25, 0.5, 1.0):
                _, witness = classify(delta, Delta, alpha)
                assert checks[witness](delta, Delta, alpha)
                seen.add(witness)
    assert seen == set(Witness)


def test_classify_domain():
    with pytest.raises(InputError):
        classify(3, 2, 0.5)
    with pytest.raises(InputError):
        classify(0, 2, 1.5)  # refused even though bounds allow permissive
    with pytest.raises(InputError):
        classify(0, 2, -0.5)
    with pytest.raises(InputError):
        classify(0.5, 2, 0.5)
    with pytest.raises(InputError):
        classify(0, 2.0, 0.5)
    with pytest.raises(InputError):
        classify(0, 2, float("nan"))


@pytest.mark.parametrize("call", [
    lambda: classify(2, 3, True),
    lambda: classify(True, 3, 0.5),
    lambda: bound_f(True, 3, 0.5),
    lambda: bound_f(2, 3, np.True_),
    lambda: bound_g(True, 0.5),
    lambda: bound_g(3, False),
    lambda: sqrt_arg_identity(np.True_, 0.5),
    lambda: sqrt_arg_identity(3, True),
    lambda: compare_numeric(2, True, 0.5),
    lambda: build_alpha_matrix(gen_cycle(4), True),
    lambda: verify_graph(gen_cycle(4), [0.5, True]),
    lambda: sweep_grid(True, True, True),
    lambda: certify_star_equality(True, True),
], ids=["classify-alpha", "classify-delta", "bound_f-delta", "bound_f-alpha",
        "bound_g-Delta", "bound_g-alpha", "sqrt_arg-Delta", "sqrt_arg-alpha",
        "compare_numeric-Delta", "alpha_matrix-alpha", "verify_graph-alpha",
        "sweep_grid-limits", "certify-limits"])
def test_bool_is_not_a_degree_or_alpha(call):
    """Every entry point shares one domain check (one limit check for the
    campaigns), and it refuses a bool rather than reading it as 0 or 1."""
    with pytest.raises(InputError):
        call()


def test_permissive_bounds():
    want_f = float(mp_f(2, 3, 1.5))
    want_g = float(mp_g(3, 1.5))
    assert abs(bound_f(2, 3, 1.5, permissive=True) - want_f) <= 4e-16 * want_f
    assert abs(bound_g(3, 1.5, permissive=True) - want_g) <= 4e-16 * want_g
    with pytest.raises(InputError):
        bound_f(2, 3, 1.5)
    with pytest.raises(InputError):
        bound_g(3, 1.5)
    with pytest.raises(InputError):
        bound_g(-1, 0.5)


def test_numeric_ordering_thresholds():
    assert numeric_ordering(1.0, 1.0) is Ordering.EQUAL
    assert numeric_ordering(1.0 + 2e-9, 1.0) is Ordering.GREATER
    assert numeric_ordering(1.0 + 5e-10, 1.0) is Ordering.EQUAL
    assert numeric_ordering(1.0 - 2e-9, 1.0) is Ordering.LESS
    assert numeric_ordering(2.0, 1.0, epsilon=5.0) is Ordering.EQUAL


def test_compare_numeric_examples():
    c = compare_numeric(2, 3, 0.5)
    assert isinstance(c, BoundComparison)
    assert c.ordering is Ordering.GREATER
    assert c.f_value == bound_f(2, 3, 0.5) and c.g_value == bound_g(3, 0.5)
    assert c.difference == c.f_value - c.g_value
    assert compare_numeric(0, 3, 0.5).ordering is Ordering.LESS
    c = compare_numeric(1, 7, 0.3)
    assert c.ordering is Ordering.EQUAL
    assert abs(c.difference) <= 1e-12
    with pytest.raises(InputError):
        compare_numeric(1, 7, 0.3, epsilon=0.0)


def test_compare_numeric_agrees_with_classify_on_grid():
    for delta in range(0, 16):
        for Delta in range(delta, 16):
            for alpha in (0.0, 0.2, 0.5, 0.9, 1.0):
                c = compare_numeric(delta, Delta, alpha)
                assert c.ordering is classify(delta, Delta, alpha)[0]


def test_consistency_error_on_forced_mismatch(monkeypatch):
    """The raising path, exercised by lying about the symbolic answer."""
    import aalpha.bounds as bounds_mod

    monkeypatch.setattr(bounds_mod, "_classify_kernel",
                        lambda d, D, a: (Ordering.LESS, Witness.ISOLATED_LESS))
    with pytest.raises(ConsistencyError) as ei:
        bounds_mod.compare_numeric(2, 3, 0.5)
    err = ei.value
    assert err.numeric is Ordering.GREATER
    assert err.symbolic is Ordering.LESS
    assert err.f_value > err.g_value
