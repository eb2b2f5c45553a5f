"""Closed-form bounds, the square-root-argument identity, and the exact
trichotomy classifier.

High-precision reference values are recomputed here with mpmath at 50
digits, independently of the float64 implementation under test.
"""

import math

import mpmath
import numpy as np
import pytest

from aalpha import (AlphaMatrix, BoundComparison, ConsistencyError, Graph,
                    InputError, Ordering, Witness, add_isolated, alpha_stack,
                    bound_f, bound_g, build_alpha_matrix,
                    certify_star_equality, classify, compare_numeric,
                    gen_circulant, gen_complete, gen_cycle, gen_random,
                    gen_star, numeric_ordering, random_campaign,
                    sqrt_arg_identity, sweep_grid, verify_graph)

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
    # alpha above 1 is refused here too: g's domain is alpha in [0, 1]
    with pytest.raises(InputError, match=r"need alpha in \[0, 1\], got 2.0"):
        sqrt_arg_identity(3, 2.0)
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
        classify(0, 2, 1.5)  # refused, like alpha > 1 everywhere
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
    lambda: gen_star(2.5),
    lambda: gen_cycle(3.5),
    lambda: gen_complete(2.0),
    lambda: gen_circulant(5.0, [1]),
    lambda: gen_random(2.5, 0.5, 0),
    lambda: gen_random(5, True, 0),
    lambda: add_isolated(gen_cycle(4), True),
], ids=["classify-alpha", "classify-delta", "bound_f-delta", "bound_f-alpha",
        "bound_g-Delta", "bound_g-alpha", "sqrt_arg-Delta", "sqrt_arg-alpha",
        "compare_numeric-Delta", "alpha_matrix-alpha", "verify_graph-alpha",
        "sweep_grid-limits", "certify-limits", "gen_star-n", "gen_cycle-n",
        "gen_complete-n", "gen_circulant-n", "gen_random-n", "gen_random-p",
        "add_isolated-k"])
def test_bool_is_not_a_degree_or_alpha(call):
    """Every entry point shares one domain check for integers and one for
    alpha, and both refuse a bool rather than reading it as 0 or 1."""
    with pytest.raises(InputError):
        call()


# Every public integer parameter, keyed "entry-name" with the name as the
# error spells it: (a call with the value in its place, a valid value, the
# least valid value).
INT_PARAMS = {
    "delta": (lambda v: bound_f(v, 3, 0.5), 2, 0),
    "Delta": (lambda v: bound_f(2, v, 0.5), 3, 2),
    "sweep-delta_max": (lambda v: sweep_grid(v, 3, 4), 1, 0),
    "sweep-Delta_max": (lambda v: sweep_grid(1, v, 4), 3, 1),
    "sweep-alpha_steps": (lambda v: sweep_grid(1, 3, v), 4, 1),
    "certify-Delta_max": (lambda v: certify_star_equality(v, 4), 3, 1),
    "certify-alpha_steps": (lambda v: certify_star_equality(3, v), 4, 1),
    "Graph-n": (lambda v: Graph(v, ((0, 1),)), 3, 0),
    "gen_star-n": (gen_star, 5, 2),
    "gen_complete-n": (gen_complete, 4, 1),
    "gen_cycle-n": (gen_cycle, 5, 3),
    "gen_circulant-n": (lambda v: gen_circulant(v, [1, 2]), 6, 0),
    "gen_circulant-offset": (lambda v: gen_circulant(6, [1, v]), 2, 1),
    "gen_random-n": (lambda v: gen_random(v, 0.5, 3), 9, 0),
    "gen_random-seed": (lambda v: gen_random(9, 0.5, v), 3, 0),
    "add_isolated-k": (lambda v: add_isolated(gen_cycle(4), v), 2, 0),
}


@pytest.mark.parametrize("bad", [True, np.True_, 2.5, None, "3", "low - 1"],
                         ids=["True", "np.True_", "2.5", "None", "text",
                              "low-1"])
@pytest.mark.parametrize("param", INT_PARAMS)
def test_integer_parameters_share_one_check(param, bad):
    """A bool, a float, None, text or a value below the least valid one is
    refused with an InputError that names the argument."""
    call, _, low = INT_PARAMS[param]
    with pytest.raises(InputError) as ei:
        call(low - 1 if bad == "low - 1" else bad)
    assert str(ei.value).startswith(param.rsplit("-", 1)[-1] + " must be")


@pytest.mark.parametrize("param", INT_PARAMS)
def test_integer_parameters_read_numpy_integers(param):
    call, ok, _ = INT_PARAMS[param]
    assert call(np.int64(ok)) == call(ok)


# Every public sequence parameter, keyed "entry-name": a call with the value
# in its place.
SEQ_PARAMS = {
    "verify_graph-alpha_list": lambda v: verify_graph(gen_cycle(4), v),
    "alpha_stack-alphas": lambda v: alpha_stack(gen_cycle(4), v),
    "gen_circulant-offsets": lambda v: gen_circulant(6, v),
    "random_campaign-n_values": lambda v: random_campaign(n_values=v),
    "random_campaign-p_values": lambda v: random_campaign(p_values=v),
    "random_campaign-seeds": lambda v: random_campaign(seeds=v),
    "random_campaign-isolated_counts":
        lambda v: random_campaign(isolated_counts=v),
    "random_campaign-alpha_list": lambda v: random_campaign(alpha_list=v),
}


@pytest.mark.parametrize("bad", [1, 0.5, "1"], ids=["int", "float", "text"])
@pytest.mark.parametrize("param", SEQ_PARAMS)
def test_sequence_parameters_refuse_a_scalar(param, bad):
    """A lone number or text where a sequence belongs is refused with an
    InputError that names the argument."""
    with pytest.raises(InputError) as ei:
        SEQ_PARAMS[param](bad)
    assert str(ei.value).startswith(param.rsplit("-", 1)[-1] + " must be")


@pytest.mark.parametrize("call", [
    lambda: gen_random(5, None, 0),
    lambda: gen_random(5, "0.5", 0),
    lambda: classify(2, 3, "0.5"),
    lambda: verify_graph(gen_cycle(4), [0.5, "0.5"]),
], ids=["p-None", "p-text", "alpha-text", "verify_graph-alpha-text"])
def test_none_or_text_is_not_a_real(call):
    with pytest.raises(InputError):
        call()


# Every entry point that takes alpha, as a call on that alpha.
ALPHA_ENTRY_POINTS = {
    "bound_f": lambda a: bound_f(2, 3, a),
    "bound_g": lambda a: bound_g(3, a),
    "sqrt_arg_identity": lambda a: sqrt_arg_identity(3, a),
    "classify": lambda a: classify(2, 3, a),
    "compare_numeric": lambda a: compare_numeric(2, 3, a),
    "build_alpha_matrix": lambda a: build_alpha_matrix(gen_cycle(4), a),
    "AlphaMatrix": lambda a: AlphaMatrix(gen_cycle(4), a),
    "alpha_stack": lambda a: alpha_stack(gen_cycle(4), [0.5, a]),
    "verify_graph": lambda a: verify_graph(gen_cycle(4), [0.5, a]),
}


@pytest.mark.parametrize("call, message", [
    *[pytest.param(lambda entry=entry, a=a: entry(a),
                   f"need alpha in [0, 1], got {a}", id=f"{name}-{a}")
      for name, entry in ALPHA_ENTRY_POINTS.items()
      for a in (1.5, 1.0000001)],
    pytest.param(lambda: bound_g(-1, 0.5), "Delta must be >= 0, got -1",
                 id="bound_g-Delta"),
])
def test_alpha_above_one_is_refused_everywhere(call, message):
    """[0, 1] is the only alpha domain: every entry point refuses an alpha
    above 1 with the one message of check_alpha, an AlphaMatrix built
    directly included, so no matrix with negative entries can be made."""
    with pytest.raises(InputError) as ei:
        call()
    assert str(ei.value) == message


def test_numeric_ordering_thresholds():
    assert numeric_ordering(1.0, 1.0) is Ordering.EQUAL
    assert numeric_ordering(1.0 + 2e-9, 1.0) is Ordering.GREATER
    assert numeric_ordering(1.0 + 5e-10, 1.0) is Ordering.EQUAL
    assert numeric_ordering(1.0 - 2e-9, 1.0) is Ordering.LESS


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
