"""Closed-form spectral-radius lower bounds and their exact comparison.

Two bounds on lambda1 of the alpha matrix of a graph with maximum degree
Delta and minimum degree delta:

    g(Delta, alpha)        = (alpha*(Delta+1) + sqrt(S)) / 2
    f(delta, Delta, alpha) = (alpha*(Delta+delta)
                              + sqrt(alpha^2*(Delta-delta)^2
                                     + 4*Delta*(1-alpha)^2)) / 2

where S = alpha^2*(Delta+1)^2 + 4*Delta*(1-2*alpha), which is identically
equal to alpha^2*(Delta-1)^2 + 4*Delta*(1-alpha)^2, a sum of squares. So g
is f at delta = 1, and the code evaluates it that way: rounding can never
push the square-root argument negative, and sqrt_arg_identity exposes both
forms for verification.

Which bound wins is decided exactly, by integer and endpoint tests alone
(classify); floating comparison of f and g exists only as a consistency
check on the symbolic answer (compare_numeric).

The formulas and the trichotomy are each written once, as kernels that take
Python scalars or numpy arrays alike; the sweep in aalpha.harness runs the
same kernels over whole grids.
"""

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InputError

DEFAULT_EPSILON = 1e-9


class Ordering(enum.Enum):
    """Relation of f to g at one (delta, Delta, alpha) point."""

    GREATER = "Greater"
    EQUAL = "Equal"
    LESS = "Less"


class Witness(enum.Enum):
    """Which condition of the trichotomy fired. Values are plain ASCII and
    comma-free so they survive CSV untouched."""

    ALPHA_ZERO = "alpha=0"
    ALPHA_ONE = "alpha=1 & Delta>=1"
    DELTA_MIN_ONE = "delta=1"
    INTERIOR_GREATER = "delta>=2 & alpha!=0 & alpha!=1"
    ISOLATED_LESS = "delta=0 & alpha!=0 & alpha!=1"
    EDGELESS_LESS = "Delta=0 & alpha!=0"


# Array kernels and columnar tables store an ordering or a witness as its
# position in these tuples.
ORDERINGS = tuple(Ordering)
WITNESSES = tuple(Witness)


_BOOLS = (bool, np.bool_)


def check_int(name: str, value, low: int = 0) -> int:
    """The one domain check for an integer argument (a degree, count, limit,
    seed or iteration cap): an integer of at least low, named in the error;
    a bool is refused, not read as 0 or 1."""
    try:
        if isinstance(value, _BOOLS):
            raise TypeError("a bool is not an integer")
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise InputError(f"{name} must be >= {low}, got {value}")
    return value


def check_seq(name: str, value) -> list:
    """The items of a sequence argument (alphas, offsets, a campaign's
    values) as a list; a lone number or text is refused, named in the
    error."""
    try:
        if isinstance(value, (str, bytes)):
            raise TypeError("text is not a sequence of values")
        items = iter(value)
    except TypeError:
        raise InputError(f"{name} must be a sequence, got {value!r}") from None
    return list(items)


def check_degrees(delta, Delta) -> tuple[int, int]:
    """Degree arguments: integers with 0 <= delta <= Delta."""
    delta = check_int("delta", delta)
    return delta, check_int("Delta", Delta, delta)


def check_alpha(alpha, *, name: str = "alpha") -> float:
    """The one domain check for alpha, and for any real on alpha's domain
    (name labels the errors): a finite real in [0, 1], where A_alpha is
    defined and the trichotomy proved; a bool or text is refused, not read
    as a number."""
    try:
        if isinstance(alpha, (*_BOOLS, str, bytes)):
            raise TypeError("a bool or text is not a real")
        a = float(alpha)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be a real number, got {alpha!r}") from None
    if not math.isfinite(a):
        raise InputError(f"{name} must be finite, got {a}")
    if not 0.0 <= a <= 1.0:
        raise InputError(f"need {name} in [0, 1], got {a}")
    return a


@dataclass(frozen=True)
class BoundComparison:
    """f and g at one point together with the agreed ordering."""

    f_value: float
    g_value: float
    difference: float
    ordering: Ordering
    witness: Witness


# Kernels. Degrees come as Python ints or float64 arrays (never int64 arrays,
# whose squares can wrap); every step is one IEEE add, multiply or square
# root, so a scalar and an array evaluation give the same bits.

def _sqrt_arg(gap, Delta, alpha):
    # alpha^2*gap^2 + 4*Delta*(1-alpha)^2: a sum of squares, never negative.
    c = 1.0 - alpha
    return alpha * alpha * (gap * gap) + 4.0 * Delta * (c * c)


def _f_kernel(delta, Delta, alpha, xp=math):
    """f at one point (xp=math) or over numpy arrays (xp=numpy)."""
    return 0.5 * (alpha * (Delta + delta)
                  + xp.sqrt(_sqrt_arg(Delta - delta, Delta, alpha)))


def _g_kernel(Delta, alpha, xp=math):
    return _f_kernel(1, Delta, alpha, xp)


def bound_g(Delta: int, alpha: float) -> float:
    """The one-parameter bound g(Delta, alpha); needs Delta >= 0 and alpha
    in [0, 1].

    At delta = 1 it coincides with f bit-for-bit, since both evaluate the
    same sum-of-squares expression.
    """
    _, Delta = check_degrees(0, Delta)
    return _g_kernel(Delta, check_alpha(alpha))


def bound_f(delta: int, Delta: int, alpha: float) -> float:
    """The two-parameter bound f(delta, Delta, alpha); needs
    0 <= delta <= Delta and alpha in [0, 1]."""
    delta, Delta = check_degrees(delta, Delta)
    return _f_kernel(delta, Delta, check_alpha(alpha))


def sqrt_arg_identity(Delta: int, alpha: float) -> tuple[float, float]:
    """Both closed forms of g's square-root argument:

        lhs = alpha^2*(Delta+1)^2 + 4*Delta*(1-2*alpha)
        rhs = alpha^2*(Delta-1)^2 + 4*Delta*(1-alpha)^2

    They are equal as polynomials; rhs is a sum of squares, so it is the
    form safe to put under a square root. Needs Delta >= 0 and alpha in
    [0, 1], the domain of g.
    """
    _, Delta = check_degrees(0, Delta)
    alpha = check_alpha(alpha)
    lhs = alpha * alpha * (Delta + 1) ** 2 + 4.0 * Delta * (1.0 - 2.0 * alpha)
    return lhs, _sqrt_arg(Delta - 1, Delta, alpha)


# The trichotomy as one rule table, read top down: the first test that holds
# gives the ordering and its witness, and _TRICHOTOMY_REST takes what no test
# holds for. Each test is one comparison, so it reads scalars and numpy
# arrays alike. Past the first three rules 0 < alpha < 1 and Delta >= 1, so
# the rest is delta = 0.
_TRICHOTOMY = (
    (lambda delta, Delta, alpha: alpha == 0.0,
     Ordering.EQUAL, Witness.ALPHA_ZERO),
    (lambda delta, Delta, alpha: Delta == 0,
     Ordering.LESS, Witness.EDGELESS_LESS),
    (lambda delta, Delta, alpha: alpha == 1.0,
     Ordering.EQUAL, Witness.ALPHA_ONE),
    (lambda delta, Delta, alpha: delta == 1,
     Ordering.EQUAL, Witness.DELTA_MIN_ONE),
    (lambda delta, Delta, alpha: delta >= 2,
     Ordering.GREATER, Witness.INTERIOR_GREATER),
)
_TRICHOTOMY_REST = (Ordering.LESS, Witness.ISOLATED_LESS)


def _classify_kernel(delta: int, Delta: int,
                     alpha: float) -> tuple[Ordering, Witness]:
    for holds, ordering, witness in _TRICHOTOMY:
        if holds(delta, Delta, alpha):
            return ordering, witness
    return _TRICHOTOMY_REST


def _classify_codes(delta, Delta, alpha) -> tuple[np.ndarray, np.ndarray]:
    """_classify_kernel over numpy arrays: int8 ordering and witness codes
    (positions in ORDERINGS and WITNESSES)."""
    tests = [holds(delta, Delta, alpha) for holds, _, _ in _TRICHOTOMY]
    rest_ordering, rest_witness = _TRICHOTOMY_REST
    ordering = np.select(tests, [ORDERINGS.index(o) for _, o, _ in _TRICHOTOMY],
                         ORDERINGS.index(rest_ordering))
    witness = np.select(tests, [WITNESSES.index(w) for _, _, w in _TRICHOTOMY],
                        WITNESSES.index(rest_witness))
    return ordering.astype(np.int8), witness.astype(np.int8)


def classify(delta: int, Delta: int, alpha: float) -> tuple[Ordering, Witness]:
    """Exact trichotomy for f vs g, decided symbolically (no floating
    comparison of the bound values):

        Equal    iff alpha = 0, or (alpha = 1 and Delta >= 1), or delta = 1
        Greater  iff delta >= 2 and alpha not in {0, 1}
        Less     iff (delta = 0 and alpha not in {0, 1})
                     or (Delta = 0 and alpha != 0)

    The three cases partition 0 <= delta <= Delta, alpha in [0, 1]. alpha
    outside [0, 1] is refused: the trichotomy is only established there.
    """
    delta, Delta = check_degrees(delta, Delta)
    return _classify_kernel(delta, Delta, check_alpha(alpha))


def _numeric_code(diff):
    """Code (position in ORDERINGS) of the ordering read off the sign of
    diff = f - g with a dead zone of DEFAULT_EPSILON, for a scalar or an
    array. ORDERINGS is (GREATER, EQUAL, LESS), so the code is EQUAL's 1,
    less one above the dead zone and plus one below it."""
    return 1 - (diff > DEFAULT_EPSILON) + (diff < -DEFAULT_EPSILON)


def numeric_ordering(f_value: float, g_value: float) -> Ordering:
    """Ordering read off the sign of f - g with a dead zone of DEFAULT_EPSILON."""
    return ORDERINGS[_numeric_code(f_value - g_value)]


def compare_numeric(delta: int, Delta: int, alpha: float) -> BoundComparison:
    """Evaluate f and g and check the numeric sign against classify.

    A disagreement raises ConsistencyError carrying both verdicts; it would
    mean either the formulas or the trichotomy is implemented wrong, so it
    is a test oracle rather than a recoverable condition.
    """
    delta, Delta = check_degrees(delta, Delta)
    alpha = check_alpha(alpha)
    f = _f_kernel(delta, Delta, alpha)
    g = _g_kernel(Delta, alpha)
    symbolic, witness = _classify_kernel(delta, Delta, alpha)
    numeric = numeric_ordering(f, g)
    if numeric is not symbolic:
        raise ConsistencyError(
            f"numeric ordering {numeric.value} contradicts symbolic "
            f"{symbolic.value} at (delta={delta}, Delta={Delta}, "
            f"alpha={alpha})",
            numeric=numeric, symbolic=symbolic, f_value=f, g_value=g)
    return BoundComparison(f, g, f - g, symbolic, witness)
