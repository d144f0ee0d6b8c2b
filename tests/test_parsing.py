"""Expression grammar, and Poly2.__repr__ read back by the parser."""

import signal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germindex import ParseError, Poly2
from germindex.parsing import MAX_NESTING, parse_expression

X = Poly2.variable(1)
Y = Poly2.variable(2)


def test_remark42_first_coordinate():
    assert parse_expression("-2*z1 - z1^2 - z2") == X * -2 - X**2 - Y


def test_zero():
    assert parse_expression("0").is_zero()


def test_rational_literals():
    p = parse_expression("1/2*z1 + 3/4")
    assert p[(1, 0)] == Fraction(1, 2)
    assert p[(0, 0)] == Fraction(3, 4)


def test_parentheses_and_unary():
    assert parse_expression("z1*(z1^2 + z2)") == X * (X**2 + Y)
    assert parse_expression("-(z1 - z2)") == Y - X


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_expression("z1 + * z2")
    assert err.value.position == 5


@pytest.mark.parametrize("text, message, position", [
    ("z1 $ z2", "unexpected character", 3),
    ("(z1 + z2", "expected ')'", 8),
    ("z1^z2", "exponent must be a nonnegative integer", 3),
    ("1/z1", "'/' is only allowed between integer literals", 2),
    ("1/0", "zero denominator", 2),
], ids=["character", "unclosed", "exponent", "division", "zero_denominator"])
def test_each_refusal_names_its_cause_and_position(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert message in str(err.value)
    assert err.value.position == position


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_expression("z1 + w")


def test_division_restricted_to_literals():
    with pytest.raises(ParseError):
        parse_expression("z1/2")


def test_exponent_bound():
    with pytest.raises(ParseError):
        parse_expression("z1^1000")


def test_nested_powers_are_refused_before_expansion():
    # expanding either would take tens of seconds; the degree bound is
    # checked before the operator runs, at the operator's position
    def too_slow(signum, frame):
        raise TimeoutError("parsing took over a second")

    previous = signal.signal(signal.SIGALRM, too_slow)
    try:
        for text, caret in (("((1+z1+z2)^32)^8", 14), ("(((1+z1+z2)^8)^8)^8", 17)):
            signal.alarm(1)
            with pytest.raises(ParseError) as err:
                parse_expression(text)
            signal.alarm(0)
            assert err.value.position == caret
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_degree_bound_admits_degree_128():
    assert parse_expression("(1 + z1*z2)^64").total_degree() == 128
    assert parse_expression("z1^100 * z2^28") == X**100 * Y**28
    with pytest.raises(ParseError) as err:
        parse_expression("z1^100 * z2^29")
    assert err.value.position == 7


def test_coefficient_height_is_bounded_before_expansion():
    # (3^128)^128 would have about 26000 bits; the height bound is checked
    # at its caret, before the power runs
    def too_slow(signum, frame):
        raise TimeoutError("parsing took over a second")

    previous = signal.signal(signal.SIGALRM, too_slow)
    try:
        signal.alarm(1)
        with pytest.raises(ParseError) as err:
            parse_expression("((3^128)^128)^128")
        signal.alarm(0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert err.value.position == 8
    assert parse_expression("3^128") == Poly2.constant(3**128)
    assert parse_expression("(1/3)^128") == Poly2.constant(Fraction(1, 3**128))
    # a constant's power is limited by its height alone, not its exponent
    assert parse_expression("2^200") == Poly2.constant(2**200)


def test_nesting_is_bounded_before_the_recursion_limit():
    # each level of parentheses costs several frames of the recursive
    # descent, so 200 levels would pass Python's recursion limit: the first
    # "(" past MAX_NESTING is refused at its position
    deep = MAX_NESTING * "(" + "z1" + MAX_NESTING * ")"
    assert parse_expression(deep) == X
    for depth in (MAX_NESTING + 1, 200, 5000):
        with pytest.raises(ParseError) as err:
            parse_expression(depth * "(" + "z1" + depth * ")")
        assert err.value.position == MAX_NESTING
    # a chain of signs is read in a loop, not one call deep per sign
    assert parse_expression(5001 * "-" + "z1") == -X
    assert parse_expression("- + -z1^2") == X**2


coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(
    lambda c: c != 0)

# the zero polynomial, constants, and polynomials with fractional
# coefficients of either sign, so the leading term is often negative
written_polys = st.one_of(
    st.just(Poly2.zero()),
    coefficients.map(Poly2.constant),
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    coefficients, min_size=1, max_size=6).map(Poly2),
)


@given(written_polys)
@example(parse_expression("-2*z1 - z1^2 - z2"))
@example(parse_expression("z1 + z1*(z1^2 + z2)"))
@example(parse_expression("1/2 - 7*z1^3*z2^2 + z2"))
@example(parse_expression("0"))
@example(parse_expression("3"))
@settings(max_examples=200)
def test_roundtrip_is_fixed_point(p):
    printed = repr(p)
    again = parse_expression(printed)
    assert again == p
    assert repr(again) == printed


def test_repr_writes_the_scenario_syntax():
    assert repr(parse_expression("z1 + z2")) == "z2 + z1"
    assert repr(parse_expression("z2^2 - z1^3")) == "-z1^3 + z2^2"
    assert repr(parse_expression("-z1*z2 + 1/2 - 3/4*z2")) == "-z1*z2 - 3/4*z2 + 1/2"
    assert repr(parse_expression("-1")) == "-1"
