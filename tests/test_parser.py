import random
from fractions import Fraction

import pytest

from zhu_forge import (
    FockVector,
    ParseError,
    UEAExpression,
    basis_vectors,
    builtin_presentation,
    format_element,
    format_word,
    parse_element,
    parse_uea,
    word_expression,
)

HEIS = builtin_presentation("heisenberg")
VIR = builtin_presentation("virasoro", Fraction(1, 2))
A = FockVector.from_monomial(HEIS, ((-1, "a"),))


def test_parse_vacuum():
    assert parse_element("vac", HEIS) == FockVector.vacuum(HEIS)


def test_parse_conformal_vector_recipe():
    assert parse_element("1/2 a[-1]a[-1]vac", HEIS) == HEIS.conformal_vector()
    assert parse_element("L[-2]vac", VIR) == VIR.conformal_vector()


def test_parse_sums_signs_and_coefficients():
    got = parse_element("- 2 a[-2]vac + a[-1]vac - 1/3 vac", HEIS)
    expected = (
        -2 * FockVector.from_monomial(HEIS, ((-2, "a"),))
        + A
        - Fraction(1, 3) * FockVector.vacuum(HEIS)
    )
    assert got == expected


def test_parse_normal_orders_mode_sequences():
    # Sequences are operator compositions, not basis labels.
    assert parse_element("a[1]a[-1]vac", HEIS) == FockVector.vacuum(HEIS)
    assert parse_element("a[-1]a[-2]vac", HEIS) == parse_element("a[-2]a[-1]vac", HEIS)
    assert parse_element("a[0]a[-1]vac", HEIS).is_zero


def test_parse_unknown_generator():
    with pytest.raises(ParseError) as err:
        parse_element("a[-1]L[-2]vac", HEIS)
    assert "unknown generator 'L'" in str(err.value)
    assert err.value.position == 5


def test_parse_bounds_the_modes_of_a_term():
    longest = "a[-1]" * 1000 + "vac"
    assert parse_element(longest, HEIS) == FockVector.from_monomial(HEIS, ((-1, "a"),) * 1000)
    with pytest.raises(ParseError, match="at most 1000 modes") as err:
        parse_element("vac + a[-1]" + longest, HEIS)
    assert err.value.position == len("vac + a[-1]") + 5 * 999


def test_over_long_integer_literals_carry_position():
    # Past the interpreter's limit on integer digits (4300 by default).
    digits = "1" * 4400
    for text, column in (
        (f"{digits} vac", 0),
        (f"{digits}/3 vac", 0),
        (f"vac + a[-{digits}]vac", len("vac + a[-")),
    ):
        with pytest.raises(ParseError, match="integer literal too long") as err:
            parse_element(text, HEIS)
        assert err.value.position == column
    with pytest.raises(ParseError, match="integer literal too long") as err:
        parse_uea(f"J[0](vac) + J[{digits}](vac)", HEIS)
    assert err.value.position == len("J[0](vac) + J[")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_element(f"{digits}/0 vac", HEIS)


def test_parse_syntax_errors_carry_position():
    with pytest.raises(ParseError):
        parse_element("a[-1]", HEIS)  # missing vac
    with pytest.raises(ParseError):
        parse_element("vac +", HEIS)
    with pytest.raises(ParseError):
        parse_element("", HEIS)
    with pytest.raises(ParseError):
        parse_element("1/0 vac", HEIS)


def test_element_roundtrip_random_vectors():
    rng = random.Random(77)
    pool = basis_vectors(HEIS, 5)
    for _ in range(40):
        vec = FockVector.zero(HEIS)
        for _ in range(rng.randint(1, 4)):
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            vec = vec + coeff * pool[rng.randrange(len(pool))]
        assert parse_element(format_element(vec), HEIS) == vec


def test_parse_uea_two_factor_word():
    expr = parse_uea("J[0](a[-1]vac)J[0](a[-1]vac)", HEIS)
    assert expr == word_expression(HEIS, [(A, 0), (A, 0)])
    expr2 = parse_uea("J[-2](a[-1]vac)J[2](a[-1]vac)", HEIS)
    ((word, coeff),) = expr2.sorted_terms()
    assert [shift for _, shift in word] == [-2, 2]
    assert coeff == 1


def test_parse_uea_vacuum_mode_collapses():
    assert parse_uea("J[0](vac)", HEIS) == UEAExpression.scalar(HEIS, 1)
    assert parse_uea("J[3](vac)", HEIS).is_zero
    assert parse_uea("2 J[0](vac)J[0](a[-1]vac)", HEIS) == 2 * parse_uea(
        "J[0](a[-1]vac)", HEIS
    )


def test_parse_uea_linear_combinations():
    expr = parse_uea("J[1](a[-1]vac) - 3/2 J[0](a[-2]vac + a[-1]vac)", HEIS)
    # Linear in the argument: the second term splits over monomials.
    assert len(expr.terms) == 3


def test_parse_uea_bare_rational():
    assert parse_uea("5/3", HEIS) == UEAExpression.scalar(HEIS, Fraction(5, 3))


def test_parse_uea_errors():
    with pytest.raises(ParseError, match="unterminated mode argument") as err:
        parse_uea("J[0](a[-1]vac", HEIS)
    assert err.value.position == len("J[0](a[-1]vac")
    # Errors inside an argument carry the column in the whole expression.
    with pytest.raises(ParseError, match="zero denominator") as err:
        parse_uea("J[1](vac) + J[0](1/0 vac)", HEIS)
    assert err.value.position == len("J[1](vac) + J[0](")
    with pytest.raises(ParseError, match="empty element") as err:
        parse_uea("J[0]( )", HEIS)
    assert err.value.position == len("J[0]( ")
    with pytest.raises(ParseError):
        parse_uea("J[x](a[-1]vac)", HEIS)
    with pytest.raises(ParseError) as err:
        parse_uea("J[0](L[-2]vac)", HEIS)
    assert "unknown generator" in str(err.value)


def test_uea_roundtrip_through_format_word():
    expr = word_expression(HEIS, [(A, 1), (A, -3), (A, 2)])
    ((word, _),) = expr.sorted_terms()
    assert parse_uea(format_word(word), HEIS) == expr
