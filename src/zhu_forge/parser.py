"""Text grammars for elements and mode expressions.

Element grammar::

    element  := ['-'] term (('+'|'-') term)*
    term     := [rational] modeseq 'vac'
    modeseq  := (gen '[' int ']')*
    rational := int ['/' int]

Generators come from the configured presentation. A mode sequence is read as
operator composition, so non-canonical or annihilating sequences are legal
and get normal ordered, e.g. ``a[1]a[-1]vac`` parses to ``vac``.

Mode-expression grammar::

    uexpr := ['-'] uterm (('+'|'-') uterm)*
    uterm := rational | [rational] ('J[' int ']' '(' element ')')+

Modes of the vacuum collapse on construction, so ``J[0](vac)`` is the
scalar word.

A term applies at most :data:`MAX_TERM_MODES` modes: building a state costs
time quadratic in its number of modes and normal ordering recurses once per
mode, so a longer product is rejected before any of it is evaluated.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .combinatorics import parse_rational
from .linalg import add_scaled
from .modes import UEAExpression, word_expression
from .voa import FockVector, Presentation, apply_generator_mode

__all__ = ["ParseError", "parse_element", "parse_uea"]


MAX_TERM_MODES = 1000


class ParseError(ValueError):
    """Syntax or semantic error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\s*/\s*\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<lbrack>\[) | (?P<rbrack>\])
  | (?P<lparen>\() | (?P<rparen>\))
  | (?P<plus>\+) | (?P<minus>-)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Cursor:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        token = self.peek()
        if token[0] != kind:
            raise ParseError(f"expected {what}", token[2])
        return self.advance()


def _parse_signed_int(cursor: _Cursor) -> int:
    sign = 1
    token = cursor.peek()
    if token[0] == "minus":
        cursor.advance()
        sign = -1
    elif token[0] == "plus":
        cursor.advance()
    token = cursor.expect("number", "an integer")
    if "/" in token[1]:
        raise ParseError("expected an integer, not a fraction", token[2])
    try:
        return sign * int(token[1])
    except ValueError:  # past the interpreter's limit on integer digits
        raise ParseError("integer literal too long", token[2]) from None


def _maybe_rational(cursor: _Cursor) -> Fraction | None:
    token = cursor.peek()
    if token[0] != "number":
        return None
    cursor.advance()
    try:
        return parse_rational(token[1])
    except ValueError as exc:  # parse_rational reads the denominator first
        zero = str(exc).startswith("zero denominator")
        message = "zero denominator" if zero else "integer literal too long"
        raise ParseError(message, token[2]) from None


def _parse_term(cursor: _Cursor, presentation: Presentation) -> FockVector:
    coeff = _maybe_rational(cursor)
    modes: list[tuple[str, int]] = []
    while True:
        kind, value, pos = cursor.peek()
        if kind == "name" and value == "vac":
            cursor.advance()
            break
        if kind == "name":
            if value not in presentation.generators:
                raise ParseError(
                    f"unknown generator {value!r} for presentation {presentation.name}", pos
                )
            if len(modes) == MAX_TERM_MODES:
                raise ParseError(f"a term may apply at most {MAX_TERM_MODES} modes", pos)
            cursor.advance()
            cursor.expect("lbrack", "'['")
            index = _parse_signed_int(cursor)
            cursor.expect("rbrack", "']'")
            modes.append((value, index))
            continue
        raise ParseError("expected a generator mode or 'vac'", pos)
    vector = FockVector.vacuum(presentation)
    for gen, index in reversed(modes):
        vector = apply_generator_mode(presentation, gen, index, vector)
        if vector.is_zero:
            break
    if coeff is not None:
        vector = coeff * vector
    return vector


def _parse_sum(cursor: _Cursor, presentation: Presentation, parse_term, cls, what: str, stop="end"):
    """``['-'] term (('+'|'-') term)*`` up to and including the token
    ``stop``, summed into one ``cls`` instance."""
    if cursor.peek()[0] == stop:
        raise ParseError(f"empty {what}", cursor.peek()[2])
    sign = 1
    if cursor.peek()[0] == "minus":
        cursor.advance()
        sign = -1
    total: dict = {}
    while True:
        add_scaled(total, parse_term(cursor, presentation).terms.items(), sign)
        kind, _, pos = cursor.advance()
        if kind == stop:
            return cls(presentation, total)
        if kind == "end":  # only a mode argument stops elsewhere
            raise ParseError("unterminated mode argument", pos)
        if kind not in ("plus", "minus"):
            raise ParseError("expected '+' or '-'", pos)
        sign = 1 if kind == "plus" else -1


def parse_element(text: str, presentation: Presentation) -> FockVector:
    """Parse an element literal into a canonical vector.

    >>> P = __import__("zhu_forge").builtin_presentation("heisenberg")
    >>> parse_element("1/2 a[-1]a[-1]vac", P) == P.conformal_vector()
    True
    """
    return _parse_sum(_Cursor(text), presentation, _parse_term, FockVector, "element")


def _parse_uterm(cursor: _Cursor, presentation: Presentation) -> UEAExpression:
    coeff = _maybe_rational(cursor)
    factors: list[tuple[FockVector, int]] = []
    while True:
        kind, value, pos = cursor.peek()
        if kind == "name" and value == "J":
            cursor.advance()
            cursor.expect("lbrack", "'['")
            shift = _parse_signed_int(cursor)
            cursor.expect("rbrack", "']'")
            cursor.expect("lparen", "'('")
            argument = _parse_sum(
                cursor, presentation, _parse_term, FockVector, "element", "rparen"
            )
            factors.append((argument, shift))
            continue
        break
    if not factors:
        if coeff is None:
            raise ParseError("expected a rational or a mode factor", cursor.peek()[2])
        return UEAExpression.scalar(presentation, coeff)
    expression = word_expression(presentation, factors)
    if coeff is not None:
        expression = coeff * expression
    return expression


def parse_uea(text: str, presentation: Presentation) -> UEAExpression:
    """Parse a mode-expression literal, vacuum modes collapsed."""
    return _parse_sum(_Cursor(text), presentation, _parse_uterm, UEAExpression, "expression")
