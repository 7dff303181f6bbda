"""Sparse exact linear combinations and row reduction over the rationals.

Rows are dicts from hashable keys to exact scalars with no zero entries.
A stored scalar is an ``int``, or a ``Fraction`` only when its denominator
is greater than 1 (:func:`exact`), so integral arithmetic never pays for
``Fraction``. :func:`add_scaled` is the one place where such a dict is
updated, :func:`rref` included, and :class:`Combination` wraps one over a
presentation as the common base of states (:class:`zhu_forge.voa.FockVector`)
and enveloping-algebra words (:class:`zhu_forge.modes.UEAExpression`).

For row reduction a caller-supplied key function gives the total order on
columns. The leading entry of a row is its maximal column. Reduced row
echelon form is canonical for the row space, so results do not depend on
generation order. :func:`rref` eliminates over the integers, without a
``Fraction`` until each row is divided by its pivot at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Iterable

Row = dict


def exact(value) -> int | Fraction:
    """``value`` as an ``int`` when integral, else as a ``Fraction``.

    Accepts anything ``Fraction`` accepts (``bool`` becomes ``int``); a
    ``float`` is never returned.
    """
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def add_scaled(
    acc: Row, terms: Iterable[tuple[Hashable, Fraction]], coeff: Fraction | int = 1
) -> None:
    """``acc += coeff * terms`` in place, dropping keys that cancel.

    ``terms`` is any iterable of (key, value) pairs: ``row.items()``, or a
    memoized tuple of pairs. When ``terms`` and ``coeff`` hold ints and
    Fractions, each value written is in :func:`exact`'s form.
    """
    for key, value in terms:
        new = acc.get(key, 0) + value * coeff
        if new:
            if type(new) is Fraction and new.denominator == 1:
                new = new.numerator
            acc[key] = new
        else:
            acc.pop(key, None)


class Combination:
    """Sparse exact linear combination of keys over a presentation.

    ``terms`` holds only nonzero coefficients, each a non-``bool`` ``int``
    or a ``Fraction`` with denominator greater than 1. Subclasses choose
    the keys and their display order (:meth:`sort_key`).
    """

    __slots__ = ("presentation", "terms")

    def __init__(self, presentation, terms: Row | None = None):
        self.presentation = presentation
        self.terms = {k: exact(c) for k, c in terms.items() if c} if terms else {}

    @classmethod
    def _adopt(cls, presentation, terms: Row):
        """Wrap ``terms`` without copying or normalizing it. Only for a dict
        already in :func:`add_scaled`'s form, such as one it has just built
        from the terms of other combinations."""
        self = cls.__new__(cls)
        self.presentation = presentation
        self.terms = terms
        return self

    @classmethod
    def zero(cls, presentation):
        return cls(presentation)

    @staticmethod
    def sort_key(key):
        return key

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.presentation == other.presentation and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.presentation.name, tuple(sorted(self.terms.items()))))

    def _check_same(self, other: "Combination") -> None:
        if self.presentation != other.presentation:
            raise ValueError("operands live over different presentations")

    def _combine(self, other: "Combination", coeff: int):
        self._check_same(other)
        out = dict(self.terms)
        add_scaled(out, other.terms.items(), coeff)
        return self._adopt(self.presentation, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return type(self)(self.presentation, {k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar: Fraction | int):
        if not scalar:
            return type(self)(self.presentation)
        return type(self)(self.presentation, {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def sorted_terms(self) -> list[tuple[Hashable, Fraction]]:
        sort_key = self.sort_key
        return sorted(self.terms.items(), key=lambda kv: sort_key(kv[0]))


def _integral(row: Row) -> Row:
    """A copy of ``row`` times the least common denominator of its entries,
    so that every entry is an ``int``."""
    denominators = [v.denominator for v in row.values() if type(v) is not int]
    if not denominators:
        return dict(row)
    den = lcm(*denominators)
    return {k: v.numerator * (den // v.denominator) for k, v in row.items()}


def rref(
    rows: Iterable[Row], order: Callable, *, rank_cap: int | None = None
) -> tuple[list[Row], dict]:
    """Reduce rows to RREF; returns (rows, pivot key -> row index).

    Each returned row has leading coefficient 1 and its leading key appears
    in no other row; its entries are in :func:`exact`'s form.

    The elimination runs over the integers, and every row is divided by its
    pivot only once, at the end. Each incoming row is scaled by the common
    denominator of its entries. A stored row is an integer row with coprime
    entries and a positive leading entry, its pivot, and the stored rows are
    in full RREF up to those scales: each holds exactly one pivot key, so
    subtracting one stored row never brings back another pivot key. A new
    row is thus cleared of every pivot, unit or not, in one pass of
    :func:`_clear`, which scales the new row only when the pivot does not
    divide its entry, and its leading key is found once. The new pivot is
    then cleared from the stored rows the same way. A row that has been
    updated is divided by the gcd of its entries before it is stored.

    ``rows`` is consumed one row at a time. With ``rank_cap`` set, no further
    row is pulled once that many pivots are stored: the caller guarantees
    that no row holds a key outside them (:func:`kernel_basis`).
    """
    pivot_rows: dict[Hashable, Row] = {}

    for raw in rows:
        row = _integral(raw)
        for key in [k for k in row if k in pivot_rows]:
            row = _clear(row, pivot_rows[key], key)
        if not row:
            continue
        lead = max(row, key=order)
        g = gcd(*row.values())
        if row[lead] < 0:
            g = -g
        if g != 1:
            row = {k: v // g for k, v in row.items()}
        for key, other in pivot_rows.items():
            if lead in other:
                other = _clear(other, row, lead)
                g = gcd(*other.values())
                pivot_rows[key] = {k: v // g for k, v in other.items()} if g != 1 else other
        pivot_rows[lead] = row
        if len(pivot_rows) == rank_cap:
            break
    ordered = sorted(pivot_rows.items(), key=lambda kv: order(kv[0]))
    out_rows = [_divide(row, row[lead]) for lead, row in ordered]
    pivots = {lead: idx for idx, (lead, _) in enumerate(ordered)}
    return out_rows, pivots


def _clear(row: Row, stored: Row, key: Hashable) -> Row:
    """The integer row ``row`` with ``key`` cleared by an integer multiple
    of ``stored``, whose entry at ``key`` is positive. ``row`` is updated in
    place unless that entry does not divide ``row[key]``: then ``row`` is
    first scaled, into a new dict, by the least positive integer that makes
    it divide."""
    value, pivot = row[key], stored[key]
    if value % pivot:
        scale = pivot // gcd(value, pivot)
        row = {k: v * scale for k, v in row.items()}
        value *= scale
    add_scaled(row, stored.items(), -(value // pivot))
    return row


def _divide(row: Row, pivot: int) -> Row:
    """The integer row ``row`` divided by ``pivot > 0``, each entry in
    :func:`exact`'s form."""
    if pivot == 1:
        return row
    return {k: v // pivot if v % pivot == 0 else Fraction(v, pivot) for k, v in row.items()}


def reduce_vector(vec: Row, rows: list[Row], pivots: dict) -> Row:
    """Subtract the projection of ``vec`` onto the RREF rows: one row per pivot of ``vec``."""
    out = dict(vec)
    for key in [k for k in vec if k in pivots]:
        add_scaled(out, rows[pivots[key]].items(), -out[key])
    return out


def kernel_basis(constraints: Iterable[dict[int, Fraction]], ncols: int) -> list[dict[int, Fraction]]:
    """Null-space basis of a constraint matrix on columns ``0..ncols-1``.

    Constraint rows are dicts column -> coefficient. The returned basis is
    in the standard free-column form, one vector per non-pivot column,
    ordered by column index.

    ``constraints`` is read lazily, one row at a time, and no further row is
    pulled once every column is a pivot: the null space is then {0}, which no
    later row can change, and the result is ``[]``. Otherwise every row is
    consumed, and since RREF is canonical for the row space the basis does
    not depend on the order of the rows.
    """
    rows, pivots = rref(constraints, order=lambda c: c, rank_cap=ncols)
    # pivots: column -> row index, with leading = max column of each row.
    pivot_cols = set(pivots)
    basis: list[dict[int, Fraction]] = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec: dict[int, Fraction] = {free: 1}
        for lead, idx in pivots.items():
            coeff = rows[idx].get(free)
            if coeff:
                vec[lead] = -coeff
        basis.append(vec)
    return basis
