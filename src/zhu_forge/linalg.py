"""Sparse exact linear combinations and row reduction over the rationals.

Rows are dicts from hashable keys to Fractions with no zero entries;
:func:`add_scaled` is the one place where such a dict is updated, and
:class:`Combination` wraps one over a presentation as the common base of
states (:class:`zhu_forge.voa.FockVector`) and enveloping-algebra words
(:class:`zhu_forge.modes.UEAExpression`).

For row reduction a caller-supplied key function gives the total order on
columns. The leading entry of a row is its maximal column. Reduced row
echelon form is canonical for the row space, so results do not depend on
generation order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable

Row = dict


def add_scaled(
    acc: Row, terms: Iterable[tuple[Hashable, Fraction]], coeff: Fraction | int = 1
) -> None:
    """``acc += coeff * terms`` in place, dropping keys that cancel.

    ``terms`` is any iterable of (key, value) pairs: ``row.items()``, or a
    memoized tuple of pairs.
    """
    for key, value in terms:
        new = acc.get(key, 0) + value * coeff
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)


class Combination:
    """Sparse exact linear combination of keys over a presentation.

    ``terms`` holds only nonzero Fraction coefficients. Subclasses choose
    the keys and their display order (:meth:`sort_key`).
    """

    __slots__ = ("presentation", "terms")

    def __init__(self, presentation, terms: Row | None = None):
        self.presentation = presentation
        self.terms = (
            {k: c if isinstance(c, Fraction) else Fraction(c) for k, c in terms.items() if c}
            if terms
            else {}
        )

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
        return type(self)(self.presentation, out)

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


def rref(rows: Iterable[Row], order: Callable) -> tuple[list[Row], dict]:
    """Reduce rows to RREF; returns (rows, pivot key -> row index).

    Each returned row has leading coefficient 1 and its leading key appears
    in no other row.
    """
    pivot_rows: dict[Hashable, Row] = {}

    for raw in rows:
        row = dict(raw)
        while row:
            lead = max(row, key=order)
            existing = pivot_rows.get(lead)
            if existing is None:
                break
            add_scaled(row, existing.items(), -row[lead])
        if not row:
            continue
        # Clear every stored pivot from the non-leading positions too, so
        # each kept row contains exactly one pivot key (full RREF).
        for key in [k for k in row if k in pivot_rows and k != lead]:
            coeff = row.get(key)
            if coeff:
                add_scaled(row, pivot_rows[key].items(), -coeff)
        inv = 1 / Fraction(row[lead])
        row = {k: v * inv for k, v in row.items()}
        for other in pivot_rows.values():
            coeff = other.get(lead)
            if coeff:
                add_scaled(other, row.items(), -coeff)
        pivot_rows[lead] = row
    ordered = sorted(pivot_rows.items(), key=lambda kv: order(kv[0]))
    out_rows = [row for _, row in ordered]
    pivots = {lead: idx for idx, (lead, _) in enumerate(ordered)}
    return out_rows, pivots


def reduce_vector(vec: Row, rows: list[Row], pivots: dict) -> Row:
    """Subtract the projection of ``vec`` onto the RREF row space."""
    out = dict(vec)
    for lead, idx in pivots.items():
        coeff = out.get(lead)
        if coeff:
            add_scaled(out, rows[idx].items(), -coeff)
    return out


def kernel_basis(constraints: Iterable[dict[int, Fraction]], ncols: int) -> list[dict[int, Fraction]]:
    """Null-space basis of a constraint matrix on columns ``0..ncols-1``.

    Constraint rows are dicts column -> coefficient. The returned basis is
    in the standard free-column form, one vector per non-pivot column,
    ordered by column index.
    """
    rows, pivots = rref(constraints, order=lambda c: c)
    # pivots: column -> row index, with leading = max column of each row.
    pivot_cols = set(pivots)
    basis: list[dict[int, Fraction]] = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec: dict[int, Fraction] = {free: Fraction(1)}
        for lead, idx in pivots.items():
            coeff = rows[idx].get(free)
            if coeff:
                vec[lead] = -coeff
        basis.append(vec)
    return basis
