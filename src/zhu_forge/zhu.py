"""Level-n Zhu products, truncated quotient algebras and related subspaces.

For a nonnegative level ``n`` the products are

    circle:  u o_n v = sum_i C(wt(u)+n, i) u_{i-2n-2} v
    star:    u *_n v = sum_{m=0}^{n} sum_i (-1)^m C(m+n, n) C(wt(u)+n, i)
                        u_{i-m-n-1} v

with ``u`` split into homogeneous parts first. Both are bilinear; the star
product is evaluated through its structure constants on pairs of basis
monomials, memoized per process like normal ordering and the mode action
(``voa.clear_caches`` empties every memo). The level ideal is spanned by
all circle products together with ``L(-1)u + L(0)u``; a :class:`ZhuContext`
holds the row-reduced span of the spanning vectors whose components all fit
under a weight cutoff. That is an inner approximation of the ideal's
intersection with the weight window: whenever a reduction returns zero the
membership is certain, while a nonzero reduction may still be in the ideal.
Reducing a vector above the cutoff raises instead of truncating silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import binomial
from .linalg import add_scaled, kernel_basis, reduce_vector, rref
from .report import CheckRecord, DimensionTable, ReportDocument
from .voa import (
    Combo,
    FockVector,
    Monomial,
    Presentation,
    basis_vectors,
    enumerate_basis,
    format_element,
    format_monomial,
    memo,
    mode_action,
    monomial_order,
    monomial_weight,
)


class WeightOverflowError(ValueError):
    """A product or reduction left the configured weight window."""


def circle_product(u: FockVector, v: FockVector, level: int) -> FockVector:
    """The level-``level`` circle product, bilinear, exact."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    u._check_same(v)
    acc: dict[Monomial, Fraction] = {}
    for wu, upart in u.weight_decomposition().items():
        top = wu + level
        for i in range(top + 1):
            c = binomial(top, i)
            if c:
                add_scaled(acc, mode_action(upart, i - 2 * level - 2, v).terms.items(), c)
    return FockVector(u.presentation, acc)


def star_product(u: FockVector, v: FockVector, level: int) -> FockVector:
    """The level-``level`` star product, exact: the bilinear extension of its
    structure constants on basis monomials, which are memoized."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    u._check_same(v)
    presentation = u.presentation
    acc: dict[Monomial, Fraction] = {}
    for umono, ucoeff in u.terms.items():
        for vmono, vcoeff in v.terms.items():
            add_scaled(acc, _star_mono(presentation, umono, vmono, level), ucoeff * vcoeff)
    return FockVector(presentation, acc)


@memo
def _star_mono(
    presentation: Presentation, umono: Monomial, vmono: Monomial, level: int
) -> Combo:
    """``u *_level v`` for two basis monomials, from the defining sum.

    A monomial is homogeneous, so no weight split is needed. The result is
    frozen as sorted (monomial, coefficient) pairs; ``voa.clear_caches``
    empties the memo.
    """
    u = FockVector.from_monomial(presentation, umono)
    v = FockVector.from_monomial(presentation, vmono)
    top = monomial_weight(umono) + level
    acc: dict[Monomial, Fraction] = {}
    for m in range(level + 1):
        outer = binomial(m + level, level)
        if m % 2:
            outer = -outer
        for i in range(top + 1):
            term = mode_action(u, i - m - level - 1, v)
            add_scaled(acc, term.terms.items(), outer * binomial(top, i))
    return tuple(sorted(acc.items()))


def basic_circle_product(u: FockVector, v: FockVector) -> FockVector:
    """The classical circle product, written from its own defining sum."""
    u._check_same(v)
    acc: dict[Monomial, Fraction] = {}
    for wu, upart in u.weight_decomposition().items():
        for i in range(wu + 1):
            c = binomial(wu, i)
            if c:
                add_scaled(acc, mode_action(upart, i - 2, v).terms.items(), c)
    return FockVector(u.presentation, acc)


def basic_star_product(u: FockVector, v: FockVector) -> FockVector:
    """The classical star product, written from its own defining sum."""
    u._check_same(v)
    acc: dict[Monomial, Fraction] = {}
    for wu, upart in u.weight_decomposition().items():
        for i in range(wu + 1):
            c = binomial(wu, i)
            if c:
                add_scaled(acc, mode_action(upart, i - 1, v).terms.items(), c)
    return FockVector(u.presentation, acc)


def translation_row(presentation: Presentation, u: FockVector) -> FockVector:
    """The spanning vector ``L(-1)u + L(0)u``."""
    omega = presentation.conformal_vector()
    return mode_action(omega, 0, u) + mode_action(omega, 1, u)


@dataclass(frozen=True)
class ZhuContext:
    """Row-reduced truncated span of the level ideal, with reduction data."""

    presentation: Presentation
    level: int
    cutoff: int
    rows: tuple[FockVector, ...]
    pivots: dict[Monomial, int]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def check_weight(self, x: FockVector) -> None:
        for mono in x.terms:
            if monomial_weight(mono) > self.cutoff:
                raise WeightOverflowError(
                    f"component {format_monomial(mono)} has weight "
                    f"{monomial_weight(mono)} > cutoff {self.cutoff}"
                )

    def reduce(self, x: FockVector) -> FockVector:
        """Canonical representative of ``x`` modulo the truncated span."""
        if x.presentation != self.presentation:
            raise ValueError("vector belongs to a different presentation")
        self.check_weight(x)
        reduced = reduce_vector(x.terms, [row.terms for row in self.rows], self.pivots)
        return FockVector(self.presentation, reduced)

    def dimension_table(self) -> DimensionTable:
        """Non-pivot monomial counts per weight: an upper bound on the graded
        dimensions of the weight filtration of the quotient."""
        return _free_monomials(
            self.presentation, self.cutoff, self.pivots, f"quotient_level_{self.level}"
        )

    def spanning_dump(self) -> dict:
        """JSON-ready matrix dump of the reduced span, for external checks."""
        return {
            "presentation": self.presentation.name,
            "level": self.level,
            "cutoff": self.cutoff,
            "rows": [
                {format_monomial(m): str(c) for m, c in row.sorted_terms()}
                for row in self.rows
            ],
        }


def _free_monomials(
    presentation: Presentation, cutoff: int, pivots: dict, kind: str
) -> DimensionTable:
    """Per-weight counts of the basis monomials that are not pivots."""
    rows = [
        (w, sum(1 for m in monos if m not in pivots))
        for w, monos in enumerate_basis(presentation, cutoff)
    ]
    return DimensionTable(kind=kind, rows=rows)


def spanning_vectors(presentation: Presentation, level: int, cutoff: int) -> list[FockVector]:
    """Generators of the truncated level ideal that fit under the cutoff.

    Circle products of basis pairs are kept when every output component has
    weight at most the cutoff (the top component sits at
    ``wt(u)+wt(v)+2*level+1``), plus the translation rows for basis vectors
    of weight below the cutoff.
    """
    vectors: list[FockVector] = []
    pairs_bound = cutoff - 2 * level - 1
    flat = basis_vectors(presentation, max(pairs_bound, 0))
    for u in flat:
        for v in flat:
            if u.max_weight() + v.max_weight() + 2 * level + 1 <= cutoff:
                prod = circle_product(u, v, level)
                if prod:
                    vectors.append(prod)
    if cutoff >= 1:
        for u in basis_vectors(presentation, cutoff - 1):
            row = translation_row(presentation, u)
            if row:
                vectors.append(row)
    return vectors


@memo
def build_zhu_context(presentation: Presentation, level: int, cutoff: int) -> ZhuContext:
    """Collect and row-reduce the truncated level ideal.

    Memoized like normal ordering, so each (presentation, level, cutoff)
    span is built once per process; ``voa.clear_caches`` empties the memo.
    """
    if level < 0 or cutoff < 0:
        raise ValueError("level and cutoff must be nonnegative")
    raw = spanning_vectors(presentation, level, cutoff)
    rows, pivots = rref((vec.terms for vec in raw), order=monomial_order)
    if () in pivots:
        raise RuntimeError(
            "the vacuum acquired a pivot: the truncated ideal contains the "
            "identity, which contradicts the quotient having a unit"
        )
    frozen = tuple(FockVector(presentation, row) for row in rows)
    return ZhuContext(presentation, level, cutoff, frozen, pivots)


def an_dims(presentation: Presentation, level: int, cutoff: int) -> DimensionTable:
    return build_zhu_context(presentation, level, cutoff).dimension_table()


def c2_dims(presentation: Presentation, cutoff: int) -> DimensionTable:
    """Graded dimensions of the weight-truncated quotient by span{u_{-2} v}."""
    flat = basis_vectors(presentation, max(cutoff - 1, 0))
    vectors = []
    for u in flat:
        for v in flat:
            if u.max_weight() + v.max_weight() + 1 <= cutoff:
                prod = mode_action(u, -2, v)
                if prod:
                    vectors.append(prod.terms)
    _, pivots = rref(vectors, order=monomial_order)
    return _free_monomials(presentation, cutoff, pivots, "c2_quotient")


def inverse_system_check(presentation: Presentation, level: int, cutoff: int) -> ReportDocument:
    """Truncated containment of the level ideal in the one below it.

    Every spanning vector of the level-``level`` context must reduce to zero
    in the level-``level-1`` context at the same cutoff.
    """
    if level < 1:
        raise ValueError("needs level >= 1")
    upper = build_zhu_context(presentation, level, cutoff)
    lower = build_zhu_context(presentation, level - 1, cutoff)
    failures = []
    for row in upper.rows:
        residue = lower.reduce(row)
        if residue:
            failures.append(
                {"vector": format_element(row), "residue": format_element(residue)}
            )
    params = {"level": level, "cutoff": cutoff}
    doc = ReportDocument.for_suite("inverse_system", presentation, **params)
    doc.add(CheckRecord.from_failures("ideal_containment", params, failures))
    return doc


def omega_subspace(
    presentation: Presentation, level: int, cutoff: int
) -> tuple[list[FockVector], ReportDocument]:
    """Joint kernel of all mode operators of shift above ``level``.

    Inside the window of weight at most ``cutoff``, computes the common
    kernel of ``J_k(v) = v_{wt(v)-1+k}`` over basis states ``v`` and shifts
    ``level < k <= cutoff``; checks the zero-shift modes preserve it and
    whether it equals the sum of the weight spaces up to ``level``. The
    quantification is truncated at the cutoff, which the report records.
    """
    flat_monos = [mono for _, monos in enumerate_basis(presentation, cutoff) for mono in monos]
    index = {mono: i for i, mono in enumerate(flat_monos)}
    states = basis_vectors(presentation, cutoff)

    constraints: list[dict[int, Fraction]] = []
    for v in states:
        wv = v.max_weight()
        for k in range(level + 1, cutoff + 1):
            n = wv - 1 + k
            # One constraint row per output monomial.
            by_output: dict[int, dict[int, Fraction]] = {}
            for mono in flat_monos:
                out = mode_action(v, n, FockVector.from_monomial(presentation, mono))
                for omono, coeff in out.terms.items():
                    by_output.setdefault(index[omono], {})[index[mono]] = coeff
            constraints.extend(by_output.values())

    kernel = kernel_basis(constraints, len(flat_monos))
    vectors = [
        FockVector(presentation, {flat_monos[i]: c for i, c in vec.items()})
        for vec in kernel
    ]
    vectors.sort(key=lambda v: min(monomial_order(m) for m in v.terms))

    # The kernel must be preserved by every zero-shift mode o(v) = v_{wt(v)-1};
    # the first vector that leaves it is the witness.
    kernel_rows, kernel_pivots = rref((v.terms for v in vectors), order=monomial_order)
    failures = []
    for v in states:
        n = v.max_weight() - 1
        for x in vectors:
            image = mode_action(v, n, x)
            if reduce_vector(image.terms, kernel_rows, kernel_pivots):
                failures.append({"v": format_element(v), "x": format_element(x)})
                break
        if failures:
            break

    expected_monos = {
        mono for w, monos in enumerate_basis(presentation, min(level, cutoff)) for mono in monos
    }
    got_monos = set()
    for v in vectors:
        got_monos.update(v.terms)
    equals_low_weights = (
        len(vectors) == len(expected_monos)
        and all(mono in expected_monos for mono in got_monos)
    )

    doc = ReportDocument.for_suite(
        "omega",
        presentation,
        level=level,
        cutoff=cutoff,
        quantification=f"basis states and shifts truncated at weight {cutoff}",
    )
    doc.add(
        CheckRecord(
            name="kernel_dimension",
            params={"level": level, "cutoff": cutoff},
            status="pass",
            witness={"dimension": len(vectors)},
        )
    )
    doc.add(
        CheckRecord.from_failures(
            "zero_modes_preserve_subspace", {"level": level, "cutoff": cutoff}, failures
        )
    )
    # Informational: equality with the low-weight sum is expected for simple
    # modules only, so a mismatch is reported, not failed.
    doc.add(
        CheckRecord(
            name="low_weight_comparison",
            params={"level": level, "cutoff": cutoff},
            status="pass",
            witness={
                "equals_low_weight_sum": equals_low_weights,
                "dimension": len(vectors),
                "low_weight_dimension": len(expected_monos),
            },
        )
    )
    return vectors, doc
