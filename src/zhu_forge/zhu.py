"""Level-n Zhu products, truncated quotient algebras and related subspaces.

For a nonnegative level ``n`` the products are

    circle:  u o_n v = sum_i C(wt(u)+n, i) u_{i-2n-2} v
    star:    u *_n v = sum_{m=0}^{n} sum_i (-1)^m C(m+n, n) C(wt(u)+n, i)
                        u_{i-m-n-1} v

with ``u`` split into homogeneous parts first. For a basis monomial ``u`` of
weight ``a`` each is a sum of modes ``u_k v`` with integer coefficients that
depend only on ``a``, the level and ``k``, so no structure constants are
stored: :func:`circle_product` and :func:`star_product` are one
:func:`voa.mode_sum` each, the star coefficients read from the table
:func:`_star_coefficients`. Products are windowed by weight alone:
:func:`spanning_vectors` keeps a circle product whose top weight fits under
the cutoff, and :func:`star_top_weight` gives a star product's top weight.
Above level 0 the span takes one circle product per unordered pair of
distinct basis monomials: by skew symmetry ``u o_n v + v o_n u`` lies in
the span of the translation rows ``L(-1)u + L(0)u``, which the level
ideal holds besides the circle products; only spans above level 0 append
them, since at level 0 the row of ``u`` is ``u o_0 vac``. The level-0 span
and the span of :func:`c2_dims` are built from the generators alone, one
row ``sum_i c_i g_{i-2-m} v`` per generator ``g``, ``m >= 0`` and basis
state ``v`` (:func:`_generator_rows`); the pivots of the latter are a memo
table. :func:`translation_row` reads a translation row without the
conformal vector: ``L(0)`` is the weight, and ``L(-1)`` moves one mode at a
time by translation covariance (:func:`_translate_mono`, a memo table). A
:class:`ZhuContext` holds the row-reduced span of the spanning vectors whose
components all fit under a weight cutoff. That is an inner approximation of
the ideal's intersection with the weight window: whenever a reduction
returns zero the membership is certain, while a nonzero reduction may still
be in the ideal. Reducing a vector above the cutoff raises instead of
truncating silently. ``voa.clear_caches`` empties every memo.

The subspace of :func:`omega_subspace`, the joint kernel of the modes of
shift above the level, is graded as well and is solved one weight block at
a time. A block's constraint rows are generated as the row reduction reads
them, low-weight states first, and none is built once the block has no
kernel left, which above the level is every Heisenberg block and most
Virasoro blocks. It is returned as a plain list of vectors.
:class:`ZeroModeAction` reads the zero modes on it in its own coordinates:
one row per basis monomial, built once from the mode table by
:meth:`ZeroModeAction._build_row`, and a vector's matrix as the sum of its
terms' rows.

This module computes values only. The checks on them, the ideal containment
between levels and the zero modes on the kernel subspace among them, live in
``suites`` and ``modes``; the only report type here is the
:class:`DimensionTable` of :func:`an_dims` and :func:`c2_dims`.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .combinatorics import binomial
from .linalg import add_scaled, kernel_basis, reduce_vector, rref
from .report import DimensionTable
from .voa import (
    Combo,
    FockVector,
    Monomial,
    Presentation,
    _apply_mono,
    _mode_mono,
    basis_vectors,
    enumerate_basis,
    format_monomial,
    memo,
    mode_action,
    mode_sum,
    monomial_order,
    monomial_weight,
)


class WeightOverflowError(ValueError):
    """A product or reduction left the configured weight window."""


def circle_product(u: FockVector, v: FockVector, level: int) -> FockVector:
    """The level-``level`` circle product, exact: for ``u`` of weight ``a``
    the coefficient of ``u_k v`` is ``C(a+level, k+2*level+2)``, so the
    product is one :func:`voa.mode_sum` over term pairs."""
    if level < 0:
        raise ValueError("level must be nonnegative")

    def expansion(a: int, b: int):
        top = a + level
        return ((i - 2 * level - 2, binomial(top, i)) for i in range(top + 1))

    return FockVector._adopt(u.presentation, mode_sum(u, v, expansion))


def star_product(u: FockVector, v: FockVector, level: int) -> FockVector:
    """The level-``level`` star product, exact: for ``u`` of weight ``a``
    the coefficient of ``u_{a-1-d} v`` is entry ``d`` of
    :func:`_star_coefficients`, so the product is one :func:`voa.mode_sum`."""
    if level < 0:
        raise ValueError("level must be nonnegative")

    def expansion(a: int, b: int):
        return ((a - 1 - d, c) for d, c in enumerate(_star_coefficients(a, level)))

    return FockVector._adopt(u.presentation, mode_sum(u, v, expansion))


@memo
def _star_coefficients(a: int, level: int) -> tuple[int, ...]:
    """Entry ``d`` is the coefficient of ``u_{a-1-d} v`` in ``u *_level v``
    for ``u`` of weight ``a``; that term has weight ``wt(v)+d``. The term
    ``u_{i-m-level-1} v`` of the defining sum has ``i = a+level-d+m``, so
    each ``m`` gives at most one ``i``. The vacuum acts only through
    ``vac_{-1}``, so for ``a = 0`` the table is entry 0 alone, which is 1."""
    if a == 0:
        return (1,)
    top = a + level
    return tuple(
        sum(
            (-1) ** m * binomial(m + level, level) * binomial(top, top - d + m)
            for m in range(level + 1)
        )
        for d in range(a + 2 * level + 1)
    )


def star_top_weight(a: int, b: int, level: int) -> int:
    """Top weight of ``u *_level v`` for nonzero ``u, v`` of top weights
    ``a, b``: ``b`` if ``u`` is a multiple of the vacuum, else that of
    ``(-1)^level C(2 level, level) u_{-1-2 level} v``, which never vanishes
    (in Li's standard filtration both presentations have a polynomial
    associated graded, on which ``L(-1)`` is an injective derivation)."""
    return b + (a + 2 * level if a > 0 else 0)


def basic_circle_product(u: FockVector, v: FockVector) -> FockVector:
    """The classical circle product, written from its own defining sum."""
    u._check_same(v)
    acc: dict[Monomial, Fraction] = {}
    for wu, upart in u.weight_decomposition().items():
        for i in range(wu + 1):
            add_scaled(acc, mode_action(upart, i - 2, v).terms.items(), binomial(wu, i))
    return FockVector(u.presentation, acc)


def basic_star_product(u: FockVector, v: FockVector) -> FockVector:
    """The classical star product, written from its own defining sum."""
    u._check_same(v)
    acc: dict[Monomial, Fraction] = {}
    for wu, upart in u.weight_decomposition().items():
        for i in range(wu + 1):
            add_scaled(acc, mode_action(upart, i - 1, v).terms.items(), binomial(wu, i))
    return FockVector(u.presentation, acc)


def translation_row(presentation: Presentation, u: FockVector) -> FockVector:
    """The spanning vector ``L(-1)u + L(0)u``, read without the conformal
    vector: ``L(0)`` multiplies each basis monomial by its weight, and
    ``L(-1)`` is :func:`_translate_mono` on each monomial. These are the
    identities ``omega_1 = L(0)`` and ``[L(-1), Y(g, z)] = d/dz Y(g, z)``
    that ``suites.axiom_suite`` certifies as ``l0_grading`` and
    ``translation_covariance``."""
    if u.presentation != presentation:
        raise ValueError("vector does not belong to this presentation")
    acc: dict[Monomial, Fraction] = {}
    for mono, coeff in u.terms.items():
        add_scaled(acc, _translate_mono(presentation, mono), coeff)
        add_scaled(acc, ((mono, monomial_weight(mono)),), coeff)
    return FockVector._adopt(presentation, acc)


@memo
def _translate_mono(presentation: Presentation, mono: Monomial) -> Combo:
    """``L(-1)`` on the basis monomial ``mono``, by translation covariance:
    ``[L(-1), g(m)] = -(m+d-1) g(m-1)`` for a generator of weight ``d`` and
    ``L(-1) vac = 0``. The head ``g(m)`` is peeled, so ``L(-1) g(m) rest =
    -(m+d-1) g(m-1) rest + g(m) L(-1) rest``, and both terms are normal
    ordered with ``voa._apply_mono``."""
    if not mono:
        return ()
    (m, gen), rest = mono[0], mono[1:]
    acc: dict[Monomial, Fraction] = {}
    index = m + presentation.generators[gen] - 1  # the ordinary mode index of g(m)
    add_scaled(acc, _apply_mono(presentation, gen, m - 1, rest), -index)
    for mono2, c2 in _translate_mono(presentation, rest):
        add_scaled(acc, _apply_mono(presentation, gen, m, mono2), c2)
    return tuple(acc.items())


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

    def reduce(self, x: FockVector) -> FockVector:
        """Canonical representative of ``x`` modulo the truncated span."""
        if x.presentation != self.presentation:
            raise ValueError("vector belongs to a different presentation")
        for mono in x.terms:
            if monomial_weight(mono) > self.cutoff:
                raise WeightOverflowError(
                    f"component {format_monomial(mono)} has weight "
                    f"{monomial_weight(mono)} > cutoff {self.cutoff}"
                )
        reduced = reduce_vector(x.terms, self._row_terms, self.pivots)
        return FockVector._adopt(self.presentation, reduced)

    @cached_property
    def _row_terms(self) -> list[dict[Monomial, Fraction]]:
        return [row.terms for row in self.rows]

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
    presentation: Presentation, cutoff: int, pivots: Container[Monomial]
) -> DimensionTable:
    """Per-weight counts of the basis monomials that are not pivots."""
    rows = [
        (w, sum(1 for m in monos if m not in pivots))
        for w, monos in enumerate_basis(presentation, cutoff)
    ]
    return DimensionTable(rows)


def _generator_rows(presentation: Presentation, cutoff: int, coefficients) -> list[FockVector]:
    """The nonzero rows ``sum_i c_i g_{i-2-m} v``, ``(c_0, c_1, ...) =
    coefficients(wt(g))``, over generators ``g``, ``m >= 0`` and basis
    monomials ``v`` with top weight ``wt(g) + wt(v) + 1 + m <= cutoff``. For
    ``g`` of weight ``d`` the ordinary index ``k`` is the stored index
    ``k - d + 1`` of ``voa._apply_mono``, which normal orders each term."""
    rows: list[FockVector] = []
    for gen, d in presentation.generators.items():
        coeffs = coefficients(d)
        for wv, monos in enumerate_basis(presentation, cutoff):
            for vmono in monos:
                for m in range(cutoff - d - wv):
                    acc: dict[Monomial, Fraction] = {}
                    for i, c in enumerate(coeffs):
                        add_scaled(acc, _apply_mono(presentation, gen, i - m - d - 1, vmono), c)
                    if acc:
                        rows.append(FockVector._adopt(presentation, acc))
    return rows


def spanning_vectors(presentation: Presentation, level: int, cutoff: int) -> list[FockVector]:
    """Generators of the truncated level ideal that fit under the cutoff.

    At level 0, the rows of :func:`_generator_rows` with ``c_i = C(wt(g),
    i)`` alone: the row at ``m = 0`` is ``g o_0 v``, and each row lies in
    O(V) by Zhu's Lemma 2.1.2 (J. AMS 9, 1996). That they span the
    truncation of the pair loop's span and of the translation rows (the row
    of ``u`` is ``u o_0 vac``) is licensed by the grid test against that
    loop in ``tests/test_zhu.py``, not by the lemma. Above level 0, the
    circle products ``u o_n v`` of basis monomials whose top component, of
    weight ``wt(u)+wt(v)+2*level+1``, fits under the cutoff, one per
    unordered pair of distinct monomials. Skew symmetry, ``Y(u,z)v = e^{zL(-1)}
    Y(v,-z)u``, makes the other order redundant: modulo the translation
    rows, ``L(-1)^k x`` is ``(-1)^k wt(x)(wt(x)+1)...(wt(x)+k-1) x`` for
    homogeneous ``x``, so ``e^{zL(-1)}`` acts as ``(1+z)^{-wt(x)}``, and
    the residue against ``(1+z)^{wt(u)+n} z^{-2n-2}`` gives ``u o_n v =
    -v o_n u`` and ``u o_n u = 0``, using states of weight at most the
    top weight only. Of each pair the left factor is the one first in
    ``(len(m), wt(m), m)``, so ``voa._mode_mono`` peels the shorter
    monomial. The grid test against the ordered pair loop in
    ``tests/test_zhu.py`` licenses that the span is unchanged. Then, above
    level 0 only, the translation rows of the basis vectors of weight below
    the cutoff.
    """
    if level < 0 or cutoff < 0:
        raise ValueError("level and cutoff must be nonnegative")
    if level == 0:
        return _generator_rows(
            presentation, cutoff, lambda d: [binomial(d, i) for i in range(d + 1)]
        )
    bound = cutoff - 2 * level - 1
    basis = enumerate_basis(presentation, max(bound, 0))
    order = sorted((len(m), w, m) for w, monos in basis for m in monos)
    flat = [(w, FockVector.from_monomial(presentation, m)) for _, w, m in order]
    vectors = [
        prod
        for i, (wu, u) in enumerate(flat)
        for wv, v in flat[i + 1 :]
        if wu + wv <= bound and (prod := circle_product(u, v, level))
    ]
    if cutoff >= 1:
        basis = basis_vectors(presentation, cutoff - 1)
        vectors += [row for u in basis if (row := translation_row(presentation, u))]
    return vectors


@memo
def build_zhu_context(presentation: Presentation, level: int, cutoff: int) -> ZhuContext:
    """Collect and row-reduce the truncated level ideal.

    Memoized like normal ordering, so each (presentation, level, cutoff)
    span is built once per process; ``voa.clear_caches`` empties the memo.
    """
    raw = spanning_vectors(presentation, level, cutoff)
    rows, pivots = rref((vec.terms for vec in raw), order=monomial_order)
    if () in pivots:
        raise RuntimeError(
            "the vacuum acquired a pivot: the truncated ideal contains the "
            "identity, which contradicts the quotient having a unit"
        )
    frozen = tuple(FockVector._adopt(presentation, row) for row in rows)
    return ZhuContext(presentation, level, cutoff, frozen, pivots)


def an_dims(presentation: Presentation, level: int, cutoff: int) -> DimensionTable:
    """Non-pivot monomial counts per weight of the level context: an upper
    bound on the graded dimensions of the weight filtration of the quotient."""
    pivots = build_zhu_context(presentation, level, cutoff).pivots
    return _free_monomials(presentation, cutoff, pivots)


def c2_dims(presentation: Presentation, cutoff: int) -> DimensionTable:
    """Graded dimensions of the weight-truncated quotient by span{u_{-2} v}.

    A strongly generated V has C_2(V) spanned by the ``g_{-2-m} v`` (see H.
    Li, Commun. Math. Phys. 259, 2005), a graded span, so the rows of
    :func:`_generator_rows` with ``c_0 = 1`` alone span its truncation; the
    grid test in ``tests/test_zhu.py`` checks it against basis pairs. The
    pivots are memoized (:func:`_c2_pivots`); the table is built afresh on
    each call, since a :class:`DimensionTable` holds a mutable list.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    return _free_monomials(presentation, cutoff, _c2_pivots(presentation, cutoff))


@memo
def _c2_pivots(presentation: Presentation, cutoff: int) -> frozenset[Monomial]:
    """The pivot monomials of the row-reduced truncated C2 span."""
    vectors = _generator_rows(presentation, cutoff, lambda d: (1,))
    _, pivots = rref((vec.terms for vec in vectors), order=monomial_order)
    return frozenset(pivots)


def _kernel_rows(
    presentation: Presentation,
    basis: list[tuple[int, list[Monomial]]],
    level: int,
    weight: int,
    block: list[Monomial],
):
    """The constraint rows of one weight block of :func:`omega_subspace`,
    generated as they are read: for each basis state ``u`` (ascending by
    weight) and shift ``level < k <= weight`` (ascending), one row per output
    monomial of ``J_k(u)`` on the block, over the block's column indices."""
    for wu, umonos in basis:
        for umono in umonos:
            for k in range(level + 1, weight + 1):
                by_output: dict[Monomial, dict[int, Fraction]] = {}
                for col, mono in enumerate(block):
                    for omono, coeff in _mode_mono(presentation, umono, wu - 1 + k, mono):
                        by_output.setdefault(omono, {})[col] = coeff
                yield from by_output.values()


def omega_subspace(presentation: Presentation, level: int, cutoff: int) -> list[FockVector]:
    """Joint kernel of all mode operators of shift above ``level``.

    Inside the window of weight at most ``cutoff``, returns a basis of the
    common kernel of ``J_k(v) = v_{wt(v)-1+k}`` over basis states ``v`` and
    shifts ``level < k <= cutoff``. The quantification is truncated at the
    cutoff. The checks on this subspace (``suites.omega_suite``, and the
    action on it in ``modes.homomorphism_check``) read it through
    :class:`ZeroModeAction`.

    ``J_k`` lowers weight by exactly ``k``, so the kernel is solved one
    weight block at a time, with the shifts ``level < k <= weight``: a
    higher shift sends the block below weight zero. Each block's rows are
    generated lazily (:func:`_kernel_rows`), states ascending by weight and
    then shifts ascending, so the low-weight states, which fill the rank
    first, are read first; :func:`linalg.kernel_basis` stops pulling rows
    once the block has no kernel left. The result does not change: a block
    of full rank has an empty kernel however many rows follow, and any other
    block reads every row. The kernel vectors come out homogeneous and in
    ``monomial_order`` of their free monomials.
    """
    if level < 0 or cutoff < 0:
        raise ValueError("level and cutoff must be nonnegative")
    basis = enumerate_basis(presentation, cutoff)
    vectors: list[FockVector] = []
    for weight, block in basis:
        constraints = _kernel_rows(presentation, basis, level, weight, block)
        for vec in kernel_basis(constraints, len(block)):
            vectors.append(FockVector(presentation, {block[col]: c for col, c in vec.items()}))
    return vectors


# Coordinates ``{k: c}`` in the basis ``x_k`` of :func:`omega_subspace`;
# ``None`` stands for a vector outside its span.
Coordinates = dict[int, Fraction]


class ZeroModeAction:
    """The zero modes ``o(u)`` on the subspace of :func:`omega_subspace`, in
    its own coordinates.

    Dong, Li and Mason (J. Algebra 206, 1998) show that every ``o(u)``
    preserves Ω_n, so ``o(u)`` restricted to it is a matrix ``M(u)``. Each
    basis vector ``x_k`` comes from ``linalg.kernel_basis`` in free-column
    form: its least monomial ``f_k = min(x_k.terms)`` has coefficient 1 in
    ``x_k`` and 0 in every other basis vector. So the ``x_k`` are a reduced
    span with pivots ``f_k``: a vector ``y`` is in it when
    ``linalg.reduce_vector`` leaves nothing, and then its coordinates are
    ``y[f_k]`` (:meth:`coordinates`).

    :meth:`row` holds, per basis monomial ``m``, the pairs ``(k, coords)``
    over the ``x_k`` with ``o(m) x_k != 0``, built once per object by
    :meth:`_build_row` from ``voa._mode_mono``; ``coords`` is ``None`` when
    ``o(m) x_k`` leaves the span. :meth:`matrix` sums the rows of a vector's
    terms into the columns of ``M(u)``, a column being ``None`` when a
    term's image leaves the span.
    """

    def __init__(self, presentation: Presentation, level: int, cutoff: int):
        self.presentation = presentation
        self.vectors = omega_subspace(presentation, level, cutoff)
        self._free = {min(x.terms): k for k, x in enumerate(self.vectors)}
        self._terms = [x.terms for x in self.vectors]
        self._rows: dict[Monomial, tuple[tuple[int, Coordinates | None], ...]] = {}

    def coordinates(self, terms: dict[Monomial, Fraction]) -> Coordinates | None:
        """The coordinates ``{k: c}`` of the vector with ``terms`` in the
        basis ``x_k``, or ``None`` if it is not in their span."""
        free = self._free
        if reduce_vector(terms, self._terms, free):
            return None
        return {free[mono]: c for mono, c in terms.items() if mono in free}

    def row(self, mono: Monomial) -> tuple[tuple[int, Coordinates | None], ...]:
        """The pairs ``(k, coordinates of o(mono) x_k)`` with a nonzero image,
        ascending in ``k``; the zero mode of ``mono`` is ``mono_{wt-1}``."""
        row = self._rows.get(mono)
        if row is None:
            row = self._rows[mono] = self._build_row(mono)
        return row

    def _build_row(self, mono: Monomial) -> tuple[tuple[int, Coordinates | None], ...]:
        presentation, n = self.presentation, monomial_weight(mono) - 1
        entries = []
        for k, x in enumerate(self._terms):
            image: dict[Monomial, Fraction] = {}
            for xmono, c in x.items():
                add_scaled(image, _mode_mono(presentation, mono, n, xmono), c)
            if image:
                entries.append((k, self.coordinates(image)))
        return tuple(entries)

    def matrix(self, u: FockVector) -> list[Coordinates | None]:
        """The columns of ``M(u)``: column ``k`` holds the coordinates of
        ``o(u) x_k``, or is ``None`` if some term's image leaves the span."""
        if u.presentation != self.presentation:
            raise ValueError("vector belongs to a different presentation")
        columns: list[Coordinates | None] = [{} for _ in self.vectors]
        for mono, c in u.terms.items():
            for k, coords in self.row(mono):
                column = columns[k]
                if column is None:
                    continue
                if coords is None:
                    columns[k] = None
                else:
                    add_scaled(column, coords.items(), c)
        return columns

    @staticmethod
    def apply(matrix: list[Coordinates | None], column: Coordinates | None) -> Coordinates | None:
        """``matrix`` times the coordinate column ``column``, or ``None`` if
        ``column`` or a column of ``matrix`` that it needs is ``None``."""
        if column is None:
            return None
        out: Coordinates = {}
        for k, c in column.items():
            if matrix[k] is None:
                return None
            add_scaled(out, matrix[k].items(), c)
        return out
