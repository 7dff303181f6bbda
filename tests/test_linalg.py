from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from zhu_forge import (
    basis_vectors,
    build_zhu_context,
    builtin_presentation,
    circle_product,
    mode_action,
    star_product,
    voa,
)
from zhu_forge.linalg import Combination, add_scaled, kernel_basis, reduce_vector, rref
from zhu_forge.modes import UEAExpression
from zhu_forge.voa import FockVector, _mode_mono, monomial_order
from zhu_forge.zhu import ZeroModeAction, spanning_vectors


def F(x):
    return Fraction(x)


def test_rref_simple():
    rows, pivots = rref(
        [{0: F(2), 1: F(4)}, {0: F(1), 1: F(2)}, {1: F(1), 2: F(1)}],
        order=lambda k: k,
    )
    assert len(rows) == 2
    # Leading entries are 1 and appear in no other row.
    for lead, idx in pivots.items():
        assert rows[idx][lead] == 1
        for j, row in enumerate(rows):
            if j != idx:
                assert lead not in row


def test_rref_is_canonical_under_permutation():
    data = [
        {0: F(1), 2: F(3)},
        {1: F(2), 2: F(1)},
        {0: F(2), 1: F(2), 2: F(7)},
    ]
    a = rref(data, order=lambda k: k)
    b = rref(list(reversed(data)), order=lambda k: k)
    assert a[0] == b[0] and a[1] == b[1]


def test_reduce_vector_idempotent_and_linear():
    rows, pivots = rref(
        [{0: F(1), 1: F(1)}, {2: F(1), 3: F(-1)}],
        order=lambda k: k,
    )
    vec = {0: F(3), 1: F(5), 3: F(2)}
    reduced = reduce_vector(vec, rows, pivots)
    again = reduce_vector(reduced, rows, pivots)
    assert reduced == again
    for row in rows:
        assert not reduce_vector(row, rows, pivots)


def test_full_reduction_of_members():
    # A member of the span must reduce to zero even when the generating rows
    # interleave pivot columns.
    g1 = {0: F(1), 1: F(1)}
    g2 = {1: F(1), 2: F(1)}
    g3 = {0: F(1), 2: F(-1)}  # = g1 - g2
    rows, pivots = rref([g1, g2], order=lambda k: k)
    assert not reduce_vector(g3, rows, pivots)


def test_kernel_basis():
    # x0 + x1 = 0 and x1 - x2 = 0: kernel is spanned by (1, -1, -1).
    kernel = kernel_basis([{0: F(1), 1: F(1)}, {1: F(1), 2: F(-1)}], 3)
    assert len(kernel) == 1
    vec = kernel[0]
    scale = vec[0]
    normalized = {k: v / scale for k, v in vec.items()}
    assert normalized == {0: F(1), 1: F(-1), 2: F(-1)}


def test_kernel_of_full_rank_map_is_trivial():
    kernel = kernel_basis([{0: F(1)}, {1: F(2)}, {2: F(-3)}], 3)
    assert kernel == []


def test_kernel_basis_stops_pulling_rows_at_full_rank():
    def constraints():
        yield {0: F(1), 1: F(2)}
        yield {0: F(2), 1: F(4)}  # dependent: no new pivot
        yield {1: F(1), 2: F(-1)}
        yield {2: F(3)}  # every column is now a pivot
        raise AssertionError("a row was pulled after the rank was full")

    assert kernel_basis(constraints(), 3) == []


# ---------------------------------------------------------------------------
# Independent oracles: a naive dict-of-Fraction sum for the sparse core, and
# sympy's exact rational RREF for the row reduction.
# ---------------------------------------------------------------------------

HEIS = builtin_presentation("heisenberg")
VIR = builtin_presentation("virasoro", Fraction(1, 2))
scalars = st.fractions(min_value=-3, max_value=3, max_denominator=4)
sparse = st.dictionaries(st.integers(0, 6), scalars | st.integers(-3, 3), max_size=6)
classes = st.sampled_from([Combination, FockVector, UEAExpression])


def naive_sum(*scaled):
    """Sum of coeff * terms over (coeff, terms) pairs, zeros removed."""
    out = {}
    for coeff, terms in scaled:
        for key, value in terms.items():
            out[key] = out.get(key, Fraction(0)) + Fraction(coeff) * value
    return {key: value for key, value in out.items() if value != 0}


def assert_exact(values):
    """Every value is a nonzero non-bool int or a Fraction with denominator > 1."""
    for v in values:
        assert (type(v) is int and v != 0) or (type(v) is Fraction and v.denominator > 1), v


def integer_first(terms):
    """``terms`` with each integral Fraction replaced by its int numerator."""
    return {k: v.numerator if v.denominator == 1 else v for k, v in terms.items()}


@settings(max_examples=200, deadline=None)
@given(sparse, sparse, scalars | st.integers(-3, 3))
def test_add_scaled_matches_naive_sum(a, b, coeff):
    acc = integer_first(naive_sum((1, a)))
    add_scaled(acc, b.items(), coeff)
    assert acc == naive_sum((1, a), (coeff, b))
    assert_exact(acc.values())


@settings(max_examples=200, deadline=None)
@given(classes, sparse, sparse, scalars | st.integers(-3, 3))
def test_combination_arithmetic_matches_naive_sum(cls, a, b, scalar):
    x, y = cls(HEIS, a), cls(HEIS, b)
    assert x.terms == naive_sum((1, a))
    assert (x + y).terms == naive_sum((1, a), (1, b))
    assert (x - y).terms == naive_sum((1, a), (-1, b))
    assert (-x).terms == naive_sum((-1, a))
    assert (scalar * x).terms == (x * scalar).terms == naive_sum((scalar, a))
    for result in (x, x + y, x - y, -x, scalar * x):
        assert type(result) is cls
        assert_exact(result.terms.values())
    assert (x - x).is_zero and x + y == y + x


def test_combination_stores_int_unless_denominator_exceeds_one():
    x = FockVector(HEIS, {(): 2, ((-1, "a"),): 0})
    assert x.terms == {(): 2} and type(x.terms[()]) is int
    assert type(FockVector(HEIS, {(): Fraction(4, 2)}).terms[()]) is int
    assert type(FockVector(HEIS, {(): True}).terms[()]) is int
    for value in (Fraction(1, 2), 0.5):
        stored = FockVector(HEIS, {(): value}).terms[()]
        assert type(stored) is Fraction and stored == Fraction(1, 2)


def test_products_and_reductions_stay_integer_first():
    # The mode-action table, the products built on it, the zero-mode
    # matrices on Omega_2 and the row reduction keep every coefficient in
    # integer-first form; Heisenberg needs no Fraction.
    voa.clear_caches()
    for presentation in (HEIS, VIR):
        basis = basis_vectors(presentation, 4)
        coefficients = []
        for u in basis:
            for v in basis:
                (umono,), (vmono,) = u.terms, v.terms
                combos = [_mode_mono(presentation, umono, n, vmono) for n in range(-2, 5)]
                products = [circle_product(u, v, 1), star_product(u, v, 1)]
                products += [mode_action(u, n, v) for n in range(-2, 5)]
                coefficients += [c for combo in combos for _, c in combo]
                coefficients += [c for x in products for c in x.terms.values()]
        action = ZeroModeAction(presentation, 2, 4)
        coefficients += [c for u in basis for col in action.matrix(u) for c in col.values()]
        assert_exact(coefficients)
        if presentation is HEIS:
            assert all(type(c) is int for c in coefficients)
    voa.clear_caches()
    for row in build_zhu_context(HEIS, 1, 5).rows:
        assert all(type(c) is int for c in row.terms.values())
    spanning = [v.terms for v in spanning_vectors(VIR, 1, 5)]
    rows, _ = rref(spanning, order=monomial_order)
    columns = {m: j for j, m in enumerate(sorted({m for row in spanning for m in row}))}
    kernel = kernel_basis(
        [{columns[m]: c for m, c in row.items()} for row in spanning], len(columns)
    )
    assert rows and kernel
    for vec in rows + kernel:
        assert_exact(vec.values())


def to_rows(matrix):
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def dense(row, ncols):
    return [row.get(j, 0) for j in range(ncols)]


def to_sympy(matrix, ncols):
    return sympy.Matrix(len(matrix), ncols, sum(matrix, []))


# Up to ten rows on at most five columns, so that dependent rows and the
# clearing of stored rows are exercised; entries are small fractions or
# integers up to 10**6.
entries = st.fractions(min_value=-2, max_value=2, max_denominator=3) | st.integers(
    -(10**6), 10**6
)
matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols),
        min_size=0,
        max_size=10,
    ).map(lambda rows: (rows, ncols))
)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rref_matches_sympy(data):
    matrix, ncols = data
    # Ordering columns by -c makes the leading entry the leftmost one,
    # sympy's convention, so the two canonical forms must coincide.
    rows, pivots = rref(to_rows(matrix), order=lambda c: -c)
    ours = sorted(tuple(dense(row, ncols)) for row in rows)
    expected_rref, expected_pivots = to_sympy(matrix, ncols).rref()
    theirs = sorted(
        tuple(Fraction(int(v.p), int(v.q)) for v in expected_rref.row(i))
        for i in range(len(expected_pivots))
    )
    assert ours == theirs
    assert sorted(pivots) == sorted(expected_pivots)
    assert_exact(v for row in rows for v in row.values())


@settings(max_examples=60, deadline=None)
@given(matrices, st.data())
def test_reduce_vector_matches_sympy(data, draw):
    matrix, ncols = data
    vec = draw.draw(st.lists(scalars, min_size=ncols, max_size=ncols))
    rows, pivots = rref(to_rows(matrix), order=lambda c: c)
    reduced = reduce_vector(to_rows([vec])[0], rows, pivots)
    # The representative vanishes on every pivot column and differs from
    # the input by a member of the row space; together these pin it down.
    assert not set(reduced) & set(pivots)
    difference = [a - b for a, b in zip(vec, dense(reduced, ncols))]
    span = to_sympy(matrix, ncols)
    assert span.col_join(sympy.Matrix([difference])).rank() == span.rank()


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_basis_matches_sympy(data):
    matrix, ncols = data
    kernel = kernel_basis(to_rows(matrix), ncols)
    assert_exact(v for vec in kernel for v in vec.values())
    constraints = to_sympy(matrix, ncols)
    expected = constraints.nullspace()
    assert len(kernel) == len(expected)
    if not kernel:
        return
    ours = sympy.Matrix([dense(vec, ncols) for vec in kernel])
    assert all(v == 0 for v in constraints * ours.T)
    both = ours.col_join(sympy.Matrix.hstack(*expected).T)
    assert ours.rank() == both.rank() == len(kernel)


def sympy_kernel_basis(matrix, ncols):
    """``kernel_basis``'s free-column form from sympy. With the columns
    reversed, sympy's leftmost pivot is the maximal column, so its null-space
    basis, one vector per free column, is ours read back to front."""
    flipped = to_sympy(matrix, ncols)[:, ::-1]
    basis = [
        {ncols - 1 - j: Fraction(int(v.p), int(v.q)) for j, v in enumerate(vec) if v}
        for vec in flipped.nullspace()
    ]
    return basis[::-1]


@settings(max_examples=60, deadline=None)
@given(matrices, st.data())
def test_kernel_basis_ignores_redundant_rows(data, draw):
    matrix, ncols = data
    # Redundant rows: rational combinations of the drawn rows, duplicates
    # included, appended or interleaved in any order.
    combos = draw.draw(
        st.lists(st.lists(scalars, min_size=len(matrix), max_size=len(matrix)), max_size=4)
    )
    redundant = [
        [sum((c * row[j] for c, row in zip(coeffs, matrix)), Fraction(0)) for j in range(ncols)]
        for coeffs in combos
    ]
    mixed = draw.draw(st.permutations(matrix + redundant))
    expected = kernel_basis(to_rows(matrix), ncols)
    assert kernel_basis(iter(to_rows(mixed)), ncols) == expected
    assert expected == sympy_kernel_basis(matrix, ncols)


def fraction_rref(rows, order):
    """Reference RREF over ``Fraction``: each new row is cleared of the
    stored pivots, normalized to a leading 1, and then cleared from the
    stored rows, so every later elimination carries the fractions."""

    def subtract(acc, row, coeff):
        for key, value in row.items():
            new = acc.get(key, 0) - coeff * value
            if new:
                acc[key] = new
            else:
                acc.pop(key, None)

    pivot_rows = {}
    for raw in rows:
        row = {k: Fraction(v) for k, v in raw.items() if v}
        for key in [k for k in row if k in pivot_rows]:
            subtract(row, pivot_rows[key], row[key])
        if not row:
            continue
        lead = max(row, key=order)
        row = {k: v / row[lead] for k, v in row.items()}
        for other in pivot_rows.values():
            if lead in other:
                subtract(other, row, other[lead])
        pivot_rows[lead] = row
    ordered = sorted(pivot_rows.items(), key=lambda kv: order(kv[0]))
    return [row for _, row in ordered], {lead: i for i, (lead, _) in enumerate(ordered)}


def test_zhu_context_matches_fraction_reference_rref():
    # Every truncated span of Heisenberg and of Virasoro at c = 1/2 and
    # c = -22/5, levels 0-2 and cutoffs 0-10, against the reference.
    for presentation in (HEIS, VIR, builtin_presentation("virasoro", Fraction(-22, 5))):
        for level in range(3):
            for cutoff in range(11):
                ctx = build_zhu_context(presentation, level, cutoff)
                spanning = (v.terms for v in spanning_vectors(presentation, level, cutoff))
                rows, pivots = fraction_rref(spanning, monomial_order)
                assert [row.terms for row in ctx.rows] == rows
                assert ctx.pivots == pivots
                assert_exact(c for row in ctx.rows for c in row.terms.values())
