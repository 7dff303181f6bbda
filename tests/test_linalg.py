from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from zhu_forge import builtin_presentation
from zhu_forge.linalg import Combination, add_scaled, kernel_basis, reduce_vector, rref
from zhu_forge.modes import UEAExpression
from zhu_forge.voa import FockVector


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


# ---------------------------------------------------------------------------
# Independent oracles: a naive dict-of-Fraction sum for the sparse core, and
# sympy's exact rational RREF for the row reduction.
# ---------------------------------------------------------------------------

HEIS = builtin_presentation("heisenberg")
scalars = st.fractions(min_value=-3, max_value=3, max_denominator=4)
sparse = st.dictionaries(st.integers(0, 6), scalars, max_size=6)
classes = st.sampled_from([Combination, FockVector, UEAExpression])


def naive_sum(*scaled):
    """Sum of coeff * terms over (coeff, terms) pairs, zeros removed."""
    out = {}
    for coeff, terms in scaled:
        for key, value in terms.items():
            out[key] = out.get(key, Fraction(0)) + Fraction(coeff) * value
    return {key: value for key, value in out.items() if value != 0}


def assert_clean(terms):
    assert all(isinstance(v, Fraction) and v != 0 for v in terms.values())


@settings(max_examples=200, deadline=None)
@given(sparse, sparse, scalars | st.integers(-3, 3))
def test_add_scaled_matches_naive_sum(a, b, coeff):
    acc = naive_sum((1, a))
    add_scaled(acc, b.items(), coeff)
    assert acc == naive_sum((1, a), (coeff, b))
    assert_clean(acc)


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
        assert_clean(result.terms)
    assert (x - x).is_zero and x + y == y + x


def test_combination_stores_fractions():
    x = FockVector(HEIS, {(): 2, ((-1, "a"),): 0})
    assert x.terms == {(): Fraction(2)} and type(x.terms[()]) is Fraction


def to_rows(matrix):
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def dense(row, ncols):
    return [row.get(j, 0) for j in range(ncols)]


def to_sympy(matrix, ncols):
    return sympy.Matrix(len(matrix), ncols, sum(matrix, []))


matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(
        st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                 min_size=ncols, max_size=ncols),
        min_size=0,
        max_size=5,
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
    constraints = to_sympy(matrix, ncols)
    expected = constraints.nullspace()
    assert len(kernel) == len(expected)
    if not kernel:
        return
    ours = sympy.Matrix([dense(vec, ncols) for vec in kernel])
    assert all(v == 0 for v in constraints * ours.T)
    both = ours.col_join(sympy.Matrix.hstack(*expected).T)
    assert ours.rank() == both.rank() == len(kernel)
