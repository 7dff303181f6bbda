import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from zhu_forge import (
    FockVector,
    WeightOverflowError,
    basic_circle_product,
    basic_star_product,
    basis_vectors,
    build_zhu_context,
    builtin_presentation,
    c2_dims,
    circle_product,
    evaluate_expression,
    format_element,
    mode_action,
    mode_symbol,
    omega_subspace,
    star_product,
    star_top_weight,
    translation_row,
    voa,
)
from zhu_forge.linalg import reduce_vector, rref
from zhu_forge.suites import ideal_containment, omega_suite
from zhu_forge.voa import _mode_mono
from zhu_forge.zhu import (
    ZeroModeAction,
    _free_monomials,
    _generator_rows,
    _star_coefficients,
    an_dims,
    spanning_vectors,
)

GOLDEN = Path(__file__).parent / "golden"

HEIS = builtin_presentation("heisenberg")
VIR = builtin_presentation("virasoro", Fraction(1, 2))
A = FockVector.from_monomial(HEIS, ((-1, "a"),))
VAC = FockVector.vacuum(HEIS)


def mono(presentation, *modes):
    return FockVector.from_monomial(presentation, tuple(modes))


# --- products -------------------------------------------------------------


def test_star_zero_of_boson_with_itself():
    assert star_product(A, A, 0) == mono(HEIS, (-1, "a"), (-1, "a"))


def test_circle_zero_of_boson_with_itself():
    expected = mono(HEIS, (-2, "a"), (-1, "a")) + mono(HEIS, (-1, "a"), (-1, "a"))
    assert circle_product(A, A, 0) == expected


def test_star_one_against_vacuum():
    # Hand computation: a *_1 vac = -2 a(-3)vac - 3 a(-2)vac.
    expected = -2 * mono(HEIS, (-3, "a")) - 3 * mono(HEIS, (-2, "a"))
    assert star_product(A, VAC, 1) == expected


def test_circle_with_vacuum_is_translation_row():
    for presentation in (HEIS, VIR):
        vac = FockVector.vacuum(presentation)
        for u in basis_vectors(presentation, 5):
            assert circle_product(u, vac, 0) == translation_row(presentation, u)


def test_level_zero_products_match_basic_forms():
    for presentation in (HEIS, VIR):
        states = basis_vectors(presentation, 4)
        for u in states:
            for v in states:
                assert circle_product(u, v, 0) == basic_circle_product(u, v)
                assert star_product(u, v, 0) == basic_star_product(u, v)


def test_vacuum_is_left_star_identity_exactly():
    for presentation in (HEIS, VIR):
        vac = FockVector.vacuum(presentation)
        for level in range(7):
            for v in basis_vectors(presentation, 5):
                assert star_product(vac, v, level) == v
    # The vacuum acts through vac_{-1} alone, whatever the level.
    assert _star_coefficients(0, 50) == (1,)


def test_virasoro_star_of_conformal_vector():
    omega = VIR.conformal_vector()
    expected = (
        mono(VIR, (-2, "L"), (-2, "L"))
        + 2 * mono(VIR, (-3, "L"))
        + 2 * mono(VIR, (-2, "L"))
    )
    assert star_product(omega, omega, 0) == expected


def test_products_are_bilinear():
    x = mono(HEIS, (-2, "a")) + 2 * A
    y = mono(HEIS, (-1, "a"), (-1, "a"))
    for level in (0, 1):
        assert star_product(x, y + A, level) == (
            star_product(x, y, level) + star_product(x, A, level)
        )
        assert circle_product(x + y, A, level) == (
            circle_product(x, A, level) + circle_product(y, A, level)
        )


def reference_star(u, v, level):
    """Unmemoized ``u *_level v`` from the defining sum over ``mode_action``."""
    out = FockVector.zero(u.presentation)
    for wu, upart in u.weight_decomposition().items():
        for m in range(level + 1):
            for i in range(wu + level + 1):
                coeff = (-1) ** m * math.comb(m + level, level) * math.comb(wu + level, i)
                out = out + coeff * mode_action(upart, i - m - level - 1, v)
    return out


def reference_circle(u, v, level):
    """Unmemoized ``u o_level v`` from the defining sum over ``mode_action``."""
    out = FockVector.zero(u.presentation)
    for wu, upart in u.weight_decomposition().items():
        for i in range(wu + level + 1):
            coeff = math.comb(wu + level, i)
            out = out + coeff * mode_action(upart, i - 2 * level - 2, v)
    return out


@st.composite
def sparse_vectors(draw, presentation):
    """Sparse vectors mixing the weights 0..3, small rational coefficients."""
    monos = [m for _, ms in voa.enumerate_basis(presentation, 3) for m in ms]
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return FockVector(presentation, {m: draw(coeffs) for m in chosen})


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from((HEIS, VIR)), st.integers(0, 2))
def test_star_product_matches_defining_sum(data, presentation, level):
    # The circle product is checked the same way.
    u = data.draw(sparse_vectors(presentation))
    v = data.draw(sparse_vectors(presentation))
    star, circle = reference_star(u, v, level), reference_circle(u, v, level)
    assert star_product(u, v, level) == star
    assert circle_product(u, v, level) == circle
    if level == 0:
        assert basic_star_product(u, v) == star
        assert basic_circle_product(u, v) == circle
    voa.clear_caches()
    assert star_product(u, v, level) == star
    assert circle_product(u, v, level) == circle


# Virasoro at charges 1 - 6(p-q)^2/pq, (p, q) = (3, 4), (2, 3), (1, 2),
# (2, 5), (4, 5), where the universal algebra has singular vectors.
VIRASOROS = tuple(
    builtin_presentation("virasoro", Fraction(c)) for c in ("1/2", "0", "-2", "-22/5", "7/10")
)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from((HEIS,) + VIRASOROS), st.integers(0, 2), st.integers(0, 8))
def test_star_top_weight_matches_star_product(data, presentation, level, cutoff):
    # Ideal rows are drawn too: they mix weights and coefficients. The rule
    # on the operands' top weights decides the window as the product does.
    rows = build_zhu_context(presentation, level, 6).rows
    u = data.draw(st.one_of(sparse_vectors(presentation), st.sampled_from(rows)))
    v = data.draw(st.one_of(sparse_vectors(presentation), st.sampled_from(rows)))
    product = reference_star(u, v, level)
    assert star_product(u, v, level) == product
    if not (u and v):
        assert not product
        return
    top = star_top_weight(u.max_weight(), v.max_weight(), level)
    assert product.max_weight() == top
    assert (top > cutoff) == (product.max_weight() > cutoff)


@pytest.mark.parametrize(
    "presentation", (HEIS,) + VIRASOROS, ids=lambda p: f"{p.name}-c={p.central_charge}"
)
def test_star_top_weight_of_basis_pairs(presentation):
    # The top component of m *_n m' sits at wt(m') + wt(m) + 2n unless m is
    # the vacuum, for every pair of total weight at most 6: it never cancels,
    # so the window is decided by this weight alone.
    monos = [(w, m) for w, ms in voa.enumerate_basis(presentation, 6) for m in ms]
    for level in range(3):
        for a, umono in monos:
            for b, vmono in monos:
                if a + b > 6:
                    continue
                u, v = mono(presentation, *umono), mono(presentation, *vmono)
                top = b + (a + 2 * level if a > 0 else 0)
                assert star_top_weight(a, b, level) == top
                assert star_product(u, v, level).max_weight() == top


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from((HEIS, VIR)), st.integers(0, 2))
def test_star_slice_is_one_mode_times_a_table_coefficient(data, presentation, level):
    # For basis monomials of weights a, b the weight-w part of the star
    # product is c * m_{a+b-1-w} n, with c read from the coefficient table
    # (zero outside it).
    monos = [m for _, ms in voa.enumerate_basis(presentation, 4) for m in ms]
    umono, vmono = data.draw(st.sampled_from(monos)), data.draw(st.sampled_from(monos))
    a, b = voa.monomial_weight(umono), voa.monomial_weight(vmono)
    table = _star_coefficients(a, level)
    expected = reference_star(mono(presentation, *umono), mono(presentation, *vmono), level)
    parts = expected.weight_decomposition()
    for weight in range(a + b + 2 * level + 3):
        c = table[weight - b] if 0 <= weight - b < len(table) else 0
        term = dict(_mode_mono(presentation, umono, a + b - 1 - weight, vmono))
        want = parts.get(weight, FockVector.zero(presentation))
        assert c * FockVector(presentation, term) == want


def test_star_top_weight_keeps_a_vacuum_left_factor_in_the_window():
    # vac *_n y = y, so the product fits whenever y does, although the
    # level alone would put the top of u *_n y at wt(y) + 2n for u of
    # positive weight.
    level, cutoff = 1, 4
    ctx = build_zhu_context(HEIS, level, cutoff)
    candidates = list(ctx.rows) + basis_vectors(HEIS, cutoff)
    spill = [y for y in candidates if y.max_weight() <= cutoff < y.max_weight() + 2 * level]
    assert len(spill) == 13
    for y in spill:
        assert star_top_weight(0, y.max_weight(), level) <= cutoff
        assert star_product(VAC, y, level) == y
        assert star_product(-3 * VAC, y, level) == -3 * y
    row = mono(HEIS, (-2, "a")) + mono(HEIS, (-1, "a"))
    assert star_top_weight(row.max_weight(), A.max_weight(), level) > cutoff
    assert star_product(row, A, level).max_weight() > cutoff


def test_builtin_presentations_are_shared():
    assert builtin_presentation("heisenberg") is HEIS
    assert builtin_presentation("heisenberg", Fraction(1, 2)) is HEIS
    first = builtin_presentation("virasoro", Fraction(1, 2))
    second = builtin_presentation("virasoro", "1/2")
    assert first is VIR and second is VIR
    assert builtin_presentation("virasoro", 0) is builtin_presentation("virasoro", Fraction(0))
    modes = ((-3, "L"), (-2, "L"))
    star_product(mono(first, *modes), mono(first, (-2, "L")), 1)
    before = voa._mode_mono.cache_info()
    star_product(mono(second, *modes), mono(second, (-2, "L")), 1)
    after = voa._mode_mono.cache_info()
    assert after.hits > before.hits
    assert after.misses == before.misses
    voa.clear_caches()
    assert builtin_presentation("virasoro", Fraction(1, 2)) is VIR


def test_hand_built_copy_is_another_presentation():
    copy = dataclasses.replace(VIR)
    assert copy != VIR
    with pytest.raises(ValueError):
        star_product(mono(copy, (-2, "L")), mono(VIR, (-2, "L")), 0)


# --- truncated contexts -----------------------------------------------------


def test_empty_context_at_cutoff_zero():
    ctx = build_zhu_context(HEIS, 0, 0)
    assert ctx.rank == 0
    assert an_dims(HEIS, 0, 0).rows == [(0, 1)]


def test_context_pivot_relation():
    ctx = build_zhu_context(HEIS, 0, 4)
    got = ctx.reduce(mono(HEIS, (-2, "a"), (-1, "a")))
    assert got == -1 * mono(HEIS, (-1, "a"), (-1, "a"))


def test_spanning_vectors_reduce_to_zero():
    for presentation in (HEIS, VIR):
        for level in (0, 1):
            ctx = build_zhu_context(presentation, level, 5)
            for vec in spanning_vectors(presentation, level, 5):
                assert ctx.reduce(vec).is_zero


def test_reduction_is_well_defined_and_idempotent():
    ctx = build_zhu_context(HEIS, 0, 5)
    x = mono(HEIS, (-3, "a"), (-1, "a")) + 2 * A
    row = ctx.rows[0]
    assert ctx.reduce(x) == ctx.reduce(x + row)
    assert ctx.reduce(ctx.reduce(x)) == ctx.reduce(x)
    assert ctx.reduce(VAC) == VAC


def test_reduce_rejects_overweight_vectors():
    ctx = build_zhu_context(HEIS, 0, 3)
    with pytest.raises(WeightOverflowError) as err:
        ctx.reduce(mono(HEIS, (-4, "a")))
    assert "a[-4]" in str(err.value)


def test_unit_and_centrality_in_quotient():
    for presentation in (HEIS, VIR):
        vac = FockVector.vacuum(presentation)
        omega = presentation.conformal_vector()
        ctx = build_zhu_context(presentation, 0, 6)
        for v in basis_vectors(presentation, 4):
            assert ctx.reduce(star_product(vac, v, 0)) == ctx.reduce(v)
            assert ctx.reduce(star_product(v, vac, 0)) == ctx.reduce(v)
            left, right = star_product(omega, v, 0), star_product(v, omega, 0)
            assert ctx.reduce(left) == ctx.reduce(right)


def test_translation_row_matches_its_definition():
    # The oracle is the definition, (omega_0 + omega_1) u, which the row
    # itself never reads.
    charges = (Fraction(1, 2), Fraction(-22, 5), Fraction(0))
    presentations = [HEIS] + [builtin_presentation("virasoro", c) for c in charges]
    for presentation in presentations:
        omega = presentation.conformal_vector()
        basis = basis_vectors(presentation, 8)
        mixed = 3 * basis[0] - basis[2] + Fraction(2, 7) * basis[-1]
        assert not mixed.is_homogeneous()
        for u in basis + [mixed]:
            want = mode_action(omega, 0, u) + mode_action(omega, 1, u)
            assert translation_row(presentation, u) == want, format_element(u)


def test_translation_rows_vanish_in_quotient():
    # Above level 0 the translation rows are spanning rows. At level 0 the
    # span is the generator rows alone, and their vanishing is Zhu's lemma
    # u o_0 vac = L(-1)u + L(0)u.
    cases = [(HEIS, level) for level in (0, 1, 2)] + [
        (builtin_presentation("virasoro", Fraction(c)), 0) for c in ("1/2", "-22/5")
    ]
    for presentation, level in cases:
        ctx = build_zhu_context(presentation, level, 6)
        for u in basis_vectors(presentation, 5):
            assert ctx.reduce(translation_row(presentation, u)).is_zero


def test_inverse_system_containment():
    for presentation in (HEIS, VIR):
        for level in (1, 2):
            assert not ideal_containment(presentation, level, 6)


def test_virasoro_translation_row_appears_in_span():
    omega = VIR.conformal_vector()
    row = translation_row(VIR, omega)
    assert row == mono(VIR, (-3, "L")) + 2 * mono(VIR, (-2, "L"))
    ctx = build_zhu_context(VIR, 0, 3)
    assert ctx.reduce(row).is_zero


def test_vacuum_pivot_is_fatal(monkeypatch):
    import zhu_forge.zhu as zhu_module

    zhu_module.build_zhu_context.cache_clear()  # force a build, not a memo hit
    monkeypatch.setattr(zhu_module, "spanning_vectors", lambda *a: [VAC])
    with pytest.raises(RuntimeError, match="vacuum"):
        build_zhu_context(HEIS, 0, 2)


def _pair_rows(presentation, bound, product):
    """The nonzero ``product(u, v)`` over ordered basis pairs with ``wt(u) +
    wt(v) <= bound``: the oracle whose span the generator rows of the
    level-0 and C2 spans, and the unordered pairs above level 0, must
    match."""
    if bound < 0:
        return []
    flat = [
        (w, FockVector.from_monomial(presentation, m))
        for w, monos in voa.enumerate_basis(presentation, bound)
        for m in monos
    ]
    return [prod for wu, u in flat for wv, v in flat if wu + wv <= bound and (prod := product(u, v))]


def _ordered_pair_span(presentation, level, cutoff):
    """The RREF of the circle products of every ordered basis pair whose top
    weight fits under the cutoff, with the translation rows."""
    bound = cutoff - 2 * level - 1
    oracle = _pair_rows(presentation, bound, lambda u, v: circle_product(u, v, level))
    if cutoff >= 1:
        oracle += [translation_row(presentation, u) for u in basis_vectors(presentation, cutoff - 1)]
    return rref((v.terms for v in oracle), order=voa.monomial_order)


def _assert_context_matches_ordered_pairs(presentation, level, cutoff):
    rows, pivots = _ordered_pair_span(presentation, level, cutoff)
    ctx = build_zhu_context(presentation, level, cutoff)
    assert [row.terms for row in ctx.rows] == rows
    assert ctx.pivots == pivots


def _assert_generator_rows_match_pair_loop(presentation, cutoff):
    _assert_context_matches_ordered_pairs(presentation, 0, cutoff)
    # C2: the u_{-2} v of basis pairs.
    oracle = _pair_rows(presentation, cutoff - 1, lambda u, v: mode_action(u, -2, v))
    rows, pivots = rref((v.terms for v in oracle), order=voa.monomial_order)
    generated = _generator_rows(presentation, cutoff, lambda d: (1,))
    assert rref((v.terms for v in generated), order=voa.monomial_order) == (rows, pivots)
    assert c2_dims(presentation, cutoff) == _free_monomials(presentation, cutoff, pivots)


@pytest.mark.parametrize(
    "presentation",
    (HEIS, VIR, *(builtin_presentation("virasoro", Fraction(c)) for c in ("-22/5", "0"))),
    ids=lambda p: f"{p.name}-c={p.central_charge}",
)
def test_generator_rows_match_pair_loop(presentation):
    # The level-0 and C2 spans are built from generator rows; this grid,
    # not the lemmas cited in zhu.py, is what licenses that.
    for cutoff in range(13):
        _assert_generator_rows_match_pair_loop(presentation, cutoff)


@settings(max_examples=25, deadline=None)
@given(st.integers(-60, 60), st.integers(1, 12), st.integers(0, 8))
def test_generator_rows_match_pair_loop_at_any_charge(p, q, cutoff):
    presentation = builtin_presentation("virasoro", Fraction(p, q))
    _assert_generator_rows_match_pair_loop(presentation, cutoff)


@pytest.mark.parametrize(
    "presentation",
    (HEIS, VIR, *(builtin_presentation("virasoro", Fraction(c)) for c in ("-22/5", "0"))),
    ids=lambda p: f"{p.name}-c={p.central_charge}",
)
def test_unordered_pairs_match_ordered_pair_loop(presentation):
    # Above level 0 the span forms one circle product per unordered pair of
    # distinct basis monomials; skew symmetry modulo the translation rows
    # makes the other order and the diagonal redundant. This grid licenses
    # that.
    for level in range(1, 4):
        for cutoff in range(13):
            _assert_context_matches_ordered_pairs(presentation, level, cutoff)


@settings(max_examples=25, deadline=None)
@given(st.integers(-60, 60), st.integers(1, 12), st.integers(1, 3), st.integers(0, 8))
def test_unordered_pairs_match_ordered_pair_loop_at_any_charge(p, q, level, cutoff):
    presentation = builtin_presentation("virasoro", Fraction(p, q))
    _assert_context_matches_ordered_pairs(presentation, level, cutoff)


@pytest.mark.parametrize("level", (0, 1, 2))
@pytest.mark.parametrize("presentation", (HEIS, VIR), ids=("heisenberg", "virasoro"))
def test_circle_product_is_skew_modulo_translation_rows(presentation, level):
    # u o_n v + v o_n u lies in the span of the translation rows alone
    # whenever the top weight wt(u) + wt(v) + 2n + 1 fits under the cutoff.
    cutoff = 10
    bound = cutoff - 2 * level - 1
    translations = [translation_row(presentation, u) for u in basis_vectors(presentation, cutoff - 1)]
    rows, pivots = rref((v.terms for v in translations), order=voa.monomial_order)
    monos = [(w, m) for w, ms in voa.enumerate_basis(presentation, bound) for m in ms]
    for i, (a, umono) in enumerate(monos):
        for b, vmono in monos[i:]:
            if a + b > bound:
                continue
            u, v = mono(presentation, *umono), mono(presentation, *vmono)
            skew = circle_product(u, v, level) + circle_product(v, u, level)
            assert not reduce_vector(skew.terms, rows, pivots), (umono, vmono)


@pytest.mark.parametrize(
    "level, cutoff, count", ((1, 10, 173), (1, 14, 1152), (2, 12, 271))
)
def test_level_span_row_counts(level, cutoff, count):
    # Circle rows plus translation rows. The ordered pair loop built 300,
    # 2144 and 398 here, so a return to it fails this test.
    assert len(spanning_vectors(HEIS, level, cutoff)) == count


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: spanning_vectors(HEIS, 0, -3), "level and cutoff"),
        (lambda: spanning_vectors(HEIS, -1, 3), "level and cutoff"),
        (lambda: c2_dims(HEIS, -1), "cutoff"),
        (lambda: build_zhu_context(HEIS, -1, 3), "level and cutoff"),
        (lambda: build_zhu_context(HEIS, 0, -1), "level and cutoff"),
        (lambda: omega_subspace(HEIS, -1, 4), "level and cutoff"),
        (lambda: omega_subspace(HEIS, 0, -1), "level and cutoff"),
        (lambda: omega_suite(HEIS, -2, 3), "level and cutoff"),
    ],
    ids=[
        "span-cutoff",
        "span-level",
        "c2-cutoff",
        "context-level",
        "context-cutoff",
        "omega-level",
        "omega-cutoff",
        "omega-suite-level",
    ],
)
def test_negative_level_or_cutoff_is_refused(build, message):
    # The message names only the arguments the function takes: c2_dims has
    # no level.
    with pytest.raises(ValueError, match=f"^{message} must be nonnegative$"):
        build()


# --- dimension tables ---------------------------------------------------------


def _assert_matches_golden(table, name):
    path = GOLDEN / name
    assert path.exists(), f"golden file {name} missing"
    assert table.to_csv() == path.read_text()


def test_quotient_dims_heisenberg_level0():
    table = an_dims(HEIS, 0, 4)
    assert table.rows == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]
    _assert_matches_golden(table, "an_dims_heisenberg_n0_w4.csv")


def test_quotient_dims_virasoro_level1():
    _assert_matches_golden(an_dims(VIR, 1, 6), "an_dims_virasoro_half_n1_w6.csv")


def test_quotient_dims_stabilize_at_low_weight():
    # Empirical record: refining the window does not change low-weight rows.
    at4 = dict(an_dims(HEIS, 0, 4).rows)
    at5 = dict(an_dims(HEIS, 0, 5).rows)
    at6 = dict(an_dims(HEIS, 0, 6).rows)
    for w in range(0, 5):
        assert at4[w] == at5[w] == at6[w]


def test_c2_dims_heisenberg():
    table = c2_dims(HEIS, 6)
    # Everything with a part of size >= 2 is reachable; one class per weight.
    assert table.rows == [(w, 1) for w in range(7)]
    _assert_matches_golden(table, "c2_dims_heisenberg_w6.csv")


def test_c2_dims_heisenberg_small():
    table = c2_dims(HEIS, 2)
    assert table.rows == [(0, 1), (1, 1), (2, 1)]


def test_c2_dims_virasoro():
    table = c2_dims(VIR, 6)
    assert table.rows == [(0, 1), (1, 0), (2, 1), (3, 0), (4, 1), (5, 0), (6, 1)]
    _assert_matches_golden(table, "c2_dims_virasoro_half_w6.csv")


# --- the kernel subspaces -------------------------------------------------------


def test_omega_subspace_heisenberg_is_low_weight_sum():
    for level, expected_dim in ((0, 1), (1, 2), (2, 4)):
        vectors, doc = omega_subspace(HEIS, level, 6), omega_suite(HEIS, level, 6)
        assert len(vectors) == expected_dim
        info = {r.name: r.witness for r in doc.sorted_checks()}
        assert info["low_weight_comparison"]["equals_low_weight_sum"] is True
        assert doc.passed


def test_omega_subspace_heisenberg_cross_check_at_higher_cutoff():
    vectors6 = omega_subspace(HEIS, 0, 6)
    vectors7 = omega_subspace(HEIS, 0, 7)
    assert len(vectors6) == len(vectors7) == 1
    assert vectors6[0] == vectors7[0] == VAC


def test_omega_subspace_virasoro_sees_singular_vector():
    # The universal c=1/2 vacuum module is not simple: its weight-6 singular
    # vector joins the vacuum in the kernel subspace at this window.
    vectors, doc = omega_subspace(VIR, 0, 6), omega_suite(VIR, 0, 6)
    info = {r.name: r.witness for r in doc.sorted_checks()}
    assert info["low_weight_comparison"]["equals_low_weight_sum"] is False
    assert len(vectors) == 2
    weights = sorted(v.max_weight() for v in vectors)
    assert weights == [0, 6]
    singular = [v for v in vectors if v.max_weight() == 6][0]
    # Positive shifts kill it exactly.
    omega = VIR.conformal_vector()
    assert mode_action(omega, 2, singular).is_zero  # L(1)
    assert mode_action(omega, 3, singular).is_zero  # L(2)


def global_omega_system(presentation, level, cutoff):
    """The kernel system of ``omega_subspace`` without its weight blocks: a
    column per basis monomial up to the cutoff, and a row per output
    monomial of every basis state's mode of shift ``level < k <= cutoff``."""
    columns = [m for _, ms in voa.enumerate_basis(presentation, cutoff) for m in ms]
    rows = []
    for u in basis_vectors(presentation, cutoff):
        for k in range(level + 1, cutoff + 1):
            images = [
                mode_action(u, u.max_weight() - 1 + k, FockVector.from_monomial(presentation, m))
                for m in columns
            ]
            outputs = {out for image in images for out in image.terms}
            for out in sorted(outputs):
                rows.append([sympy.Rational(str(image.terms.get(out, 0))) for image in images])
    return columns, sympy.Matrix(len(rows), len(columns), sum(rows, []))


def assert_matches_global_kernel(presentation, level, cutoff):
    columns, system = global_omega_system(presentation, level, cutoff)
    nullity = len(columns) - system.rank()
    vectors = omega_subspace(presentation, level, cutoff)
    found = sympy.Matrix(
        [[sympy.Rational(str(v.terms.get(m, 0))) for m in columns] for v in vectors]
    ).T
    # The found vectors lie in the kernel and span a space of its dimension.
    assert len(vectors) == nullity
    assert found.rank() == nullity
    assert (system * found).is_zero_matrix
    return vectors


@pytest.mark.parametrize("cutoff", (2, 5))
@pytest.mark.parametrize("level", (0, 1, 2))
@pytest.mark.parametrize("presentation", (HEIS, VIR), ids=("heisenberg", "virasoro"))
def test_omega_subspace_matches_global_kernel(presentation, level, cutoff):
    assert_matches_global_kernel(presentation, level, cutoff)


@pytest.mark.parametrize(
    "charge, weights",
    ((Fraction(0), [0, 2, 3]), (Fraction(-22, 5), [0, 4, 5])),
    ids=("c0", "c-22/5"),
)
def test_omega_subspace_matches_global_kernel_above_the_level(charge, weights):
    # These blocks above the level keep a kernel, so they never reach full
    # rank and every constraint row of theirs is read.
    vectors = assert_matches_global_kernel(builtin_presentation("virasoro", charge), 1, 5)
    assert [v.max_weight() for v in vectors] == weights


def test_omega_subspace_stops_building_rows_at_full_rank():
    # Every Heisenberg block above the level has an empty kernel, which the
    # rows of the lowest-weight states already force; the rest are never
    # built. Building every row would take 62944 mode-table misses.
    voa.clear_caches()
    vectors = omega_subspace(HEIS, 1, 9)
    assert [v.max_weight() for v in vectors] == [0, 1]
    assert voa._mode_mono.cache_info().misses <= 6300


def test_omega_subspace_preserved_by_zero_modes():
    for presentation, level in ((HEIS, 1), (VIR, 0)):
        doc = omega_suite(presentation, level, 6)
        records = {r.name: r.status for r in doc.sorted_checks()}
        assert records["zero_modes_preserve_subspace"] == "pass"


LEE_YANG = builtin_presentation("virasoro", Fraction(-22, 5))


def _in_span(vectors, y):
    monos = sorted({m for v in vectors + [y] for m in v.terms})
    matrix = sympy.Matrix(
        [[sympy.Rational(str(v.terms.get(m, 0))) for m in monos] for v in vectors + [y]]
    )
    return matrix.rank() == len(vectors)


@settings(max_examples=50, deadline=None)
@given(
    st.data(),
    st.sampled_from((HEIS, VIR, LEE_YANG)),
    st.integers(0, 2),
    st.integers(0, 6),
)
def test_zero_mode_action_matches_letter_by_letter_evaluation(data, presentation, level, cutoff):
    action = ZeroModeAction(presentation, level, cutoff)
    xs = action.vectors
    zero = FockVector(presentation)

    def combination(coords):
        return sum((c * xs[k] for k, c in coords.items()), zero)

    # Every row of a basis monomial m: sum_l coords_l x_l is o(m) x_k, with
    # J_0(m) applied to x_k one letter at a time; a missing entry is a zero
    # image, and no image leaves the span.
    states = basis_vectors(presentation, cutoff)
    for u in states:
        (m,) = u.terms
        row = dict(action.row(m))
        for k, x in enumerate(xs):
            coords = row.get(k, {})
            assert coords is not None
            assert combination(coords) == evaluate_expression(mode_symbol(u, 0), x)

    # Coordinates are read only from vectors of the span: a drawn
    # combination of the x_k, plus a multiple of a drawn basis monomial.
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    y = combination({k: data.draw(coeffs) for k in range(len(xs))})
    y = y + data.draw(coeffs) * data.draw(st.sampled_from(states))
    coords = action.coordinates(dict(y.terms))
    assert (coords is not None) == _in_span(xs, y)
    if coords is not None:
        assert combination(coords) == y

    # M(u) M(v) = M(u *_n v) on Omega_n for pairs whose product fits the window.
    pairs = [
        (u, v)
        for u in states
        for v in states
        if star_top_weight(u.max_weight(), v.max_weight(), level) <= cutoff
    ]
    for u, v in data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4)):
        mu, mv = action.matrix(u), action.matrix(v)
        product = action.matrix(star_product(u, v, level))
        for k in range(len(xs)):
            got = action.apply(mu, mv[k])
            assert got is not None and got == product[k]


def test_spanning_dump_is_json_ready():
    import json

    ctx = build_zhu_context(HEIS, 0, 3)
    dump = ctx.spanning_dump()
    text = json.dumps(dump)
    assert "rows" in dump and len(dump["rows"]) == ctx.rank
    assert "a[-1]a[-1]vac" in text
