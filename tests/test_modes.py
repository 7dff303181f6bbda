import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhu_forge import (
    FockVector,
    basis_vectors,
    build_zhu_context,
    builtin_presentation,
    evaluate_expression,
    expand_iterate_side,
    expand_product_side,
    find_witness,
    format_element,
    format_word,
    homomorphism_check,
    mode_action,
    mode_symbol,
    omega_subspace,
    pair_expansion,
    parse_uea,
    reduce_word,
    reordering_residual,
    replay_trace,
    star_product,
    translation_row,
    vhat_bracket,
    word_degree,
    word_expression,
)
from zhu_forge import cli, enumerate_basis, voa
from zhu_forge.combinatorics import binomial
from zhu_forge.linalg import add_scaled
from zhu_forge import modes as modes_module
from zhu_forge.modes import UEAExpression

HEIS = builtin_presentation("heisenberg")
VIR = builtin_presentation("virasoro", Fraction(1, 2))
A = FockVector.from_monomial(HEIS, ((-1, "a"),))
OMEGA_V = VIR.conformal_vector()


def mono(presentation, *modes):
    return FockVector.from_monomial(presentation, tuple(modes))


def mixed_pool(presentation, max_weight=3):
    """The basis up to ``max_weight``, then sums of basis vectors of
    different weights, each with a vacuum component."""
    basis = basis_vectors(presentation, max_weight)
    vac = FockVector.vacuum(presentation)
    heavy = list({v.max_weight(): v for v in basis if v.max_weight() > 0}.values())
    assert len(heavy) >= 2
    return basis + [
        vac + heavy[-1],
        heavy[0] - 3 * vac + Fraction(1, 2) * heavy[-1],
        sum(heavy[1:], vac + heavy[0]),
    ]


# --- symbols and vacuum collapse ------------------------------------------------


def test_vacuum_modes_collapse():
    vac = FockVector.vacuum(HEIS)
    assert mode_symbol(vac, 0) == UEAExpression.scalar(HEIS, 1)
    assert mode_symbol(vac, 2).is_zero
    assert mode_symbol(vac, -1).is_zero
    # vac(-1) is the identity, so it commutes with every mode.
    for presentation in (HEIS, VIR):
        identity = FockVector.vacuum(presentation)
        for u in mixed_pool(presentation):
            for m in range(-3, 4):
                assert vhat_bracket(u, m, identity, -1).is_zero
                assert vhat_bracket(identity, -1, u, m).is_zero


def test_word_degree_bookkeeping():
    expr = word_expression(HEIS, [(A, 2), (A, -2)])
    assert all(word_degree(w) == 0 for w in expr.terms)
    expr2 = word_expression(HEIS, [(A, 1), (A, 1), (A, -3)])
    assert all(word_degree(w) == 1 for w in expr2.terms)


def test_format_word_roundtrips_through_parser():
    expr = word_expression(HEIS, [(A, -2), (A, 2)])
    ((word, coeff),) = expr.sorted_terms()
    again = parse_uea(format_word(word), HEIS)
    assert again == expr


# --- the current-algebra bracket -------------------------------------------------


def test_bracket_of_boson_modes_is_central():
    for m in range(-3, 4):
        for n in range(-3, 4):
            bracket = vhat_bracket(A, m, A, n)
            if m + n == 0:
                assert bracket == UEAExpression.scalar(HEIS, m)
            else:
                assert all(len(w) == 1 for w in bracket.terms)
                # Semantically zero on the window when m + n != 0.
                for x in basis_vectors(HEIS, 3):
                    got = mode_action(A, m, mode_action(A, n, x)) - mode_action(
                        A, n, mode_action(A, m, x)
                    )
                    assert evaluate_expression(bracket, x) == got


def test_bracket_example_virasoro():
    bracket = vhat_bracket(OMEGA_V, 1, OMEGA_V, 2)
    rendered = {format_word(w): c for w, c in bracket.sorted_terms()}
    assert rendered == {
        "J[1](L[-3]vac)": Fraction(1),
        "J[1](L[-2]vac)": Fraction(2),
    }
    # [L(0), L(1)] = -L(1): check semantically on the window.
    for x in basis_vectors(VIR, 5):
        assert evaluate_expression(bracket, x) == -1 * mode_action(OMEGA_V, 2, x)


def test_bracket_antisymmetry_semantically():
    rng = random.Random(4)
    pool = basis_vectors(VIR, 4)
    for _ in range(25):
        u = pool[rng.randrange(len(pool))]
        v = pool[rng.randrange(len(pool))]
        m = rng.randint(-3, 3)
        n = rng.randint(-3, 3)
        total = vhat_bracket(u, m, v, n) + vhat_bracket(v, n, u, m)
        for x in basis_vectors(VIR, 3):
            assert evaluate_expression(total, x).is_zero


def test_bracket_matches_commutator_of_actions():
    rng = random.Random(17)
    for presentation in (HEIS, VIR):
        pool = mixed_pool(presentation)
        for _ in range(30):
            u = pool[rng.randrange(len(pool))]
            v = pool[rng.randrange(len(pool))]
            m = rng.randint(-3, 3)
            n = rng.randint(-3, 3)
            bracket = vhat_bracket(u, m, v, n)
            for x in basis_vectors(presentation, 3):
                direct = mode_action(u, m, mode_action(v, n, x)) - mode_action(
                    v, n, mode_action(u, m, x)
                )
                assert evaluate_expression(bracket, x) == direct


# --- the two Jacobi sides ---------------------------------------------------------


def test_iterate_side_degree_and_vanishing():
    rng = random.Random(8)
    pool = basis_vectors(HEIS, 3)
    for _ in range(20):
        u = pool[rng.randrange(len(pool))]
        v = pool[rng.randrange(len(pool))]
        m, n, ell = (rng.randint(-3, 3) for _ in range(3))
        expr = expand_iterate_side(u, v, m, n, ell)
        for word in expr.terms:
            assert word_degree(word) == -(m + n + ell)
    # All inner products vanish once the lowest mode index clears the bound.
    top = A.max_weight() + A.max_weight()
    assert expand_iterate_side(A, A, 1, 1, top).is_zero


def test_iterate_side_boson_example():
    expr = expand_iterate_side(A, A, 1, 1, -2)
    expected = mode_symbol(mono(HEIS, (-2, "a"), (-1, "a")), 0) + mode_symbol(
        mono(HEIS, (-1, "a"), (-1, "a")), 0
    )
    assert expr == expected


def test_product_side_degree_and_finiteness():
    expr = expand_product_side(A, A, 1, 1, 2)
    assert all(word_degree(w) == -4 for w in expr.terms)
    # Nonnegative separation indices give a finite sum; the bound is ignored.
    assert expand_product_side(A, A, 1, 1, 2, right_bound=0) == expr
    with pytest.raises(ValueError):
        expand_product_side(A, A, 1, 1, -2)  # needs right_bound
    with pytest.raises(ValueError):
        expand_product_side(A, A, 3, 3, -2, right_bound=1)  # drops i=0 terms


def test_jacobi_sides_agree_on_vectors():
    rng = random.Random(12)
    for presentation in (HEIS, VIR):
        pool = mixed_pool(presentation)
        targets = basis_vectors(presentation, 4)
        for _ in range(25):
            u = pool[rng.randrange(len(pool))]
            v = pool[rng.randrange(len(pool))]
            m, n = rng.randint(-2, 2), rng.randint(-2, 2)
            ell = rng.randint(-3, 3)
            x = targets[rng.randrange(len(targets))]
            kwargs = {}
            if ell < 0:
                kwargs["right_bound"] = x.max_weight() + max(m, n, 0)
            lhs = evaluate_expression(
                expand_product_side(u, v, m, n, ell, **kwargs), x
            )
            rhs = evaluate_expression(expand_iterate_side(u, v, m, n, ell), x)
            assert lhs == rhs, (m, n, ell)


# --- evaluation -------------------------------------------------------------------


def test_evaluate_zero_shift_of_conformal_vector_is_grading():
    for presentation in (HEIS, VIR):
        omega = presentation.conformal_vector()
        expr = mode_symbol(omega, 0)
        for x in basis_vectors(presentation, 5):
            assert evaluate_expression(expr, x) == x.max_weight() * x


def test_evaluate_empty_word_is_identity():
    one = UEAExpression.scalar(HEIS, Fraction(3, 2))
    x = mono(HEIS, (-2, "a"), (-1, "a"))
    assert evaluate_expression(one, x) == Fraction(3, 2) * x


def test_evaluate_matches_direct_composition():
    word = word_expression(HEIS, [(A, 1), (A, -2)])
    x = mono(HEIS, (-1, "a"))
    direct = mode_action(A, 0, mode_action(A, -3 + 1 + 1, x))
    # J_1(a) = a_1, J_{-2}(a) = a_{-2}; compose right to left.
    direct = mode_action(A, 1, mode_action(A, -2, x))
    assert evaluate_expression(word, x) == direct


# --- reordering identity -----------------------------------------------------------


def test_reordering_residual_base_case():
    assert reordering_residual(0, 0, 0, A, A, 8).is_zero


def test_reordering_residual_requires_hypothesis():
    with pytest.raises(ValueError):
        reordering_residual(-3, 0, 2, A, A, 6)
    # depth + s >= 0 holds, but the j-sum over range(depth + 1) is empty.
    for check in (reordering_residual, pair_expansion):
        with pytest.raises(ValueError, match="negative"):
            check(1, 0, -1, A, A, 6)


def test_reordering_residual_sample_grid():
    for s, t, depth in [(-2, 1, 2), (0, -2, 3), (1, 2, 0), (2, -1, 4), (-1, 0, 1)]:
        residual = reordering_residual(s, t, depth, A, A, 8)
        assert residual.is_zero, (s, t, depth, len(residual.terms))


def test_reordering_residual_nontrivial_arguments():
    u = mono(VIR, (-2, "L"))
    v = mono(VIR, (-4, "L"), (-2, "L"))
    assert reordering_residual(1, -1, 2, u, v, 7).is_zero
    # Equal arguments merge coefficients across the two families.
    assert reordering_residual(1, -1, 2, v, v, 7).is_zero


def test_reordering_rejects_flipped_tail_coefficient():
    # Negative control for the deep-tail coefficient C(q+k, k-j): flipping
    # the sign of k in its upper argument breaks the identity, so the
    # residual check genuinely pins the coefficient down.
    from zhu_forge.combinatorics import binomial
    from zhu_forge.modes import UEAExpression, expand_product_side

    def residual_with_flipped_coefficient(s, t, depth, u, v, bound):
        presentation = u.presentation

        def clip(expr):
            kept = {
                w: c
                for w, c in expr.terms.items()
                if all(-bound <= k <= bound for _, k in w)
            }
            return UEAExpression(presentation, kept)

        margin = 2 * bound + abs(s) + abs(t) + depth + 4
        lhs = UEAExpression.zero(presentation)
        for j in range(depth + 1):
            lhs = lhs + binomial(-depth - s - 1, j) * expand_product_side(
                u, v, depth + 1, t + j, -depth - s - 1 - j, right_bound=margin
            )
        rhs = word_expression(presentation, [(u, -s), (v, t)])
        for k in range(depth + 1, margin + 1):
            for j in range(depth + 1):
                c = binomial(depth + s + j, j) * binomial(depth + s - k, k - j)
                if j % 2:
                    c = -c
                if c:
                    rhs = rhs + c * word_expression(
                        presentation, [(u, -k - s), (v, k + t)]
                    )
        sign = -1 if (depth + s + 1) % 2 else 1
        for j in range(depth + 1):
            for i in range(margin + 1):
                c = binomial(depth + s + j, j) * binomial(depth + s + j + i, i)
                if c:
                    rhs = rhs - sign * c * word_expression(
                        presentation, [(v, t - depth - s - 1 - i), (u, depth + 1 + i)]
                    )
        return clip(lhs) - clip(rhs)

    for s, t, depth in [(0, 0, 1), (1, -1, 2)]:
        assert not residual_with_flipped_coefficient(s, t, depth, A, A, 8).is_zero


def test_product_side_window_clip_needs_only_the_window():
    # reordering_residual builds the product side at right bound
    # max(bound, depth + 1, t + depth); inside the window [-bound, bound]
    # that gives the same words as the old wide margin.
    def clipped(expr, bound):
        return {w: c for w, c in expr.terms.items() if all(-bound <= k <= bound for _, k in w)}

    for presentation in (HEIS, VIR):
        mixed = mixed_pool(presentation)[-3:]
        grid = [(-2, 1, 2), (0, -2, 1), (1, 2, 0), (2, -1, 3), (-1, 3, 1), (0, 0, 0)]
        for (u, v), (s, t, depth) in itertools.product(zip(mixed, mixed[1:] + mixed[:1]), grid):
            for bound in (0, 3, 6):
                margin = 2 * bound + abs(s) + abs(t) + depth + 4
                right_bound = max(bound, depth + 1, t + depth)
                for j in range(depth + 1):
                    args = (u, v, depth + 1, t + j, -depth - s - 1 - j)
                    tight = expand_product_side(*args, right_bound=right_bound)
                    wide = expand_product_side(*args, right_bound=margin)
                    assert clipped(tight, bound) == clipped(wide, bound), (s, t, depth, bound, j)


# --- pair expansion ----------------------------------------------------------------


def test_pair_expansion_head_with_vacuum_left_factor():
    vac = FockVector.vacuum(HEIS)
    head = pair_expansion(0, 2, 3, vac, A)
    assert head == mode_symbol(A, 2)


def test_pair_expansion_head_matches_star_under_zero_shifts():
    for level in (0, 1, 2):
        for u in basis_vectors(HEIS, 3):
            for v in basis_vectors(HEIS, 3):
                head = pair_expansion(0, 0, level, u, v)
                expected = mode_symbol(star_product(u, v, level), 0)
                assert head == expected


def test_pair_expansion_head_matches_docstring_double_sum():
    # The head as written in pair_expansion's docstring, one (i, j) term at
    # a time over the basis monomials of u. With s < -wt(v) - 1 some
    # indices k reach wt(u) + wt(v), where u_k v has negative weight.
    from zhu_forge.combinatorics import binomial

    def double_sum(s, t, depth, u, v):
        total = UEAExpression.zero(u.presentation)
        for umono, ucoeff in u.terms.items():
            a = sum(-m for m, _ in umono)
            m = FockVector.from_monomial(u.presentation, umono)
            for j in range(depth + 1):
                for i in range(depth + a + 1):
                    c = binomial(depth + a, i) * binomial(-depth - s - 1, j)
                    k = -depth - s - 1 - j + i
                    total = total + c * ucoeff * mode_symbol(mode_action(m, k, v), t - s)
        return total

    high_k = 0
    for presentation in (HEIS, VIR):
        pool = mixed_pool(presentation)[-3:] + basis_vectors(presentation, 2)[1:3]
        for u in pool[:3]:
            for v in pool:
                for s, t, depth in [(-5, 1, 5), (-4, -4, 4), (-2, 0, 2), (0, 0, 2), (3, -1, 0)]:
                    b = v.max_weight()
                    if s < -b - 1:
                        high_k += 1
                    head = pair_expansion(s, t, depth, u, v)
                    assert head == double_sum(s, t, depth, u, v), (s, t, depth)
    assert high_k


def test_pair_expansion_operator_identity():
    rng = random.Random(3)
    for presentation in (HEIS, VIR):
        pool = mixed_pool(presentation)
        targets = basis_vectors(presentation, 5)
        for _ in range(30):
            s = rng.randint(-2, 2)
            t = rng.randint(-2, 2)
            depth = rng.randint(max(0, -s), 4)
            u = pool[rng.randrange(len(pool))]
            v = pool[rng.randrange(len(pool))]
            x = targets[rng.randrange(len(targets))]
            lhs = evaluate_expression(word_expression(presentation, [(u, -s), (v, t)]), x)
            rhs = evaluate_expression(
                pair_expansion(s, t, depth, u, v, right_bound=x.max_weight()), x
            )
            assert lhs == rhs, (s, t, depth)


def test_pair_expansion_tails_reach_the_right_bound():
    # u and v differ, so a two-letter word's right factor names its family:
    # J_{k+t}(v) for the k-tail, J_{depth+1+i}(u) for the reordered tail.
    u = mono(HEIS, (-1, "a"))
    v = mono(HEIS, (-2, "a"))
    for s, t, depth, right_bound in [(0, 0, 2, 9), (1, -1, 1, 6), (-1, 2, 3, 8)]:
        expansion = pair_expansion(s, t, depth, u, v, right_bound=right_bound)
        top = {}
        for word in expansion.terms:
            if len(word) == 2:
                mono_right, shift = word[-1]
                top[mono_right] = max(top.get(mono_right, shift), shift)
        assert top == {
            ((-2, "a"),): right_bound,
            ((-1, "a"),): right_bound,
        }, (s, t, depth)


def test_pair_expansion_tail_shifts_are_deep():
    expansion = pair_expansion(0, 0, 2, A, A, right_bound=9)
    for word in expansion.terms:
        if len(word) == 2:
            _, last_shift = word[-1]
            assert last_shift >= 3  # depth + 1


def test_pair_tables_match_pair_expansion_and_the_double_sum():
    # _pair_head is the vector whose mode J_{t-s} is the exact head of
    # pair_expansion on a monomial pair, for every t, and
    # _pair_coefficients is the docstring's double sum over (i, j) grouped
    # by k = -depth-s-1-j+i, with the binomials written out here.
    def choose(n, j):
        return math.prod(range(n - j + 1, n + 1)) // math.factorial(j)

    def double_sum(a, s, depth):
        per_k = {}
        for j in range(depth + 1):
            for i in range(depth + a + 1):
                k = -depth - s - 1 - j + i
                per_k[k] = per_k.get(k, 0) + choose(depth + a, i) * choose(-depth - s - 1, j)
        return {k: c for k, c in per_k.items() if c}

    grid = [(s, depth) for s in range(-3, 4) for depth in range(4) if depth + s >= 0]
    for a in range(4):
        for s, depth in grid:
            table = modes_module._pair_coefficients(a, s, depth)
            assert len({k for k, _ in table}) == len(table)
            assert {k: c for k, c in table if c} == double_sum(a, s, depth), (a, s, depth)
    for presentation in (HEIS, VIR, builtin_presentation("virasoro", Fraction(-22, 5))):
        monos = [m for _, ms in enumerate_basis(presentation, 3) for m in ms]
        for mono_a, mono_b in itertools.product(monos, repeat=2):
            u = FockVector.from_monomial(presentation, mono_a)
            v = FockVector.from_monomial(presentation, mono_b)
            for s, depth in grid:
                head = modes_module._pair_head(presentation, mono_a, mono_b, s, depth)
                for t in range(-3, 4):
                    # J_0(vac) is the empty word; other vacuum modes vanish.
                    words = {((m, t - s),) if m else (): c for m, c in head if m or t == s}
                    expected = pair_expansion(s, t, depth, u, v, right_bound=None)
                    assert words == expected.terms, (mono_a, mono_b, s, t, depth)


# --- filtration witnesses ------------------------------------------------------------


def test_find_witness_on_singleton():
    word = ((((-1, "a"),), 0),)
    assert find_witness(word, 0) is not None
    assert find_witness(word, -1) is None


def test_find_witness_fails_on_plain_zero_mode():
    (word,) = mode_symbol(A, 0).terms
    assert find_witness(word, -1) is None


def test_find_witness_takes_the_first_least_suffix():
    # Suffix degrees 0, -1, 0, -1, 0: the least is -1, first at position 1.
    (word,) = parse_uea("J[-1](a[-1]vac)J[1](a[-1]vac)" * 2, HEIS).terms
    witness = find_witness(word, -1)
    assert (witness.word, witness.position, witness.suffix_degree) == (word, 1, -1)
    assert find_witness(word, -2) is None


# --- word reduction -------------------------------------------------------------------


def test_reduce_singleton_is_identity():
    for u in basis_vectors(HEIS, 3):
        result, trace = reduce_word(HEIS, [(u, 0)], 1)
        assert result == u
        assert trace.steps == []


def test_reduce_requires_degree_zero():
    with pytest.raises(ValueError):
        reduce_word(HEIS, [(A, 1), (A, 0)], 1)


@pytest.mark.parametrize("letters", (1, 2), ids=("one-letter", "two-letter"))
def test_reduce_rejects_an_unknown_variant(letters):
    # A one-letter word needs no rewriting, and is refused all the same.
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        reduce_word(HEIS, [(A, 0)] * letters, 1, "bogus")


def test_reduce_pair_matches_star_product():
    for presentation in (HEIS, VIR):
        for level in (0, 1, 2):
            for u in basis_vectors(presentation, 3):
                for v in basis_vectors(presentation, 3):
                    got, _ = reduce_word(presentation, [(u, 0), (v, 0)], level + 1)
                    assert got == star_product(u, v, level)


def test_reduce_boson_pair_explicitly():
    got, _ = reduce_word(HEIS, [(A, 0), (A, 0)], 1)
    assert got == mono(HEIS, (-1, "a"), (-1, "a"))


def test_reduce_handles_vacuum_arguments_exactly():
    vac = FockVector.vacuum(HEIS)
    for level in (0, 1, 2):
        got, _ = reduce_word(HEIS, [(A, 0), (vac, 0)], level + 1)
        assert got == star_product(A, vac, level)


@st.composite
def degree_zero_words(draw, presentation):
    """Factors of a degree-zero word of 2-4 letters over basis monomials of
    weight at most 3, vacuum included."""
    pool = basis_vectors(presentation, 3)
    length = draw(st.integers(2, 4))
    shifts = [draw(st.integers(-3, 3)) for _ in range(length - 1)]
    shifts.append(-sum(shifts))
    return [(draw(st.sampled_from(pool)), shift) for shift in shifts]


@settings(max_examples=30, deadline=None)
@given(
    st.data(),
    st.sampled_from((HEIS, VIR)),
    st.sampled_from(("rightmost", "leftmost")),
    st.integers(1, 3),
)
def test_reduction_does_not_depend_on_memo_state(data, presentation, variant, mod_level):
    factors = data.draw(degree_zero_words(presentation))

    def reduce():
        result, trace = reduce_word(presentation, factors, mod_level, variant)
        return result, trace.to_jsonable()

    shared = reduce()  # the tables as earlier examples and tests left them
    voa.clear_caches()
    cold = reduce()
    assert shared == cold == reduce()


def test_tampered_mode_table_reaches_reduce_word_after_a_clear(monkeypatch):
    # A warm pair-head table must be emptied by clear_caches, or a rewrite
    # would keep reading heads formed from the old mode table.
    u = mono(HEIS, (-1, "a"), (-1, "a"))
    v = mono(HEIS, (-2, "a"))
    warm, _ = reduce_word(HEIS, [(u, 0), (v, 0)], 1)
    original = voa._mode_mono

    def tampered(presentation, umono, n, vmono):
        combo = original(presentation, umono, n, vmono)
        if len(umono) >= 2 and combo:
            (first, coeff), *rest = combo
            return ((first, coeff + 1), *rest)
        return combo

    monkeypatch.setattr(voa, "_mode_mono", tampered)
    voa.clear_caches()
    try:
        got, _ = reduce_word(HEIS, [(u, 0), (v, 0)], 1)
    finally:
        voa.clear_caches()
    assert got != warm


def test_trace_replay_reproduces_output():
    factors = [(A, 2), (A, -2), (A, 1), (A, -1)]
    result, trace = reduce_word(HEIS, factors, 2)
    assert replay_trace(HEIS, factors, trace) == result
    assert all(step.depth + 1 >= trace.mod_level for step in trace.steps)


def test_trace_replay_rejects_an_altered_step():
    factors = [(A, 2), (A, -2), (A, 1), (A, -1)]
    _, trace = reduce_word(HEIS, factors, 2)
    for name in ("depth", "produced_words"):
        steps = list(trace.steps)
        steps[0] = steps[0]._replace(**{name: getattr(steps[0], name) + 1})
        with pytest.raises(ValueError, match="deterministic replay"):
            replay_trace(HEIS, factors, dataclasses.replace(trace, steps=steps))


def test_trace_records_discard_depths():
    # depth = max(L-1, L-1-t, -s) = 3 at mod level L = 3 with s = t = -1.
    _, trace = reduce_word(HEIS, [(A, 1), (A, -1)], 3)
    (step,) = trace.steps
    record = step.to_jsonable()
    assert (record["s"], record["t"], record["depth"]) == (-1, -1, 3)
    families = {d["family"]: (d["position"], d["min_suffix_shift"]) for d in record["discarded"]}
    assert families == {"right_tail": (0, 3), "reordered_tail": (0, 4)}


def test_reduction_semantics_on_kernel_subspace():
    rng = random.Random(31)
    pool = basis_vectors(HEIS, 3)
    kernel_cache = {}
    for _ in range(10):
        length = rng.choice([2, 3])
        shifts = [rng.randint(-3, 3) for _ in range(length - 1)]
        last = -sum(shifts)
        if abs(last) > 3:
            continue
        shifts.append(last)
        factors = [(pool[rng.randrange(len(pool))], k) for k in shifts]
        mod_level = rng.choice([1, 2])
        level = mod_level - 1
        if level not in kernel_cache:
            kernel_cache[level] = omega_subspace(HEIS, level, 6)
        result, _ = reduce_word(HEIS, factors, mod_level)
        original = word_expression(HEIS, factors)
        reduced = mode_symbol(result, 0)
        for x in kernel_cache[level]:
            assert evaluate_expression(original, x) == evaluate_expression(reduced, x)


def test_reduction_orders_agree_modulo_ideal():
    factors = [(A, 1), (A, -1), (A, -2), (A, 2)]
    right, _ = reduce_word(HEIS, factors, 1)
    left, _ = reduce_word(HEIS, factors, 1, variant="leftmost")
    if right == left:
        pytest.skip("orders happened to agree exactly")
    difference = right - left
    ctx = build_zhu_context(HEIS, 0, max(6, difference.max_weight()))
    assert ctx.reduce(difference).is_zero


# --- the compatibility suite -------------------------------------------------------


def test_homomorphism_check_sizes_each_commutator_context(monkeypatch):
    # Perturb the reductions of two reversed pairs (v, u) by elements of the
    # level-0 ideal of weights 3 and 4. Their exact product checks fail, and
    # the commutators of (u, v), which read those entries, differ by the
    # perturbations: the second context must be sized above the first.
    reduce_word_exact = modes_module.reduce_word
    states = basis_vectors(HEIS, 2)
    perturbations = {
        (1, 0): translation_row(HEIS, mono(HEIS, *[(-1, "a")] * 2)),
        (2, 1): translation_row(HEIS, mono(HEIS, *[(-1, "a")] * 3)),
    }
    assert [x.max_weight() for x in perturbations.values()] == [3, 4]

    def perturbed(presentation, factors, *args):
        result, trace = reduce_word_exact(presentation, factors, *args)
        key = tuple(states.index(x) for x, _ in factors)
        return result + perturbations.get(key, FockVector.zero(HEIS)), trace

    monkeypatch.setattr(modes_module, "reduce_word", perturbed)
    doc = homomorphism_check(HEIS, 0, 2)
    records = {r.name.split("/")[-1]: r for r in doc.sorted_checks()}
    product = records["reduction_matches_star_product"]
    assert product.status == "fail"
    assert product.witness == {"u": format_element(states[1]), "v": format_element(states[0])}
    assert records["commutator_modulo_ideal"].status == "pass"
    assert records["action_on_kernel_subspace"].status == "pass"


def test_homomorphism_check_reports_a_commutator_outside_the_ideal(monkeypatch):
    # The reductions of the reversed pairs (2, 1) and (3, 1) gain the vacuum,
    # which is never in the span. Their product checks fail, and the
    # commutators of (1, 2) and (1, 3), whose own product checks pass, differ
    # from the star commutators by the vacuum; (1, 2) comes first.
    reduce_word_exact = modes_module.reduce_word
    states = basis_vectors(HEIS, 2)
    vac = FockVector.vacuum(HEIS)

    def perturbed(presentation, factors, *args):
        result, trace = reduce_word_exact(presentation, factors, *args)
        key = tuple(states.index(x) for x, _ in factors)
        return (result + vac if key in {(2, 1), (3, 1)} else result), trace

    monkeypatch.setattr(modes_module, "reduce_word", perturbed)
    doc = homomorphism_check(HEIS, 0, 2)
    records = {r.name: r for r in doc.sorted_checks()}
    product = records["reduction_matches_star_product"]
    assert product.status == "fail"
    assert product.witness == {"u": format_element(states[2]), "v": format_element(states[1])}
    commutator = records["commutator_modulo_ideal"]
    assert commutator.status == "fail"
    assert commutator.witness == {
        "u": format_element(states[1]),
        "v": format_element(states[2]),
    }
    assert records["action_on_kernel_subspace"].status == "pass"


def test_homomorphism_check_forms_each_pair_once(monkeypatch):
    reduce_word_exact, star_product_exact = modes_module.reduce_word, modes_module.star_product
    states = basis_vectors(HEIS, 3)
    reductions, stars = [], []

    def counting_reduce_word(presentation, factors, *args):
        reductions.append(tuple(states.index(x) for x, _ in factors))
        return reduce_word_exact(presentation, factors, *args)

    def counting_star_product(u, v, level):
        stars.append((states.index(u), states.index(v)))
        return star_product_exact(u, v, level)

    monkeypatch.setattr(modes_module, "reduce_word", counting_reduce_word)
    monkeypatch.setattr(modes_module, "star_product", counting_star_product)
    assert homomorphism_check(HEIS, 1, 3).passed
    pairs = [(i, j) for i in range(len(states)) for j in range(len(states))]
    assert sorted(reductions) == sorted(stars) == pairs


def test_iso_fails_when_only_heavier_left_reductions_are_wrong(monkeypatch, capsys):
    # A mutation that no commutator check modulo the ideal can see: the
    # reduction of J_0(u) J_0(v) is off by an ideal element exactly when u is
    # heavier than v. Only the product check on that ordered pair catches it.
    reduce_word_exact = modes_module.reduce_word

    def wrong_when_left_heavier(presentation, factors, *args):
        result, trace = reduce_word_exact(presentation, factors, *args)
        (u, _), (v, _) = factors
        if u.max_weight() > v.max_weight():
            result = result + translation_row(presentation, result)
        return result, trace

    monkeypatch.setattr(modes_module, "reduce_word", wrong_when_left_heavier)
    assert cli.main(["iso", "--voa", "heisenberg", "--level", "1", "--cutoff", "3"]) == 1
    capsys.readouterr()
    doc = homomorphism_check(HEIS, 1, 3)
    records = {r.name.split("/")[-1]: r for r in doc.sorted_checks()}
    assert records["reduction_matches_star_product"].status == "fail"
    assert records["commutator_modulo_ideal"].status == "pass"
    witness = records["reduction_matches_star_product"].witness
    assert witness == {"u": format_element(A), "v": format_element(FockVector.vacuum(HEIS))}


@st.composite
def vectors_with_vacuum(draw, presentation):
    """Inhomogeneous vectors of weight at most 3 with a vacuum component."""
    monos = [m for _, ms in enumerate_basis(presentation, 3) for m in ms if m]
    chosen = [()] + draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    return FockVector(presentation, {m: draw(coeffs) for m in chosen})


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from((HEIS, VIR)))
def test_zero_mode_matches_letter_by_letter_evaluation(data, presentation):
    # J_0(u) evaluated letter by letter is o(u): each basis monomial m of u
    # acts by m_{wt(m)-1}, read from the mode table, and the vacuum acts as
    # the identity.
    u = data.draw(vectors_with_vacuum(presentation))
    x = data.draw(vectors_with_vacuum(presentation))
    expected = FockVector(presentation)
    for m, c in u.terms.items():
        expected = expected + c * mode_action(
            FockVector.from_monomial(presentation, m), voa.monomial_weight(m) - 1, x
        )
    assert evaluate_expression(mode_symbol(u, 0), x) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.data(),
    st.sampled_from((HEIS, VIR)),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_add_two_letters_matches_word_expression(data, presentation, p, q, coeff):
    u = data.draw(vectors_with_vacuum(presentation))
    v = data.draw(vectors_with_vacuum(presentation))
    base = word_expression(presentation, [(v, p), (u, q)])
    acc = dict(base.terms)
    modes_module._add_two_letters(acc, u, p, v, q, coeff)
    expected = base + coeff * word_expression(presentation, [(u, p), (v, q)])
    assert UEAExpression(presentation, acc) == expected


# --- two-letter tables against the per-word loops ------------------------------
#
# The product side, the pair tails and the reordering residual are built as
# integer tables keyed by (swapped, right shift) and expanded once per entry.
# The references below build the same sums one (i, j) or (k, j) word family
# at a time, each through its own _add_two_letters call.

LEE_YANG = builtin_presentation("virasoro", Fraction(-22, 5))


def per_word_product_side(u, v, m, n, ell, right_bound=None):
    i_top = ell if ell >= 0 else right_bound - min(m, n)
    acc = {}
    for i in range(i_top + 1):
        c = binomial(ell, i)
        if not c:
            continue
        coeff = -c if i % 2 else c
        if ell >= 0 or n + i <= right_bound:
            modes_module._add_two_letters(acc, u, m + ell - i, v, n + i, coeff)
        if ell >= 0 or m + i <= right_bound:
            swapped = -coeff if ell % 2 == 0 else coeff
            modes_module._add_two_letters(acc, v, n + ell - i, u, m + i, swapped)
    return UEAExpression(u.presentation, acc)


def add_per_word_pair_tails(acc, s, t, depth, u, v, k_top, i_top):
    for k in range(depth + 1, k_top + 1):
        c = sum(
            (-1 if j % 2 else 1) * binomial(depth + s + j, j) * binomial(depth + s + k, k - j)
            for j in range(depth + 1)
        )
        if c:
            modes_module._add_two_letters(acc, u, -k - s, v, k + t, -c)
    sign = -1 if (depth + s + 1) % 2 else 1
    for i in range(i_top + 1):
        c = sum(
            binomial(depth + s + j, j) * binomial(depth + s + j + i, i) for j in range(depth + 1)
        )
        if c:
            modes_module._add_two_letters(acc, v, t - depth - s - 1 - i, u, depth + 1 + i, sign * c)


def per_word_residual(s, t, depth, u, v, bound):
    right_bound = max(bound, depth + 1, t + depth)
    acc = {}
    for j in range(depth + 1):
        side = per_word_product_side(u, v, depth + 1, t + j, -depth - s - 1 - j, right_bound)
        add_scaled(acc, side.terms.items(), binomial(-depth - s - 1, j))
    modes_module._add_two_letters(acc, u, -s, v, t, -1)
    k_top, i_top = bound - max(s, t), bound - depth - 1 - max(0, s - t)
    add_per_word_pair_tails(acc, s, t, depth, u, v, k_top, i_top)
    kept = {w: c for w, c in acc.items() if all(-bound <= k <= bound for _, k in w)}
    return UEAExpression(u.presentation, kept)


@st.composite
def argument_pairs(draw):
    """``(u, v)`` from :func:`vectors_with_vacuum` on one presentation, with
    ``u is v`` in about half of the draws."""
    presentation = draw(st.sampled_from((HEIS, VIR, LEE_YANG)))
    u = draw(vectors_with_vacuum(presentation))
    return u, (u if draw(st.booleans()) else draw(vectors_with_vacuum(presentation)))


@settings(max_examples=60, deadline=None)
@given(st.data(), argument_pairs(), st.integers(-3, 3), st.integers(-3, 3), st.integers(-1, 10))
def test_reordering_residual_table_matches_the_per_word_loops(data, pair, s, t, bound):
    depth = data.draw(st.integers(max(0, -s), 4), label="depth")
    u, v = pair
    got = reordering_residual(s, t, depth, u, v, bound)
    assert got == per_word_residual(s, t, depth, u, v, bound)


@settings(max_examples=60, deadline=None)
@given(st.data(), argument_pairs(), st.integers(-3, 3), st.integers(-3, 3), st.integers(-4, 3))
def test_product_side_table_matches_the_per_word_loop(data, pair, m, n, ell):
    bound = st.integers(max(m, n), max(m, n) + 6)
    right_bound = data.draw(bound if ell < 0 else st.none() | bound, label="right_bound")
    u, v = pair
    got = expand_product_side(u, v, m, n, ell, right_bound)
    assert got == per_word_product_side(u, v, m, n, ell, right_bound)


@settings(max_examples=60, deadline=None)
@given(st.data(), argument_pairs(), st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 8))
def test_pair_tail_table_matches_the_per_word_loops(data, pair, s, t, right_bound):
    depth = data.draw(st.integers(max(0, -s), 4), label="depth")
    u, v = pair
    # The head has no tails: with right_bound=None it is built per term.
    acc = dict(pair_expansion(s, t, depth, u, v).terms)
    add_per_word_pair_tails(acc, s, t, depth, u, v, right_bound - t, right_bound - depth - 1)
    expected = UEAExpression(u.presentation, acc)
    assert pair_expansion(s, t, depth, u, v, right_bound=right_bound) == expected


def test_homomorphism_check_passes():
    for presentation in (HEIS, VIR):
        for level in (0, 1):
            doc = homomorphism_check(presentation, level, 3)
            assert doc.passed, [
                (r.name, r.witness) for r in doc.sorted_checks() if r.status == "fail"
            ]
