import ast
import dataclasses
import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhu_forge import (
    FockVector,
    apply_generator_mode,
    axiom_suite,
    basis_vectors,
    builtin_presentation,
    enumerate_basis,
    format_element,
    mode_action,
    monomial_weight,
)
from zhu_forge import voa
from zhu_forge.combinatorics import binomial
from zhu_forge.suites import presentation_checks
from zhu_forge.voa import BracketTerm, mode_sum

HEIS = builtin_presentation("heisenberg")
VIR = builtin_presentation("virasoro", Fraction(1, 2))


def mono_vec(presentation, *modes):
    return FockVector.from_monomial(presentation, tuple(modes))


A = mono_vec(HEIS, (-1, "a"))
VAC_H = FockVector.vacuum(HEIS)
VAC_V = FockVector.vacuum(VIR)
OMEGA_H = HEIS.conformal_vector()
OMEGA_V = VIR.conformal_vector()


# --- independent oracles -----------------------------------------------------


def partitions(total, max_part=None):
    """All partitions of ``total`` with parts bounded by ``max_part``."""
    if max_part is None:
        max_part = total
    if total == 0:
        return [()]
    out = []
    for part in range(min(total, max_part), 0, -1):
        for rest in partitions(total - part, part):
            out.append((part,) + rest)
    return out


def boson_apply(m, state):
    """Free-boson mode action on dicts keyed by ascending creation tuples.

    a(m) commutes past creations except for the contraction [a(m), a(-m)] = m,
    so each occurrence of -m contributes m times the monomial without it.
    """
    out = {}
    for mono, coeff in state.items():
        if m < 0:
            new = tuple(sorted(mono + (m,)))
            out[new] = out.get(new, 0) + coeff
        elif m == 0:
            continue
        else:
            count = mono.count(-m)
            if count:
                parts = list(mono)
                parts.remove(-m)
                new = tuple(parts)
                out[new] = out.get(new, 0) + m * count * coeff
    return {k: v for k, v in out.items() if v}


def boson_virasoro_apply(n, state, max_weight):
    """L(n) on the boson Fock space through the normal-ordered quadratic sum."""
    out = {}
    bound = max_weight + abs(n) + 2
    for j in range(-bound, bound + 1):
        p, q = j, n - j
        lo, hi = min(p, q), max(p, q)
        step = boson_apply(lo, boson_apply(hi, state))
        for mono, coeff in step.items():
            out[mono] = out.get(mono, 0) + Fraction(coeff, 2)
    return {k: v for k, v in out.items() if v}


def to_kernel(state):
    return FockVector(
        HEIS, {tuple((m, "a") for m in mono): Fraction(c) for mono, c in state.items()}
    )


# --- basis enumeration --------------------------------------------------------


def test_heisenberg_basis_counts_match_partitions():
    table = enumerate_basis(HEIS, 14)
    for w, monos in table:
        assert len(monos) == len(partitions(w))
    assert len(table[3][1]) == 3
    # The lists are fresh copies of a memo table: mutating one is harmless.
    table[3][1].clear()
    assert len(enumerate_basis(HEIS, 3)[3][1]) == 3


def test_virasoro_basis_counts_match_restricted_partitions():
    table = enumerate_basis(VIR, 14)
    for w, monos in table:
        expected = [p for p in partitions(w) if all(part >= 2 for part in p)]
        assert len(monos) == len(expected)
    assert table[1][1] == []
    assert table[0][1] == [()]


def test_basis_monomials_are_canonical_and_weighted():
    for w, monos in enumerate_basis(HEIS, 6):
        assert monos == sorted(monos)
        for mono in monos:
            assert monomial_weight(mono) == w
            assert all(m <= -1 for m, _ in mono)
    for w, monos in enumerate_basis(VIR, 6):
        for mono in monos:
            assert all(m <= -2 for m, _ in mono)


# --- generator modes against the boson oracle ---------------------------------


def test_generator_modes_match_boson_oracle():
    rng = random.Random(11)
    states = [mono for w in range(0, 6) for mono in partitions(w)]
    for _ in range(300):
        mono = states[rng.randrange(len(states))]
        neg = tuple(sorted(-p for p in mono))
        m = rng.randint(-4, 4)
        got = apply_generator_mode(HEIS, "a", m, to_kernel({neg: 1}))
        want = to_kernel(boson_apply(m, {neg: 1}))
        assert got == want, (mono, m)


def test_composite_modes_match_boson_virasoro_oracle():
    # The two-mode state (1/2)a(-1)a(-1)vac must act as the quadratic sum.
    for x in basis_vectors(HEIS, 5):
        raw = {tuple(m for m, _ in mono): coeff for mono, coeff in x.terms.items()}
        for n in range(-4, 5):
            got = mode_action(OMEGA_H, n + 1, x)
            want = to_kernel(boson_virasoro_apply(n, raw, x.max_weight()))
            assert got == want, (format_element(x), n)


# --- frozen mode values --------------------------------------------------------


def test_heisenberg_mode_examples():
    assert mode_action(A, 1, A) == VAC_H
    assert mode_action(A, 0, A).is_zero
    assert mode_action(A, -1, A) == mono_vec(HEIS, (-1, "a"), (-1, "a"))


def test_vacuum_modes_are_kronecker():
    for x in basis_vectors(HEIS, 4):
        assert mode_action(VAC_H, -1, x) == x
        for i in (-3, -2, 0, 1, 5):
            assert mode_action(VAC_H, i, x).is_zero


def test_creation_from_vacuum():
    for v in basis_vectors(HEIS, 5) + basis_vectors(VIR, 6):
        vac = FockVector.vacuum(v.presentation)
        assert mode_action(v, -1, vac) == v
        for i in range(0, v.max_weight() + 3):
            assert mode_action(v, i, vac).is_zero


def test_central_charge_values():
    assert mode_action(OMEGA_H, 3, OMEGA_H) == Fraction(1, 2) * VAC_H
    assert mode_action(OMEGA_V, 3, OMEGA_V) == Fraction(1, 4) * VAC_V
    zero = builtin_presentation("virasoro", 0)
    omega0 = zero.conformal_vector()
    assert mode_action(omega0, 3, omega0).is_zero


def test_each_virasoro_presentation_keeps_its_own_bracket():
    # Each charge's central term is a closure over that charge: built one
    # after another, every presentation still gives L(2)L(-2)vac = (c/2) vac.
    charges = [Fraction(1, 2), Fraction(-22, 5), Fraction(0), Fraction(7, 10)]
    built = [builtin_presentation("virasoro", c) for c in charges]
    for c, presentation in zip(charges, built):
        want = () if c == 0 else (((), c / 2),)
        assert voa._apply_mono(presentation, "L", 2, ((-2, "L"),)) == want
    # The charge in the bracket is checked against the stated one, not
    # multiplied in: restating it breaks omega_3 omega = (c/2) vac.
    restated = dataclasses.replace(VIR, central_charge=Fraction(5))
    assert [f["check"] for f in presentation_checks(restated)] == ["central_charge_recovered"]


def test_virasoro_hand_values():
    # L(2) L(-2)L(-2)vac = (8+c) L(-2)vac, L(4) L(-2)L(-2)vac = 3c vac,
    # L(1) L(-3)vac = 4 L(-2)vac; computed from the bracket by hand.
    c = VIR.central_charge
    x = mono_vec(VIR, (-2, "L"), (-2, "L"))
    assert mode_action(OMEGA_V, 3, x) == (8 + c) * mono_vec(VIR, (-2, "L"))
    assert mode_action(OMEGA_V, 5, x) == 3 * c * VAC_V
    assert mode_action(OMEGA_V, 2, mono_vec(VIR, (-3, "L"))) == 4 * mono_vec(VIR, (-2, "L"))


def test_grading_of_mode_action():
    rng = random.Random(23)
    pool_h = basis_vectors(HEIS, 4)
    for _ in range(120):
        u = pool_h[rng.randrange(len(pool_h))]
        v = pool_h[rng.randrange(len(pool_h))]
        i = rng.randint(-4, 4)
        out = mode_action(u, i, v)
        if out:
            assert out.is_homogeneous()
            assert out.max_weight() == u.max_weight() + v.max_weight() - i - 1


def test_truncation_bound_is_effective():
    # u_i v has weight wt(u) + wt(v) - i - 1, so it vanishes once i >= wt(u)
    # + wt(v); mode_sum skips those indices on this rule.
    for presentation in (HEIS, VIR):
        for u in basis_vectors(presentation, 5):
            for v in basis_vectors(presentation, 4):
                bound = u.max_weight() + v.max_weight()
                for i in (bound, bound + 1, bound + 5):
                    assert mode_action(u, i, v).is_zero


def test_commutator_formula_on_vectors():
    rng = random.Random(5)
    for presentation in (HEIS, VIR):
        pool = basis_vectors(presentation, 3)
        targets = basis_vectors(presentation, 4)
        for _ in range(40):
            u = pool[rng.randrange(len(pool))]
            v = pool[rng.randrange(len(pool))]
            m = rng.randint(-3, 3)
            n = rng.randint(-3, 3)
            x = targets[rng.randrange(len(targets))]
            lhs = mode_action(u, m, mode_action(v, n, x)) - mode_action(
                v, n, mode_action(u, m, x)
            )
            rhs = FockVector.zero(presentation)
            for i in range(u.max_weight() + v.max_weight() + 1):
                coeff = binomial(m, i)
                if coeff:
                    uv = mode_action(u, i, v)
                    if uv:
                        rhs = rhs + coeff * mode_action(uv, m + n - i, x)
            assert lhs == rhs


def test_mode_action_is_bilinear():
    x = mono_vec(HEIS, (-2, "a")) + 3 * mono_vec(HEIS, (-1, "a"))
    y = mono_vec(HEIS, (-1, "a"), (-1, "a"))
    assert mode_action(A, -1, x + y) == mode_action(A, -1, x) + mode_action(A, -1, y)
    assert mode_action(x + y, 0, A) == mode_action(x, 0, A) + mode_action(y, 0, A)
    assert mode_action(Fraction(2, 3) * x, 1, y) == Fraction(2, 3) * mode_action(x, 1, y)


SCALARS = st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_mode_sum_is_the_mode_action_over_weight_parts(data):
    # The kernel contract: for weight parts u_a, v_b and the pairs (k, c) of
    # expansion(a, b), mode_sum is the sum of c * (u_a)_k v_b. Its own term
    # loop is checked against the one in mode_action.
    presentation = data.draw(st.sampled_from([HEIS, VIR]))
    basis = basis_vectors(presentation, 3)

    def mixed_vector():
        pairs = st.tuples(st.sampled_from(basis), SCALARS)
        terms = data.draw(st.lists(pairs, min_size=1, max_size=4))
        return sum((c * v for v, c in terms), FockVector.zero(presentation))

    u, v = mixed_vector(), mixed_vector()
    tables: dict = {}

    def expansion(a, b):
        if (a, b) not in tables:
            pairs = data.draw(st.dictionaries(st.integers(-3, 7), SCALARS, max_size=4))
            tables[a, b] = tuple(pairs.items())
        return tables[a, b]

    got = FockVector._adopt(presentation, mode_sum(u, v, expansion))
    want = FockVector.zero(presentation)
    for a, u_a in u.weight_decomposition().items():
        for b, v_b in v.weight_decomposition().items():
            for k, c in expansion(a, b):
                want = want + c * mode_action(u_a, k, v_b)
    assert got == want


# --- presentation validation and the axiom suite -------------------------------


def test_presentation_invariants_pass():
    for presentation in (HEIS, VIR, builtin_presentation("virasoro", -2)):
        assert presentation_checks(presentation) == []


def test_presentation_invariants_witness_the_first_failure():
    # [a(m), a(n)] = m^2 delta_{m+n,0} is not antisymmetric, a(-1)vac has
    # weight 1 and c = 5 is not what omega_3 omega gives: all three fail.
    bad = voa.Presentation(
        name="bad",
        generators={"a": 1},
        brackets={("a", "a"): (BracketTerm(lambda m, n: m**2, None),)},
        central_charge=Fraction(5),
        conformal_recipe=((((-1, "a"),), Fraction(1)),),
        vacuum_thresholds={"a": 0},
    )
    doc = axiom_suite(bad, 3, jacobi_samples=5)
    (record,) = [r for r in doc.sorted_checks() if r.name == "presentation_invariants"]
    assert record.status == "fail"
    assert record.witness == {
        "check": "bracket_antisymmetry",
        "witness": {"g": "a", "h": "a", "m": -4, "n": 4},
    }
    assert presentation_checks(bad) == [
        record.witness,
        {"check": "conformal_vector_weight", "witness": "a[-1]vac"},
        {"check": "central_charge_recovered", "witness": "0 vac"},
    ]


def test_builtin_rejects_unknown_name():
    with pytest.raises(ValueError):
        builtin_presentation("lattice")
    with pytest.raises(ValueError):
        builtin_presentation("virasoro")  # needs a central charge


def test_axiom_suite_passes_quickly():
    for presentation in (HEIS, VIR):
        doc = axiom_suite(presentation, 5, seed=3, jacobi_samples=40)
        assert doc.passed, [r.witness for r in doc.sorted_checks() if r.status == "fail"]


def test_axiom_suite_catches_tampered_bracket():
    tampered = dataclasses.replace(
        VIR,
        brackets={("L", "L"): (BracketTerm(lambda m, n: m - n, "L"),)},
    )
    doc = axiom_suite(tampered, 4, seed=0, jacobi_samples=10)
    assert not doc.passed
    failing = {r.name: r.witness for r in doc.sorted_checks() if r.status == "fail"}
    assert "virasoro_bracket" in failing
    witness = failing["virasoro_bracket"]
    assert witness["m"] + witness["n"] == 0  # only the central term was dropped


def test_jacobi_sampled_catches_tampered_mode_table(monkeypatch):
    # Corrupt the mode table of composite states at one index only. The
    # sampled Jacobi identity must fail and name the first instance that
    # reads a corrupted entry.
    original = voa._mode_mono

    def tampered(presentation, umono, n, vmono):
        combo = original(presentation, umono, n, vmono)
        if len(umono) >= 2 and n == 1 and combo:
            (mono, coeff), *rest = combo
            return ((mono, coeff + 1), *rest)
        return combo

    voa.clear_caches()
    monkeypatch.setattr(voa, "_mode_mono", tampered)
    try:
        doc = axiom_suite(HEIS, 4, seed=0, jacobi_samples=40)
    finally:
        voa.clear_caches()
    failing = {r.name: r.witness for r in doc.sorted_checks() if r.status == "fail"}
    assert failing["jacobi_sampled"] == {
        "u": "a[-1]a[-1]a[-1]vac",
        "v": "a[-1]a[-1]a[-1]vac",
        "m": -3,
        "n": -1,
        "l": 1,
        "x": "a[-4]vac",
    }


def test_report_is_deterministic():
    first = axiom_suite(HEIS, 4, seed=9, jacobi_samples=25).canonical_bytes()
    second = axiom_suite(HEIS, 4, seed=9, jacobi_samples=25).canonical_bytes()
    assert first == second


def test_voa_is_the_kernel_and_holds_no_check():
    # voa.py holds the data model and the mode kernel; every check lives in
    # suites.py, and Presentation's fields are indexed directly.
    tree = ast.parse(inspect.getsource(voa))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert ".report" not in imported and "zhu_forge.report" not in imported
    assert "random" not in imported
    defined = {
        node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    } | {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    moved = {"axiom_suite", "presentation_checks", "_jacobi_instance", "PAIR_WEIGHT", "INDEX_BOUND"}
    searches = {"weight_of", "threshold_of", "bracket_terms", "labels"}
    assert defined & (moved | searches) == set()
    assert HEIS.generators == {"a": 1} and VIR.vacuum_thresholds == {"L": -1}


def test_presentation_tables_are_read_only():
    # The built-in presentations are shared, and the memo tables key on them.
    table = {"L": 2}
    copy = dataclasses.replace(VIR, generators=table)
    table["M"] = 3
    assert copy.generators == {"L": 2}
    for presentation in (HEIS, VIR, copy):
        for field in ("generators", "brackets", "vacuum_thresholds"):
            with pytest.raises(TypeError):
                getattr(presentation, field)["x"] = 0
