"""The checks of the package. The kernel modules compute values (``voa``
the mode action, ``zhu`` the Zhu products, spans and Ω_n, ``modes`` the mode
words and their rewriting), and the suites here certify them:
:func:`axiom_suite` the VOA axioms of a presentation's mode action, the
others the Zhu quotients, the reordering identity and the filtration
witnesses. The ``iso`` suite, ``modes.homomorphism_check``, is the one
suite outside this module.

Each suite function returns one :class:`ReportDocument` whose header comes
from :meth:`ReportDocument.for_suite`, and records each verdict with
:meth:`ReportDocument.record` from the check's list of failures. The command
line picks the suite for each subcommand itself (``cli.SUITES``), and the
acceptance tests call these functions directly. A suite reads values, never
another suite's report, so one suite call builds exactly one report; a
check that two suites share is one function returning its failures
(:func:`ideal_containment`). A check evaluates the
library's own expansion of an identity and does not rederive it: the
sampled Jacobi check applies the two sides that ``modes`` writes. Zhu
contexts come from the memoized :func:`zhu.build_zhu_context`, so each
truncated span is built once per process whichever suite asks for it
first; the zhu suite reads its star products, reduced, from one
:class:`StarTable` per run, and the omega suite checks the kernel subspace
that :func:`zhu.omega_subspace` returns.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain

from .linalg import add_scaled, exact
from .modes import (
    evaluate_expression,
    expand_iterate_side,
    expand_product_side,
    find_witness,
    pair_expansion,
    reordering_residual,
    word_expression,
)
from .report import CheckRecord, ReportDocument
from .voa import (
    FockVector,
    Presentation,
    basis_vectors,
    format_element,
    mode_action,
)
from .zhu import (
    ZeroModeAction,
    ZhuContext,
    build_zhu_context,
    star_product,
    star_top_weight,
    translation_row,
)


class StarTable:
    """Reductions of the star products inside the window of a Zhu context.
    Star products and reductions are linear, so ``ctx.reduce(x * y)`` is a
    sum of reduced basis-pair products. Each is formed only where
    :func:`zhu.star_top_weight` puts it in the window, reduced on first use
    and kept times :attr:`scale`, a product of the rows' and the products'
    denominators that clears those of a reduction, so sums run over ints.
    The rule is monotone and the weights ascend along the basis: the pairs
    that fit are prefixes, and every pair a sum reads fits if ``x * y`` does."""

    def __init__(self, ctx: ZhuContext) -> None:
        self.ctx = ctx
        self.basis = basis_vectors(ctx.presentation, ctx.cutoff)
        self.weights = [v.max_weight() for v in self.basis]
        self.index = {mono: i for i, v in enumerate(self.basis) for mono in v.terms}
        # width[a]: the length of that prefix for a left factor of weight a.
        self.width = [sum(self.fits(a, b) for b in self.weights) for a in range(ctx.cutoff + 1)]
        # products[i][j] is basis[i] * basis[j].
        self.products = [
            [star_product(u, v, ctx.level) for v in self.basis[: self.width[a]]]
            for u, a in zip(self.basis, self.weights)
        ]
        self._reduced = [[None] * len(row) for row in self.products]
        rows, products = ({c.denominator for x in xs for c in x.terms.values()}
                          for xs in (ctx.rows, chain.from_iterable(self.products)))
        self.scale = math.lcm(*rows) * math.lcm(*products)

    def fits(self, a: int, b: int) -> bool:
        return star_top_weight(a, b, self.ctx.level) <= self.ctx.cutoff

    def reduce(self, x: FockVector) -> dict:
        """The terms of ``scale * ctx.reduce(x)``."""
        return {mono: exact(c * self.scale) for mono, c in self.ctx.reduce(x).terms.items()}

    def reduced_product(self, x: FockVector, y: FockVector) -> dict:
        """The terms of ``scale * ctx.reduce(x * y)``."""
        acc: dict = {}
        right = [(self.index[mono], b) for mono, b in y.terms.items()]
        for mono, a in x.terms.items():
            reduced, products = self._reduced[self.index[mono]], self.products[self.index[mono]]
            for j, b in right:
                if reduced[j] is None:
                    reduced[j] = self.reduce(products[j])
                add_scaled(acc, reduced[j].items(), a * b)
        return acc


def zhu_structure_suite(presentation: Presentation, level: int, cutoff: int) -> ReportDocument:
    """Quotient-algebra structure at truncation.

    Exact checks: the vacuum class is a two-sided star identity, the
    truncated span is a two-sided star ideal, star is associative modulo the
    span for all in-range basis triples, the conformal class is central at
    level 0, and the translation rows vanish in the quotient. Products that
    leave the window are skipped, not truncated, decided by weights alone;
    every other one is read from a :class:`StarTable`.
    """
    ctx = build_zhu_context(presentation, level, cutoff)
    table = StarTable(ctx)
    basis, weights, product = table.basis, table.weights, table.reduced_product
    params = {"level": level, "cutoff": cutoff}
    doc = ReportDocument.for_suite("zhu", presentation, **params)

    failures = []
    checked = 0
    vac = FockVector.vacuum(presentation)
    for v, b in zip(basis, weights):
        reduced_v = table.reduce(v)
        if product(vac, v) != reduced_v:
            failures.append({"side": "left", "v": format_element(v)})
        if table.fits(b, 0):
            checked += 1
            if product(v, vac) != reduced_v:
                failures.append({"side": "right", "v": format_element(v)})
    doc.record("unit_class", {**params, "checked": checked}, failures)

    failures = []
    checked = 0
    for row in ctx.rows:
        r = row.max_weight()
        for u, a in zip(basis, weights):
            left, right = table.fits(a, r), table.fits(r, a)
            if not (left or right):
                break  # by monotonicity no later u fits either
            for side, fits, x, y in (("left", left, u, row), ("right", right, row, u)):
                if fits:
                    checked += 1
                    if product(x, y):
                        failures.append({"side": side, "u": format_element(u)})
    doc.record("two_sided_ideal", {**params, "checked": checked}, failures)

    # By the rule applied twice (uv)w lies at least as high as u(vw): it decides.
    failures = []
    checked = 0
    for u, a, u_products in zip(basis, weights, table.products):
        for v, b, uv, v_products in zip(basis, weights, u_products, table.products):
            for w, vw in zip(basis, v_products[: table.width[star_top_weight(a, b, level)]]):
                checked += 1
                if product(uv, w) != product(u, vw):
                    failures.append(dict(zip("uvw", map(format_element, (u, v, w)))))
    doc.record("associativity", {**params, "checked": checked}, failures)

    failures = []
    for u, a in zip(basis, weights):
        if a + 1 <= cutoff and ctx.reduce(translation_row(presentation, u)):
            failures.append({"u": format_element(u)})
    doc.record("translation_rows_vanish", params, failures)

    if level == 0:
        omega = presentation.conformal_vector()
        failures = []
        for x, b in zip(basis, weights):
            if b + 2 <= cutoff and product(omega, x) != product(x, omega):
                failures.append({"x": format_element(x)})
        doc.record("conformal_class_central", params, failures)

    if level >= 1:
        doc.record("ideal_containment", params, ideal_containment(presentation, level, cutoff))
    return doc


def ideal_containment(presentation: Presentation, level: int, cutoff: int) -> list[dict]:
    """Truncated containment of the level ideal in the one below it.

    Every spanning vector of the level-``level`` context must reduce to zero
    in the level-``level-1`` context at the same cutoff. Returns one
    ``{"vector", "residue"}`` failure per spanning vector that does not.
    """
    if level < 1:
        raise ValueError("needs level >= 1")
    upper = build_zhu_context(presentation, level, cutoff)
    lower = build_zhu_context(presentation, level - 1, cutoff)
    failures = []
    for row in upper.rows:
        residue = lower.reduce(row)
        if residue:
            failures.append({"vector": format_element(row), "residue": format_element(residue)})
    return failures


def omega_suite(presentation: Presentation, level: int, cutoff: int) -> ReportDocument:
    """The kernel subspace of :func:`zhu.omega_subspace` at truncation.

    Records its dimension; checks that the zero modes of the basis states
    preserve it, reading each ``o(v)`` as the columns of
    :class:`zhu.ZeroModeAction` (a column is ``None`` where the image of
    ``x`` leaves the span), the first such ``(v, x)`` being the witness; and
    reports whether it equals the sum of the weight spaces up to ``level``.
    The quantification is truncated at the cutoff, which the report records.
    """
    action = ZeroModeAction(presentation, level, cutoff)
    vectors = action.vectors
    basis = basis_vectors(presentation, cutoff)
    leaving = [
        {"v": format_element(v), "x": format_element(x)}
        for v in basis
        for x, column in zip(vectors, action.matrix(v))
        if column is None
    ]
    # No shift constrains the blocks of weight at most the level, so the
    # kernel contains their sum and equals it exactly when no more is found.
    low_weight_dimension = sum(v.max_weight() <= level for v in basis)

    params = {"level": level, "cutoff": cutoff}
    doc = ReportDocument.for_suite(
        "omega",
        presentation,
        **params,
        quantification=f"basis states and shifts truncated at weight {cutoff}",
    )
    doc.add(CheckRecord("kernel_dimension", params, witness={"dimension": len(vectors)}))
    doc.record("zero_modes_preserve_subspace", params, leaving)
    # Informational: equality with the low-weight sum is expected for simple
    # modules only, so a mismatch is reported, not failed.
    doc.add(
        CheckRecord(
            "low_weight_comparison",
            params,
            witness={
                "equals_low_weight_sum": len(vectors) == low_weight_dimension,
                "dimension": len(vectors),
                "low_weight_dimension": low_weight_dimension,
            },
        )
    )
    return doc


def check_appendix_ranges(
    s_range: tuple[int, int],
    t_range: tuple[int, int],
    depth_range: tuple[int, int],
    shift_bound: int,
    operator_samples: int,
) -> None:
    """Raise ``ValueError`` unless every range is nonempty, some ``s`` and
    depth in them satisfy ``depth + s >= 0`` (so that sampling can succeed),
    no depth is negative (the identity's ``j``-sum would be empty), the
    shift bound is nonnegative, at least one sample is drawn and some such
    ``s`` and some ``t`` satisfy ``|t - s| <= 2 * shift_bound``. A word
    ``J_p(x) J_q(y)`` of the residual has ``p + q = t - s``, so without such
    a pair no word lies in the window and the grid would check nothing."""
    if shift_bound < 0:
        raise ValueError(f"shift bound {shift_bound} is negative")
    if operator_samples < 1:
        raise ValueError(f"samples {operator_samples} is below 1")
    for label, (lo, hi) in (("s", s_range), ("t", t_range), ("N", depth_range)):
        if lo > hi:
            raise ValueError(f"empty {label} range {lo}..{hi}")
    if s_range[1] + depth_range[1] < 0:
        raise ValueError(
            f"no depth N in {depth_range[0]}..{depth_range[1]} satisfies N + s >= 0 "
            f"for s in {s_range[0]}..{s_range[1]}"
        )
    if depth_range[0] < 0:
        raise ValueError(f"depth N in {depth_range[0]}..{depth_range[1]} is negative")
    s_lo, s_hi = max(s_range[0], -depth_range[1]), s_range[1]
    if max(t_range[0] - s_hi, s_lo - t_range[1]) > 2 * shift_bound:
        raise ValueError(
            f"no s in {s_lo}..{s_hi} and t in {t_range[0]}..{t_range[1]} satisfy "
            f"|t - s| <= 2 * shift bound = {2 * shift_bound}, so no word is in the window"
        )


def appendix_suite(
    presentation: Presentation,
    s_range: tuple[int, int] = (-2, 2),
    t_range: tuple[int, int] = (-2, 2),
    depth_range: tuple[int, int] = (0, 4),
    shift_bound: int = 10,
    operator_samples: int = 50,
    seed: int = 0,
) -> ReportDocument:
    """Combinatorial reordering residual grid plus the operator identity.

    The residual is compared per-word over the (s, t, depth) grid with both
    word shifts bounded by ``shift_bound``. A tuple is left out of the grid
    and of its ``tuples`` count when ``depth + s < 0`` (outside the
    identity's hypothesis) or ``|t - s| > 2 * shift_bound`` (no word of total
    shift ``t - s`` has both shifts in the window). The rewrite of a mode
    pair is then checked as an operator identity on sampled tuples against
    direct evaluation. Each sample draws ``s`` from ``[max(s_lo, -N_hi),
    s_hi]`` so that a depth with ``N + s >= 0`` exists; see
    :func:`check_appendix_ranges`.
    """
    check_appendix_ranges(s_range, t_range, depth_range, shift_bound, operator_samples)
    doc = ReportDocument.for_suite(
        "appendix",
        presentation,
        s=list(s_range),
        t=list(t_range),
        N=list(depth_range),
        shift_bound=shift_bound,
        samples=operator_samples,
        seed=seed,
    )
    gen_label, gen_weight = next(iter(presentation.generators.items()))
    u = FockVector.from_monomial(presentation, ((-gen_weight, gen_label),))

    failures = []
    grid = 0
    for s in range(s_range[0], s_range[1] + 1):
        for t in range(t_range[0], t_range[1] + 1):
            for depth in range(depth_range[0], depth_range[1] + 1):
                if depth + s < 0 or abs(t - s) > 2 * shift_bound:
                    continue
                grid += 1
                residual = reordering_residual(s, t, depth, u, u, shift_bound)
                if residual:
                    failures.append({"s": s, "t": t, "N": depth, "words": len(residual.terms)})
    doc.record("reordering_residual_grid", {"tuples": grid, "shift_bound": shift_bound}, failures)

    rng = random.Random(seed)
    pool = basis_vectors(presentation, 3)
    targets = basis_vectors(presentation, 6)
    failures = []
    for _ in range(operator_samples):
        s = rng.randint(max(s_range[0], -depth_range[1]), s_range[1])
        t = rng.randint(t_range[0], t_range[1])
        depth = rng.randint(max(depth_range[0], -s), depth_range[1])
        a = pool[rng.randrange(len(pool))]
        b = pool[rng.randrange(len(pool))]
        x = targets[rng.randrange(len(targets))]
        lhs = evaluate_expression(word_expression(presentation, [(a, -s), (b, t)]), x)
        rhs = evaluate_expression(
            pair_expansion(s, t, depth, a, b, right_bound=x.max_weight()), x
        )
        if lhs != rhs:
            failures.append(
                {
                    "s": s,
                    "t": t,
                    "N": depth,
                    "u": format_element(a),
                    "v": format_element(b),
                    "x": format_element(x),
                }
            )
    doc.record(
        "pair_rewrite_operator_identity", {"samples": operator_samples, "seed": seed}, failures
    )
    return doc


def deep_tail_witness_suite(
    presentation: Presentation, levels: tuple[int, ...] = (0, 1, 2), weight_bound: int = 4
) -> ReportDocument:
    """Every circle-product expansion carries a filtration witness.

    For each level n the double-mode expansion at indices
    ``(n+1, n+1, -2n-2)`` of every basis pair must be witnessed at
    filtration level ``-(n+1)``: every word of it has a suffix that
    :func:`modes.find_witness` accepts.
    """
    doc = ReportDocument.for_suite(
        "deep_tail_witness", presentation, levels=list(levels), weight_bound=weight_bound
    )
    basis = basis_vectors(presentation, weight_bound)
    for level in levels:
        failures = []
        for u in basis:
            for v in basis:
                expansion = expand_product_side(
                    u, v, level + 1, level + 1, -2 * level - 2, right_bound=level + 8
                )
                if not all(find_witness(word, -(level + 1)) for word in expansion.terms):
                    failures.append({"u": format_element(u), "v": format_element(v)})
        params = {"level": level, "weight_bound": weight_bound}
        doc.record("circle_expansion_witnessed", params, failures)
    return doc


# Sampling bounds of :func:`axiom_suite`: state weight and mode index.
PAIR_WEIGHT = 4
INDEX_BOUND = 3


def presentation_checks(presentation: Presentation) -> list[dict]:
    """Structural invariants of the presentation data itself.

    Returns one ``{"check": name, "witness": ...}`` per failed invariant, in
    this order: bracket antisymmetry on sampled index pairs (witnessed by
    the first failing pair), the conformal vector having weight 2 (by the
    vector) and the central charge recovered from ``omega_3 omega = (c/2)
    vac`` (by ``omega_3 omega``).
    """

    def bracket_sum(g: str, h: str, m: int, n: int) -> dict[str | None, Fraction]:
        """``[g(m), h(n)] + [h(n), g(m)]``, by target."""
        out: dict[str | None, Fraction] = {}
        for first, second, mi, ni in ((g, h, m, n), (h, g, n, m)):
            for term in presentation.brackets[first, second]:
                if term.target is None and mi + ni:
                    continue
                out[term.target] = out.get(term.target, 0) + term.coeff(mi, ni)
        return out

    failures = []
    asymmetric = [
        {"g": g, "h": h, "m": m, "n": n}
        for g in presentation.generators
        for h in presentation.generators
        for m in range(-4, 5)
        for n in range(-4, 5)
        if any(bracket_sum(g, h, m, n).values())
    ]
    if asymmetric:
        failures.append({"check": "bracket_antisymmetry", "witness": asymmetric[0]})

    omega = presentation.conformal_vector()
    if not (omega.is_homogeneous() and omega.max_weight() == 2):
        failures.append({"check": "conformal_vector_weight", "witness": format_element(omega)})

    got = mode_action(omega, 3, omega)
    if got != FockVector.from_monomial(presentation, (), presentation.central_charge / 2):
        failures.append({"check": "central_charge_recovered", "witness": format_element(got)})
    return failures


def axiom_suite(
    presentation: Presentation, max_weight: int, seed: int = 0, jacobi_samples: int = 150
) -> ReportDocument:
    """Exact checks of the vacuum, grading, translation, Virasoro-bracket and
    (sampled) Jacobi axioms on the weight window ``<= max_weight``.

    The Jacobi identity is quantified over all states and integer triples,
    which is infeasible; instead ``jacobi_samples`` instances are drawn with
    the given seed from basis pairs of weight at most :data:`PAIR_WEIGHT` and
    index triples bounded by :data:`INDEX_BOUND`, each applied to a basis
    vector ``x`` inside the window: the sides ``modes.expand_product_side``
    and ``modes.expand_iterate_side``, in shifted indices, are evaluated on
    ``x`` and compared. The vacuum, grading and bracket checks are
    exhaustive on the window; the translation check is exhaustive on the
    :data:`PAIR_WEIGHT` window. Every failed record carries the witness
    tuple that reproduces it.
    """
    omega = presentation.conformal_vector()
    basis = basis_vectors(presentation, max_weight)
    params = {"cutoff": max_weight}
    doc = ReportDocument.for_suite("axioms", presentation, **params, seed=seed)
    doc.record("presentation_invariants", params, presentation_checks(presentation))

    # Vacuum: v_i vac = delta_{i,-1} v for i >= -1.
    failures = []
    vac = FockVector.vacuum(presentation)
    for v in basis:
        for i in range(-1, v.max_weight() + 3):
            got = mode_action(v, i, vac)
            want = v if i == -1 else FockVector.zero(presentation)
            if got != want:
                failures.append({"v": format_element(v), "i": i, "got": format_element(got)})
    doc.record("vacuum_modes", params, failures)

    # Grading: omega_1 acts as the weight on homogeneous vectors.
    failures = []
    for v in basis:
        got = mode_action(omega, 1, v)
        want = v.max_weight() * v
        if got != want:
            failures.append({"v": format_element(v), "got": format_element(got)})
    doc.record("l0_grading", params, failures)

    # Translation: (L(-1)u)_n = -n u_{n-1} as operators on the window.
    failures = []
    small = basis_vectors(presentation, min(max_weight, PAIR_WEIGHT))
    for u in small:
        lu = mode_action(omega, 0, u)
        for n in range(-INDEX_BOUND, INDEX_BOUND + 1):
            for x in small:
                got = mode_action(lu, n, x)
                want = -n * mode_action(u, n - 1, x)
                if got != want:
                    failures.append(
                        {"u": format_element(u), "n": n, "x": format_element(x)}
                    )
    doc.record("translation_covariance", {**params, "bound": INDEX_BOUND}, failures)

    # Virasoro bracket with central term, via omega modes.
    failures = []
    c = presentation.central_charge
    for m in range(-INDEX_BOUND, INDEX_BOUND + 1):
        for n in range(-INDEX_BOUND, INDEX_BOUND + 1):
            for x in basis:
                lm = lambda k, y: mode_action(omega, k + 1, y)  # noqa: E731
                got = lm(m, lm(n, x)) - lm(n, lm(m, x))
                want = (m - n) * lm(m + n, x)
                if m + n == 0:
                    want = want + Fraction(m**3 - m, 12) * c * x
                if got != want:
                    failures.append({"m": m, "n": n, "x": format_element(x)})
    doc.record("virasoro_bracket", {**params, "bound": INDEX_BOUND}, failures)

    # Jacobi identity on sampled instances.
    failures = []
    rng = random.Random(seed)
    pool = basis_vectors(presentation, min(max_weight, PAIR_WEIGHT))
    b = INDEX_BOUND
    for _ in range(jacobi_samples):
        u = pool[rng.randrange(len(pool))]
        v = pool[rng.randrange(len(pool))]
        m = rng.randint(-b, b)
        n = rng.randint(-b, b)
        ell = rng.randint(-b, b)
        x = basis[rng.randrange(len(basis))]
        # Shifted indices: the raw mode u_m is J_{m - wt(u) + 1}(u).
        mu, nv = m - u.max_weight() + 1, n - v.max_weight() + 1
        # A right factor of shift above wt(x) kills x, so the bound is exact.
        product_side = expand_product_side(u, v, mu, nv, ell, max(x.max_weight(), mu, nv))
        lhs = evaluate_expression(product_side, x)
        rhs = evaluate_expression(expand_iterate_side(u, v, mu, nv, ell), x)
        if lhs != rhs:
            failures.append(
                {
                    "u": format_element(u),
                    "v": format_element(v),
                    "m": m,
                    "n": n,
                    "l": ell,
                    "x": format_element(x),
                }
            )
    doc.record("jacobi_sampled", {**params, "samples": jacobi_samples, "seed": seed}, failures)
    return doc
