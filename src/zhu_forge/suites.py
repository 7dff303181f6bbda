"""Suites that check several modules at once.

Each suite function returns a :class:`ReportDocument` whose header comes
from :meth:`ReportDocument.for_suite`. The command line picks the suite for
each subcommand itself (``cli.SUITES``), and the acceptance tests call these
functions directly. Zhu contexts come from the memoized
:func:`zhu.build_zhu_context`, so each truncated span is built once per
process whichever suite asks for it first.
"""

from __future__ import annotations

import random

from .modes import (
    evaluate_expression,
    expand_product_side,
    filtration_report,
    pair_expansion,
    reordering_residual,
    word_expression,
)
from .report import CheckRecord, ReportDocument
from .voa import FockVector, Presentation, basis_vectors, format_element
from .zhu import (
    build_zhu_context,
    inverse_system_check,
    star_in_window,
    star_product,
    translation_row,
)


def zhu_structure_suite(presentation: Presentation, level: int, cutoff: int) -> ReportDocument:
    """Quotient-algebra structure at truncation.

    Exact checks: the vacuum class is a two-sided star identity, the
    truncated span is a two-sided star ideal, star is associative modulo the
    span for all in-range basis triples, the conformal class is central at
    level 0, and the translation rows vanish in the quotient. Products
    whose output leaves the window are skipped, not truncated: every check
    decides overflow from weights alone, the star products through
    :func:`zhu.star_in_window`, so a skipped product is never formed.
    """
    ctx = build_zhu_context(presentation, level, cutoff)
    vac = FockVector.vacuum(presentation)
    basis = basis_vectors(presentation, cutoff)
    doc = ReportDocument.for_suite("zhu", presentation, level=level, cutoff=cutoff)

    def add(name: str, failures: list, extra: dict | None = None) -> None:
        params = {"level": level, "cutoff": cutoff}
        if extra:
            params.update(extra)
        doc.add(CheckRecord.from_failures(name, params, failures))

    failures = []
    checked = 0
    for v in basis:
        left = star_in_window(vac, v, level, cutoff)
        if left is not None and ctx.reduce(left) != ctx.reduce(v):
            failures.append({"side": "left", "v": format_element(v)})
        right = star_in_window(v, vac, level, cutoff)
        if right is not None:
            checked += 1
            if ctx.reduce(right) != ctx.reduce(v):
                failures.append({"side": "right", "v": format_element(v)})
    add("unit_class", failures, {"checked": checked})

    failures = []
    checked = 0
    for row in ctx.rows:
        for u in basis:
            for prod, side in ((star_in_window(u, row, level, cutoff), "left"),
                               (star_in_window(row, u, level, cutoff), "right")):
                if prod is not None:
                    checked += 1
                    if not ctx.reduce(prod).is_zero:
                        failures.append({"side": side, "u": format_element(u)})
    add("two_sided_ideal", failures, {"checked": checked})

    failures = []
    checked = 0
    # products[i][j] is basis[i] * basis[j], or None when it leaves the window.
    products = [[star_in_window(u, v, level, cutoff) for v in basis] for u in basis]
    for u, u_products in zip(basis, products):
        for v, uv, v_products in zip(basis, u_products, products):
            if uv is None:
                continue
            for w, vw in zip(basis, v_products):
                if vw is None:
                    continue
                left = star_in_window(uv, w, level, cutoff)
                if left is None:
                    continue
                right = star_in_window(u, vw, level, cutoff)
                if right is None:
                    continue
                checked += 1
                if ctx.reduce(left - right):
                    failures.append(
                        {
                            "u": format_element(u),
                            "v": format_element(v),
                            "w": format_element(w),
                        }
                    )
    add("associativity", failures, {"checked": checked})

    failures = []
    for u in basis:
        if u.max_weight() + 1 > cutoff:
            continue
        if ctx.reduce(translation_row(presentation, u)):
            failures.append({"u": format_element(u)})
    add("translation_rows_vanish", failures)

    if level == 0:
        omega = presentation.conformal_vector()
        failures = []
        for x in basis:
            if x.max_weight() + 2 > cutoff:
                continue
            left = star_product(omega, x, 0)
            right = star_product(x, omega, 0)
            if ctx.reduce(left) != ctx.reduce(right):
                failures.append({"x": format_element(x)})
        add("conformal_class_central", failures)

    if level >= 1:
        inverse = inverse_system_check(presentation, level, cutoff)
        doc.extend(inverse.checks)
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
    shift bound is nonnegative and at least one sample is drawn."""
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

    The residual is compared per-word over the full (s, t, depth) grid with
    both word shifts bounded; the rewrite of a mode pair is then checked as
    an operator identity on sampled tuples against direct evaluation. Each
    sample draws ``s`` from ``[max(s_lo, -N_hi), s_hi]`` so that a depth with
    ``N + s >= 0`` exists; see :func:`check_appendix_ranges`.
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
    gen_label, gen_weight = presentation.generators[0]
    u = FockVector.from_monomial(presentation, ((-gen_weight, gen_label),))

    failures = []
    grid = 0
    for s in range(s_range[0], s_range[1] + 1):
        for t in range(t_range[0], t_range[1] + 1):
            for depth in range(depth_range[0], depth_range[1] + 1):
                if depth + s < 0:
                    continue
                grid += 1
                residual = reordering_residual(s, t, depth, u, u, shift_bound)
                if residual:
                    failures.append({"s": s, "t": t, "N": depth, "words": len(residual.terms)})
    doc.add(
        CheckRecord.from_failures(
            "reordering_residual_grid", {"tuples": grid, "shift_bound": shift_bound}, failures
        )
    )

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
    doc.add(
        CheckRecord.from_failures(
            "pair_rewrite_operator_identity", {"samples": operator_samples, "seed": seed}, failures
        )
    )
    return doc


def deep_tail_witness_suite(
    presentation: Presentation, levels: tuple[int, ...] = (0, 1, 2), weight_bound: int = 4
) -> ReportDocument:
    """Every circle-product expansion carries a filtration witness.

    For each level n the double-mode expansion at indices
    ``(n+1, n+1, -2n-2)`` of every basis pair must be witnessed at
    filtration level ``-(n+1)``.
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
                report = filtration_report(expansion, -(level + 1))
                if not report.passed:
                    failures.append({"u": format_element(u), "v": format_element(v)})
        params = {"level": level, "weight_bound": weight_bound}
        doc.add(CheckRecord.from_failures("circle_expansion_witnessed", params, failures))
    return doc

