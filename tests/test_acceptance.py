"""Acceptance battery: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
battery is computed once per session; the determinism criterion recomputes
everything a second time and compares canonical report bytes.
"""

import random
import time
from fractions import Fraction

import pytest

from zhu_forge import (
    CheckRecord,
    FockVector,
    ReportDocument,
    axiom_suite,
    basic_circle_product,
    basic_star_product,
    basis_vectors,
    build_zhu_context,
    builtin_presentation,
    circle_product,
    evaluate_expression,
    format_element,
    homomorphism_check,
    mode_symbol,
    omega_subspace,
    reduce_word,
    star_product,
    translation_row,
    word_expression,
)
from zhu_forge.suites import (
    appendix_suite,
    deep_tail_witness_suite,
    ideal_containment,
    zhu_structure_suite,
)

SEED = 20260809
HEIS = builtin_presentation("heisenberg")
VIR_HALF = builtin_presentation("virasoro", Fraction(1, 2))
BOTH = (HEIS, VIR_HALF)
AXIOM_PRESENTATIONS = (
    HEIS,
    VIR_HALF,
    builtin_presentation("virasoro", Fraction(-2)),
    builtin_presentation("virasoro", Fraction(26)),
)

# Reduced words are only certified against a truncated span, so sampled
# words are kept when a shift/weight simulation bounds their reductions
# inside this window; rejected draws are redrawn (seeded, deterministic).
REDUCTION_WINDOW = 10


def _merge(name: str, docs: list[ReportDocument]) -> ReportDocument:
    merged = ReportDocument(config={"criterion": name, "seed": SEED})
    for doc in docs:
        tag = f"{doc.config.get('voa', '?')}:{doc.config.get('central_charge', '')}"
        for record in doc.sorted_checks():
            merged.add(
                CheckRecord(
                    name=f"{tag}/{record.name}",
                    params=record.params,
                    status=record.status,
                    witness=record.witness,
                )
            )
    return merged


def criterion_1_axioms() -> ReportDocument:
    docs = [axiom_suite(P, 6, seed=SEED, jacobi_samples=150) for P in AXIOM_PRESENTATIONS]
    return _merge("axioms", docs)


def criterion_2_level_zero_products() -> ReportDocument:
    docs = []
    for presentation in BOTH:
        vac = FockVector.vacuum(presentation)
        failures_unit = []
        failures_circle = []
        failures_star = []
        states = basis_vectors(presentation, 5)
        for u in states:
            if circle_product(u, vac, 0) != translation_row(presentation, u):
                failures_unit.append(format_element(u))
            for v in states:
                if circle_product(u, v, 0) != basic_circle_product(u, v):
                    failures_circle.append((format_element(u), format_element(v)))
                if star_product(u, v, 0) != basic_star_product(u, v):
                    failures_star.append((format_element(u), format_element(v)))
        doc = ReportDocument(
            config={
                "suite": "level_zero_products",
                "voa": presentation.name,
                "central_charge": presentation.central_charge,
                "weight_bound": 5,
            }
        )
        for name, failures in [
            ("circle_with_vacuum_is_translation", failures_unit),
            ("level_zero_circle_matches_basic", failures_circle),
            ("level_zero_star_matches_basic", failures_star),
        ]:
            doc.add(
                CheckRecord(
                    name=name,
                    params={"weight_bound": 5, "pairs": len(states) ** 2},
                    status="pass" if not failures else "fail",
                    witness=failures[0] if failures else None,
                )
            )
        docs.append(doc)
    return _merge("level_zero_products", docs)


def criterion_3_quotient_structure() -> ReportDocument:
    docs = []
    for presentation in BOTH:
        for level in (0, 1, 2):
            docs.append(zhu_structure_suite(presentation, level, 6))
    return _merge("quotient_structure", docs)


def criterion_4_level_tower() -> ReportDocument:
    docs = []
    for presentation in BOTH:
        for level in (1, 2):
            params = {"level": level, "cutoff": 6}
            doc = ReportDocument.for_suite("inverse_system", presentation, **params)
            doc.record("ideal_containment", params, ideal_containment(presentation, level, 6))
            docs.append(doc)
    return _merge("level_tower", docs)


def criterion_5_reordering() -> ReportDocument:
    docs = [
        appendix_suite(
            presentation,
            s_range=(-2, 2),
            t_range=(-2, 2),
            depth_range=(0, 4),
            shift_bound=10,
            operator_samples=50,
            seed=SEED,
        )
        for presentation in BOTH
    ]
    return _merge("reordering", docs)


def criterion_6_star_compatibility() -> ReportDocument:
    docs = [
        homomorphism_check(presentation, level, 4)
        for presentation in BOTH
        for level in (0, 1, 2)
    ]
    return _merge("star_compatibility", docs)


def criterion_7_deep_tail_witnesses() -> ReportDocument:
    return _merge(
        "deep_tail_witnesses",
        [deep_tail_witness_suite(P, levels=(0, 1, 2), weight_bound=4) for P in BOTH],
    )


def _reduction_weight_bound(shifts, weights, mod_level, variant) -> int:
    """Upper bound for the reduced components, mirroring the depth rule."""
    items = list(zip(shifts, weights))
    while len(items) > 1:
        pos = len(items) - 2 if variant == "rightmost" else 0
        (p, wa), (q, wb) = items[pos], items[pos + 1]
        s, t = -p, q
        trailing = -sum(k for k, _ in items[pos + 2 :])
        effective = mod_level + max(trailing, 0)
        depth = max(effective - 1, effective - 1 - t, -s)
        items[pos : pos + 2] = [(p + q, wa + wb + 2 * depth + s)]
    return items[0][1] if items else 0


def criterion_8_word_reduction() -> ReportDocument:
    docs = []
    for presentation in BOTH:
        rng = random.Random(SEED)
        pool = basis_vectors(presentation, 3)
        kernels = {n: omega_subspace(presentation, n, 6) for n in (0, 1, 2)}
        accepted = rejected = 0
        failures_semantic = []
        failures_confluence = []
        while accepted < 50:
            length = rng.choice([2, 3, 4])
            shifts = [rng.randint(-3, 3) for _ in range(length - 1)]
            last = -sum(shifts)
            if abs(last) > 3:
                continue
            shifts.append(last)
            args = [pool[rng.randrange(len(pool))] for _ in shifts]
            mod_level = (accepted + rejected) % 3 + 1
            weights = [max(arg.max_weight(), 0) for arg in args]
            bound = max(
                _reduction_weight_bound(shifts, weights, mod_level, "rightmost"),
                _reduction_weight_bound(shifts, weights, mod_level, "leftmost"),
            )
            if bound > REDUCTION_WINDOW:
                rejected += 1
                continue
            accepted += 1
            factors = list(zip(args, shifts))
            level = mod_level - 1
            rightmost, _ = reduce_word(presentation, factors, mod_level)
            leftmost, _ = reduce_word(presentation, factors, mod_level, variant="leftmost")
            original = word_expression(presentation, factors)
            reduced = mode_symbol(rightmost, 0)
            for x in kernels[level]:
                if evaluate_expression(original, x) != evaluate_expression(reduced, x):
                    failures_semantic.append(
                        {"shifts": shifts, "mod_level": mod_level, "x": format_element(x)}
                    )
                    break
            difference = rightmost - leftmost
            if difference:
                ctx = build_zhu_context(presentation, level, REDUCTION_WINDOW)
                if ctx.reduce(difference):
                    failures_confluence.append({"shifts": shifts, "mod_level": mod_level})
        doc = ReportDocument(
            config={
                "suite": "word_reduction",
                "voa": presentation.name,
                "central_charge": presentation.central_charge,
                "seed": SEED,
                "words": accepted,
                "rejected_draws": rejected,
                "window": REDUCTION_WINDOW,
            }
        )
        doc.add(
            CheckRecord(
                name="action_matches_on_kernel_subspace",
                params={"words": accepted, "window": REDUCTION_WINDOW},
                status="pass" if not failures_semantic else "fail",
                witness=failures_semantic[0] if failures_semantic else None,
            )
        )
        doc.add(
            CheckRecord(
                name="orders_agree_modulo_ideal",
                params={"words": accepted, "window": REDUCTION_WINDOW},
                status="pass" if not failures_confluence else "fail",
                witness=failures_confluence[0] if failures_confluence else None,
            )
        )
        docs.append(doc)
    return _merge("word_reduction", docs)


CRITERIA = [
    ("axiom suite exact at cutoff 6", criterion_1_axioms, 60.0),
    ("level-zero products match the classical forms", criterion_2_level_zero_products, None),
    ("quotient algebra structure at truncation", criterion_3_quotient_structure, 300.0),
    ("level tower containment", criterion_4_level_tower, None),
    ("reordering identity grid and operator form", criterion_5_reordering, 120.0),
    ("zero-mode words multiply like the star product", criterion_6_star_compatibility, 300.0),
    ("deep tails carry filtration witnesses", criterion_7_deep_tail_witnesses, None),
    ("seeded degree-zero word reduction", criterion_8_word_reduction, 600.0),
]


def _run_battery() -> tuple[dict[str, ReportDocument], dict[str, float]]:
    reports: dict[str, ReportDocument] = {}
    timings: dict[str, float] = {}
    for index, (label, build, _budget) in enumerate(CRITERIA, start=1):
        start = time.perf_counter()
        reports[f"criterion {index}"] = build()
        timings[f"criterion {index}"] = time.perf_counter() - start
    return reports, timings


@pytest.fixture(scope="module")
def battery():
    return _run_battery()


@pytest.mark.parametrize(
    "index", range(1, len(CRITERIA) + 1), ids=[f"criterion_{i}" for i in range(1, 9)]
)
def test_criterion(battery, index):
    reports, timings = battery
    label, _build, budget = CRITERIA[index - 1]
    doc = reports[f"criterion {index}"]
    elapsed = timings[f"criterion {index}"]
    status = "PASS" if doc.passed else "FAIL"
    print(f"criterion {index} ({label}): {status} [{elapsed:.1f}s]")
    assert doc.passed, [
        (record.name, record.witness)
        for record in doc.sorted_checks()
        if record.status == "fail"
    ]
    if budget is not None:
        assert elapsed < budget, f"criterion {index} took {elapsed:.1f}s (budget {budget}s)"


def test_criterion_9_determinism(battery):
    first, _ = battery
    start = time.perf_counter()
    second, _timings = _run_battery()
    same = all(
        first[key].canonical_bytes() == second[key].canonical_bytes() for key in first
    )
    elapsed = time.perf_counter() - start
    status = "PASS" if same else "FAIL"
    print(f"criterion 9 (reports byte-identical across reruns): {status} [{elapsed:.1f}s]")
    assert same
