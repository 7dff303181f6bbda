import importlib
import json
import pkgutil
import sys
from collections import Counter
from fractions import Fraction

import pytest

import zhu_forge
from zhu_forge import FockVector, builtin_presentation, cli, modes, voa, zhu
from zhu_forge.linalg import Combination
from zhu_forge.report import ReportDocument
from zhu_forge.suites import (
    StarTable,
    appendix_suite,
    deep_tail_witness_suite,
    omega_suite,
    zhu_structure_suite,
)

HEIS = builtin_presentation("heisenberg")
VIR = builtin_presentation("virasoro", Fraction(1, 2))
LEE_YANG = builtin_presentation("virasoro", Fraction(-22, 5))


def test_zhu_structure_suite_counts_in_range_checks():
    doc = zhu_structure_suite(HEIS, 0, 5)
    records = {record.name: record for record in doc.sorted_checks()}
    assert records["associativity"].params["checked"] > 0
    assert records["two_sided_ideal"].params["checked"] > 0
    assert doc.passed


def rebind(monkeypatch, original, replacement):
    """Rebind ``original`` in every ``zhu_forge`` module that holds it,
    since the modules import each other's functions by name."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "zhu_forge" or name.startswith("zhu_forge.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)
    return original


@pytest.mark.parametrize("presentation", (HEIS, VIR, LEE_YANG), ids=("heis", "c=1/2", "c=-22/5"))
@pytest.mark.parametrize("level, cutoff", ((0, 6), (1, 6), (2, 6)))
def test_star_table_sums_equal_direct_products(presentation, level, cutoff):
    # Every checked triple and ideal pair, read from the table, equals the
    # reduction of the products formed directly (both times the table's
    # scale); the counts match the report.
    ctx = zhu.build_zhu_context(presentation, level, cutoff)
    table = StarTable(ctx)
    star, top, fits = zhu.star_product, zhu.star_top_weight, table.fits
    basis = list(zip(table.basis, table.weights))
    triples = 0
    for u, a in basis:
        for v, b in basis:
            for w, c in basis:
                if not (fits(top(a, b, level), c) and fits(a, top(b, c, level))):
                    continue
                triples += 1
                uv, vw = star(u, v, level), star(v, w, level)
                left = FockVector._adopt(presentation, table.reduced_product(uv, w))
                right = FockVector._adopt(presentation, table.reduced_product(u, vw))
                direct = table.reduce(star(uv, w, level) - star(u, vw, level))
                assert left - right == FockVector._adopt(presentation, direct)
    pairs = 0
    for row in ctx.rows:
        r = row.max_weight()
        for u, a in basis:
            if fits(a, r):
                pairs += 1
                assert table.reduced_product(u, row) == table.reduce(star(u, row, level))
            if fits(r, a):
                pairs += 1
                assert table.reduced_product(row, u) == table.reduce(star(row, u, level))
    # The scale clears every denominator of the reduced pairs.
    entries = [entry for row in table._reduced for entry in row if entry is not None]
    assert entries and all(type(c) is int for entry in entries for c in entry.values())
    doc = zhu_structure_suite(presentation, level, cutoff)
    params = {record.name: record.params for record in doc.sorted_checks()}
    assert params["associativity"]["checked"] == triples > 0
    assert params["two_sided_ideal"]["checked"] == pairs > 0


def test_zhu_suite_reports_a_perturbed_product(monkeypatch):
    # a *_0 a gains the vacuum. Then (a a) w gains reduce(w), while a (a w)
    # gains the vacuum only if a w holds a itself, as a vac and a a do; so
    # w = a(-2)vac, which is not in the span, is the first failure.
    a = FockVector.from_monomial(HEIS, ((-1, "a"),))
    vac = FockVector.vacuum(HEIS)

    def perturbed(u, v, level):
        product = original(u, v, level)
        return product + vac if (u, v) == (a, a) else product

    original = rebind(monkeypatch, zhu.star_product, perturbed)
    records = {record.name: record for record in zhu_structure_suite(HEIS, 0, 4).sorted_checks()}
    associativity = records["associativity"]
    assert associativity.status == "fail"
    assert associativity.witness == {"u": "a[-1]vac", "v": "a[-1]vac", "w": "a[-2]vac"}
    assert records["unit_class"].status == "pass"


@pytest.mark.parametrize("presentation", (HEIS, VIR), ids=("heis", "c=1/2"))
@pytest.mark.parametrize("level", (0, 1, 2))
def test_zhu_suite_forms_each_basis_product_once_inside_the_window(
    monkeypatch, presentation, level
):
    cutoff = 6
    basis = set(voa.basis_vectors(presentation, cutoff))
    calls = Counter()

    def counting(u, v, n):
        product = original(u, v, n)
        calls[u, v] += 1
        assert product.max_weight() <= cutoff
        return product

    original = rebind(monkeypatch, zhu.star_product, counting)
    assert zhu_structure_suite(presentation, level, cutoff).passed
    assert calls and set(calls.values()) == {1}
    assert all(u in basis and v in basis for u, v in calls)


def test_omega_reports_the_first_zero_mode_image_outside_the_subspace(monkeypatch, tmp_path):
    # Omega_1 of the Heisenberg module is spanned by vac and a. Two zero-mode
    # images are pushed out of it; the witness is the first in the order of
    # the basis states v, then the kernel vectors x. The image of
    # (basis[3], vac) is zero, so its row has no entry to mark until one is
    # inserted.
    basis = voa.basis_vectors(HEIS, 4)
    (m2,), (m3,) = basis[2].terms, basis[3].terms
    leaving = {(m3, 0), (m2, 1)}  # (basis[3], vac) and (basis[2], a)

    def perturbed(self, mono):
        row = dict(original(self, mono))
        row.update((k, None) for m, k in leaving if m == mono)
        return tuple(sorted(row.items()))

    original = zhu.ZeroModeAction._build_row
    monkeypatch.setattr(zhu.ZeroModeAction, "_build_row", perturbed)
    out = tmp_path / "omega.json"
    argv = ["omega", "--voa", "heisenberg", "--level", "1", "--cutoff", "4", "--out", str(out)]
    assert cli.main(argv) == 1
    records = {r["name"]: r for r in json.loads(out.read_text())["checks"]}
    preserve = records["omega/zero_modes_preserve_subspace"]
    assert preserve["status"] == "fail"
    assert preserve["witness"] == {"v": voa.format_element(basis[2]), "x": "a[-1]vac"}
    assert records["omega/kernel_dimension"] == {
        "name": "omega/kernel_dimension",
        "params": {"cutoff": 4, "level": 1},
        "status": "pass",
        "witness": {"dimension": 2},
    }


def test_each_suite_builds_exactly_one_report(monkeypatch):
    # A suite reads values, never another suite's report.
    built = []
    init = ReportDocument.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ReportDocument, "__init__", counting)
    suites = {
        "zhu": lambda: zhu_structure_suite(HEIS, 1, 4),
        "omega": lambda: omega_suite(HEIS, 1, 4),
        "iso": lambda: modes.homomorphism_check(HEIS, 1, 4),
        "deep_tail": lambda: deep_tail_witness_suite(HEIS, levels=(0, 1), weight_bound=3),
        "appendix": lambda: appendix_suite(HEIS, depth_range=(0, 2), operator_samples=5),
        "axioms": lambda: zhu_forge.axiom_suite(HEIS, 3),
    }
    for name, run in suites.items():
        built.clear()
        doc = run()
        assert len(built) == 1 and built[0] is doc, name


def test_iso_on_a_passing_run_forms_no_commutator_difference(monkeypatch):
    # The zero modes are read one row per distinct monomial: the 12 states
    # and the terms of the 144 reductions hold 136 distinct monomials, and no
    # row is built twice. Every product check passes, so no difference is
    # formed.
    calls = Counter()

    def counting_build_row(self, mono):
        calls["row", mono] += 1
        return build_row(self, mono)

    def counting_combine(self, other, coeff):
        calls["combine"] += 1
        return combine(self, other, coeff)

    build_row = zhu.ZeroModeAction._build_row
    monkeypatch.setattr(zhu.ZeroModeAction, "_build_row", counting_build_row)
    combine = Combination._combine
    monkeypatch.setattr(Combination, "_combine", counting_combine)
    assert modes.homomorphism_check(HEIS, 1, 4).passed
    rows = {key[1]: n for key, n in calls.items() if key != "combine"}
    states = voa.basis_vectors(HEIS, 4)
    distinct = {mono for v in states for mono in v.terms} | {
        mono
        for u in states
        for v in states
        for mono in modes.reduce_word(HEIS, [(u, 0), (v, 0)], 2)[0].terms
    }
    assert set(rows) == distinct and set(rows.values()) == {1}
    assert (len(rows), calls["combine"]) == (136, 0)


def test_iso_fails_when_a_zero_mode_leaves_the_kernel_subspace(monkeypatch):
    # o(a[-1]a[-1]vac) = 2 L(0) sends a to 2a. Pushing that image out of
    # Omega_1 = span(vac, a) fails the action check where a column of it is
    # first needed: u = vac, v = a[-1]a[-1]vac and x = a, the first triple
    # in the order of u, then v, then x. The product checks still pass.
    aa = ((-1, "a"), (-1, "a"))

    def pushed_out(self, mono):
        row = build_row(self, mono)
        return tuple((k, None if (mono, k) == (aa, 1) else c) for k, c in row)

    build_row = zhu.ZeroModeAction._build_row
    monkeypatch.setattr(zhu.ZeroModeAction, "_build_row", pushed_out)
    doc = modes.homomorphism_check(HEIS, 1, 3)
    records = {r.name.split("/")[-1]: r for r in doc.sorted_checks()}
    action = records["action_on_kernel_subspace"]
    assert action.status == "fail"
    assert action.witness == {"u": "1 vac", "v": "a[-1]a[-1]vac", "x": "a[-1]vac"}
    assert records["reduction_matches_star_product"].status == "pass"
    assert records["commutator_modulo_ideal"].status == "pass"


def test_appendix_suite_small_grid():
    doc = appendix_suite(
        HEIS, s_range=(-1, 1), t_range=(-1, 1), depth_range=(0, 2),
        shift_bound=6, operator_samples=10, seed=5,
    )
    assert doc.passed
    grid = {record.name: record for record in doc.sorted_checks()}
    assert grid["reordering_residual_grid"].params["tuples"] == 24


def test_appendix_suite_leaves_out_tuples_with_no_word_in_the_window():
    # A word J_p(x) J_q(y) of total shift t - s with |p|, |q| <= 2 needs
    # |t - s| <= 4: of t in -6..6 at s = 0, only t in -4..4 are counted.
    doc = appendix_suite(
        HEIS, s_range=(0, 0), t_range=(-6, 6), depth_range=(0, 1),
        shift_bound=2, operator_samples=1,
    )
    grid = {record.name: record for record in doc.sorted_checks()}
    assert grid["reordering_residual_grid"].params["tuples"] == 9 * 2
    with pytest.raises(ValueError, match="no word is in the window"):
        appendix_suite(HEIS, s_range=(0, 0), t_range=(5, 6), shift_bound=2)


def test_appendix_grid_expands_each_table_entry_once(monkeypatch):
    # The residual sums its words as one integer table per (s, t, N) and
    # expands only the entries that do not cancel: 118 two-letter
    # expansions over the --N 0..2 grid, where one per (i, j) or (k, j)
    # word family made 3447.
    calls = Counter()
    inside = []

    def counting_residual(*args):
        inside.append(True)
        try:
            return residual(*args)
        finally:
            inside.pop()

    def counting_add_two_letters(*args):
        calls["grid" if inside else "samples"] += 1
        return add_two_letters(*args)

    residual = rebind(monkeypatch, modes.reordering_residual, counting_residual)
    add_two_letters = modes._add_two_letters
    monkeypatch.setattr(modes, "_add_two_letters", counting_add_two_letters)
    assert appendix_suite(HEIS, depth_range=(0, 2), seed=1).passed
    assert calls["grid"] == 118


def test_deep_tail_witness_suite_passes():
    doc = deep_tail_witness_suite(VIR, levels=(0, 1), weight_bound=3)
    assert doc.passed


def test_deep_tail_witness_suite_reports_an_unwitnessed_expansion(monkeypatch):
    # A plain zero mode has no suffix of degree -1 or below, so the pair
    # whose expansion is replaced by one is the witness.
    a = FockVector.from_monomial(HEIS, ((-1, "a"),))
    vac = FockVector.vacuum(HEIS)

    def replaced(u, v, *args, **kwargs):
        return modes.mode_symbol(a, 0) if (u, v) == (a, vac) else original(u, v, *args, **kwargs)

    original = rebind(monkeypatch, modes.expand_product_side, replaced)
    records = deep_tail_witness_suite(HEIS, levels=(0, 1), weight_bound=2).sorted_checks()
    assert [(r.params["level"], r.status) for r in records] == [(0, "fail"), (1, "fail")]
    assert records[0].witness == {"u": "a[-1]vac", "v": "1 vac"}


def test_build_zhu_context_is_memoized():
    first = zhu.build_zhu_context(HEIS, 0, 4)
    assert zhu.build_zhu_context(HEIS, 0, 4) is first
    voa.clear_caches()
    assert zhu.build_zhu_context(HEIS, 0, 4) is not first


def test_zhu_span_out_builds_each_level_span_once(monkeypatch, tmp_path, capsys):
    built = []

    def counting(presentation, level, cutoff):
        built.append((level, cutoff))
        return spanning_vectors(presentation, level, cutoff)

    spanning_vectors = zhu.spanning_vectors
    voa.clear_caches()
    monkeypatch.setattr(zhu, "spanning_vectors", counting)
    argv = ["zhu", "--level", "1", "--cutoff", "4", "--span-out", str(tmp_path / "span.json")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # The zhu suite, the level tower check and --span-out share the memo.
    assert sorted(built) == [(0, 4), (1, 4)]


def test_reports_do_not_depend_on_memo_state():
    def reports():
        return (
            zhu_structure_suite(HEIS, 1, 3).canonical_bytes(),
            modes.homomorphism_check(HEIS, 1, 3).canonical_bytes(),
            zhu.c2_dims(HEIS, 3).to_csv(),
            appendix_suite(HEIS, depth_range=(0, 1), operator_samples=3, seed=1).canonical_bytes(),
        )

    first = reports()
    warm = reports()
    assert all(table.cache_info().currsize > 0 for table in voa._MEMOS)
    voa.clear_caches()
    assert all(table.cache_info().currsize == 0 for table in voa._MEMOS)
    cold = reports()
    assert first == warm == cold


def test_every_lru_cache_is_a_registered_memo():
    # clear_caches empties _MEMOS, so a cache missing from it would let
    # results depend on memo state. _intern_builtin is deliberately kept.
    modules = [
        importlib.import_module(f"zhu_forge.{info.name}")
        for info in pkgutil.iter_modules(zhu_forge.__path__)
    ]
    caches = {
        (module.__name__, name): value
        for module in modules
        for name, value in vars(module).items()
        if hasattr(value, "cache_clear") and value.__module__ == module.__name__
    }
    assert ("zhu_forge.voa", "_intern_builtin") in caches
    assert ("zhu_forge.zhu", "build_zhu_context") in caches
    registered = {id(table) for table in voa._MEMOS}
    for (module_name, name), cache in caches.items():
        if (module_name, name) != ("zhu_forge.voa", "_intern_builtin"):
            assert id(cache) in registered, f"{module_name}.{name} is not in voa._MEMOS"
    # Every table is documented where the tables are emptied.
    for table in voa._MEMOS:
        assert table.__name__ in voa.clear_caches.__doc__, f"{table.__name__} is undocumented"


def test_appendix_suite_draws_s_with_a_valid_depth():
    # s = -2 has no depth in 0..1 with N + s >= 0; sampling must avoid it.
    doc = appendix_suite(HEIS, depth_range=(0, 1), operator_samples=10, seed=1)
    assert doc.passed
    with pytest.raises(ValueError, match="empty"):
        appendix_suite(HEIS, depth_range=(5, 1))
    with pytest.raises(ValueError, match="N \\+ s >= 0"):
        appendix_suite(HEIS, s_range=(0, 0), depth_range=(-3, -1))


def test_report_document_record():
    doc = ReportDocument()
    doc.record("c", {"k": 1}, [])
    doc.record("b", {}, [{"x": 1}, {"x": 2}])
    doc.record("a", {"k": 2}, [])
    passed, failed, last = doc.checks
    assert (passed.name, passed.status, passed.witness, passed.params) == ("c", "pass", None, {"k": 1})
    assert (failed.name, failed.status, failed.witness) == ("b", "fail", {"x": 1})
    assert last.name == "a"
    assert doc.summary() == {"pass": 2, "fail": 1, "skipped": 0}
    assert not doc.passed
