from fractions import Fraction

import pytest

from zhu_forge import builtin_presentation, cli, modes, voa, zhu
from zhu_forge.report import CheckRecord
from zhu_forge.suites import appendix_suite, deep_tail_witness_suite, zhu_structure_suite

HEIS = builtin_presentation("heisenberg")
VIR = builtin_presentation("virasoro", Fraction(1, 2))


def test_zhu_structure_suite_counts_in_range_checks():
    doc = zhu_structure_suite(HEIS, 0, 5)
    records = {record.name: record for record in doc.sorted_checks()}
    assert records["associativity"].params["checked"] > 0
    assert records["two_sided_ideal"].params["checked"] > 0
    assert doc.passed


def test_appendix_suite_small_grid():
    doc = appendix_suite(
        HEIS, s_range=(-1, 1), t_range=(-1, 1), depth_range=(0, 2),
        shift_bound=6, operator_samples=10, seed=5,
    )
    assert doc.passed
    grid = {record.name: record for record in doc.sorted_checks()}
    assert grid["reordering_residual_grid"].params["tuples"] == 24


def test_deep_tail_witness_suite_passes():
    doc = deep_tail_witness_suite(VIR, levels=(0, 1), weight_bound=3)
    assert doc.passed


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
        )

    first = reports()
    warm = reports()
    voa.clear_caches()
    assert voa._apply_mono.cache_info().currsize == 0
    assert voa._mode_mono.cache_info().currsize == 0
    assert zhu._star_mono.cache_info().currsize == 0
    assert zhu.build_zhu_context.cache_info().currsize == 0
    cold = reports()
    assert first == warm == cold


def test_appendix_suite_draws_s_with_a_valid_depth():
    # s = -2 has no depth in 0..1 with N + s >= 0; sampling must avoid it.
    doc = appendix_suite(HEIS, depth_range=(0, 1), operator_samples=10, seed=1)
    assert doc.passed
    with pytest.raises(ValueError, match="empty"):
        appendix_suite(HEIS, depth_range=(5, 1))
    with pytest.raises(ValueError, match="N \\+ s >= 0"):
        appendix_suite(HEIS, s_range=(0, 0), depth_range=(-3, -1))


def test_check_record_from_failures():
    passed = CheckRecord.from_failures("c", {"k": 1}, [])
    assert (passed.status, passed.witness, passed.params) == ("pass", None, {"k": 1})
    failed = CheckRecord.from_failures("c", {}, [{"x": 1}, {"x": 2}])
    assert (failed.status, failed.witness) == ("fail", {"x": 1})
