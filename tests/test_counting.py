"""Counting: both recurrences against the inclusion-exclusion oracle and the
subset-scan oracle, band behavior, triangle emission, and b-file diffs."""

import json
import sys
import threading
from math import comb

import pytest

from fbblat import cli, counting
from fbblat.counting import (CountTable, count_d, count_d_oracle, count_f,
                             diff_bfile, emit_triangle)

import oracles


def test_boundary_values():
    assert count_d(0, 0) == 1
    assert count_f(0, 0) == 1
    for n in range(1, 6):
        assert count_d(n, 0) == 0
        assert count_f(n, 0) == 0
    for q in range(1, 6):
        assert count_d(0, q) == 0
        assert count_f(0, q) == 0
        assert count_d(1, q) == 0
        assert count_f(1, q) == 0


@pytest.mark.parametrize("n,q,value", [
    (2, 1, 1),
    (3, 2, 3),
    (4, 3, 16),
    (4, 4, 15),
    (4, 1, 0),
])
def test_known_cells(n, q, value):
    assert count_d(n, q) == value
    assert count_d_oracle(n, q) == value
    assert count_f(n, q) == value


def test_row_four():
    assert [count_d(4, q) for q in range(2, 7)] == [3, 16, 15, 6, 1]
    assert [count_f(4, q) for q in range(2, 7)] == [3, 16, 15, 6, 1]


def test_counts_match_subset_scan():
    for n in range(2, 6):
        for q in range(comb(n, 2) + 1):
            brute = len(oracles.unisolated_edge_sets(n, q))
            assert count_d(n, q) == brute
            assert count_d_oracle(n, q) == brute


def test_recurrence_agrees_with_oracle_up_to_20():
    for n in range(21):
        rowwise = oracles.d_row_by_inclusion_exclusion(n) + [0]
        for q in range(comb(n, 2) + 2):
            assert count_d(n, q) == count_d_oracle(n, q) == rowwise[q], (n, q)


def test_equivalence_of_recurrences_up_to_14():
    for n in range(2, 15):
        for l in range(comb(n, 2) + 2):
            assert count_f(n, l) == count_d(n, l), (n, l)


def test_polynomial_fill_matches_triple_sum():
    rows = oracles.f_rows_by_triple_sum(24)
    for n, row in enumerate(rows):
        assert len(row) == comb(n, 2) + 1
        for l in range(comb(n, 2) + 2):
            want = row[l] if l < len(row) else 0
            assert count_f(n, l) == want, (n, l)


def test_band_law():
    for n in range(2, 13):
        top = comb(n, 2)
        lo = (n + 1) // 2
        for q in range(top + 3):
            inside = lo <= q <= top
            assert (count_d(n, q) > 0) == inside
            assert (count_f(n, q) > 0) == inside


def test_closed_form_near_the_top():
    for n in range(2, 15):
        top = comb(n, 2)
        for l in range(max(0, top - n + 2), top + 1):
            assert count_f(n, l) == comb(top, l), (n, l)


def test_row_sums_match_total_unisolated_graphs():
    # row sum == number of all edge subsets without isolated vertices,
    # counted independently by inclusion-exclusion over 2^C(n-k,2)
    for n in range(2, 9):
        total = sum((-1) ** k * comb(n, k) * 2 ** comb(n - k, 2)
                    for k in range(n + 1))
        assert sum(count_d(n, q) for q in range(comb(n, 2) + 1)) == total


def test_values_exceed_machine_words():
    value = count_d(20, 95)
    assert value == count_d_oracle(20, 95)
    assert value > 2 ** 64


def test_rejects_negative_arguments():
    with pytest.raises(ValueError):
        count_d(-1, 0)
    with pytest.raises(ValueError):
        count_f(2, -1)


@pytest.mark.parametrize("call,message", [
    (lambda: count_d(2.5, 1), r"^n = 2\.5 is not an integer$"),
    (lambda: count_d(4, 3.0), r"^q = 3\.0 is not an integer$"),
    (lambda: count_f(3, 1.5), r"^l = 1\.5 is not an integer$"),
    (lambda: count_f("3", 1), r"^n = '3' is not an integer$"),
    (lambda: count_d_oracle(2.5, 1), r"^n = 2\.5 is not an integer$"),
    (lambda: count_d(3.0, 1), r"^n = 3\.0 is not an integer$"),
    (lambda: count_f(2.5, 1), r"^n = 2\.5 is not an integer$"),
    (lambda: count_d_oracle(3.0, 1), r"^n = 3\.0 is not an integer$"),
    (lambda: count_d(4, -1), r"^need q >= 0, got -1$"),
    (lambda: count_d_oracle(4, -1), r"^need q >= 0, got -1$"),
    (lambda: count_f(-1, 0), r"^need n >= 0, got -1$"),
    (lambda: count_f(2, -1), r"^need l >= 0, got -1$"),
    (lambda: emit_triangle("d", 2.5), r"^max_n = 2\.5 is not an integer$"),
    (lambda: CountTable.build("f", 3.0), r"^max_n = 3\.0 is not an integer$"),
    (lambda: emit_triangle("d", -1), r"^need max_n >= 0, got -1$"),
    (lambda: cli.run_verification(2.5), r"^max_n = 2\.5 is not an integer$"),
    (lambda: cli.run_verification(3.0), r"^max_n = 3\.0 is not an integer$"),
], ids=["d-n", "d-q", "f-l", "f-str", "oracle-n", "d-whole-float-n",
        "f-n", "oracle-whole-float-n", "d-q-negative", "oracle-q-negative",
        "f-n-negative", "f-l-negative", "table-max_n", "table-whole-float-max_n",
        "table-max_n-negative", "verify-max_n", "verify-whole-float-max_n"])
def test_rejects_non_integral_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# -- triangle emission -----------------------------------------------------------

def test_count_table_cells():
    table = CountTable.build("d", 4)
    assert table.cells[(4, 3)] == 16
    assert table.cells[(0, 0)] == 1
    assert (1, 0) not in table.cells  # row 1 has no band columns
    assert set(table.cells) == {
        (n, q) for n in range(5)
        for q in range((n + 1) // 2, comb(n, 2) + 1)}


def test_emit_triangle_csv():
    text = emit_triangle("d", 4, "csv")
    lines = text.splitlines()
    assert lines[0] == "n,q,value"
    assert lines[1] == "0,0,1"
    assert "4,3,16" in lines
    assert text.endswith("\n")


def test_emit_triangle_json_rows():
    rows = json.loads(emit_triangle("f", 4, "json"))
    assert rows == [[1], [], [1], [3, 1], [3, 16, 15, 6, 1]]


def test_emit_triangle_zero():
    assert emit_triangle("d", 0, "csv") == "n,q,value\n0,0,1\n"


def test_triangles_of_both_kinds_agree():
    for fmt in ("csv", "json"):
        assert emit_triangle("d", 64, fmt) == emit_triangle("f", 64, fmt), fmt


@pytest.mark.parametrize("kind", ["d", "f"])
def test_count_table_rows_are_the_json_rows(kind):
    assert (CountTable.build(kind, 64).rows()
            == json.loads(emit_triangle(kind, 64, "json")))


@pytest.mark.parametrize("kind", ["d", "f"])
def test_table_calls_the_counter_once_per_row(kind, monkeypatch, capsys):
    counter = counting._COUNTERS[kind]
    calls = []

    def counted(n, q):
        calls.append((n, q))
        return counter(n, q)

    monkeypatch.setitem(counting._COUNTERS, kind, counted)
    assert cli.main(["table", kind, "--max-n", "64"]) == 0
    assert capsys.readouterr().out.startswith("n,q,value\n0,0,1\n")
    assert 0 < len(calls) <= 65


def test_emit_triangle_rejects_bad_input():
    with pytest.raises(ValueError):
        emit_triangle("d", 4, "xml")
    with pytest.raises(ValueError):
        emit_triangle("x", 4, "csv")
    with pytest.raises(ValueError):
        emit_triangle("d", 65, "csv")


# -- b-file diff ------------------------------------------------------------------

def _write_bfile(path, values, start=1):
    path.write_text("".join(f"{start + i} {v}\n" for i, v in enumerate(values)))


def _oracle_linear(max_n):
    out = []
    for n in range(max_n + 1):
        for q in range((n + 1) // 2, comb(n, 2) + 1):
            out.append(count_d_oracle(n, q))
    return out


def test_diff_bfile_agreement(tmp_path):
    path = tmp_path / "b.txt"
    _write_bfile(path, _oracle_linear(6))
    diff = diff_bfile(path, "d")
    assert diff.ok
    assert diff.compared == len(_oracle_linear(6))
    assert diff.mismatches == ()


def test_diff_bfile_detects_corruption(tmp_path):
    values = _oracle_linear(5)
    values[4] += 1  # fifth cell is (4, 2)
    path = tmp_path / "b.txt"
    _write_bfile(path, values)
    diff = diff_bfile(path, "d")
    assert not diff.ok
    assert len(diff.mismatches) == 1
    m = diff.mismatches[0]
    assert (m.n, m.q) == (4, 2)
    assert m.file_value == m.triangle_value + 1
    assert m.line_no == 5


def test_diff_bfile_empty_file(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("# just a comment\n\n")
    diff = diff_bfile(path, "d")
    assert diff.ok
    assert diff.compared == 0
    assert any("no entries" in w for w in diff.warnings)


def test_diff_bfile_malformed_line(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("1 1\n2 one\n")
    with pytest.raises(ValueError, match="b.txt:2"):
        diff_bfile(path, "d")
    path.write_text("1 1\n2 3 4\n")
    with pytest.raises(ValueError, match="b.txt:2"):
        diff_bfile(path, "d")


@pytest.mark.parametrize("line", ["2", "2 3 4", "2 one"],
                         ids=["one-token", "three-tokens", "not-an-integer"])
def test_diff_bfile_names_the_malformed_line(tmp_path, line):
    path = tmp_path / "b.txt"
    path.write_text(f"1 1\n{line}\n")
    with pytest.raises(ValueError) as info:
        diff_bfile(path, "d")
    assert str(info.value) == f"{path}:2: expected 'index value', got {line!r}"


def test_diff_bfile_skips_comments_and_counts_lines(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("# header\n1 1\n# middle\n2 1\n3 999\n")
    diff = diff_bfile(path, "d")
    assert len(diff.mismatches) == 1
    assert diff.mismatches[0].line_no == 5
    assert diff.mismatches[0].index == 3


@pytest.mark.parametrize("indices,warned", [
    ([1, 2, 3, 5, 6], "line 4: index 5 does not follow 3"),
    ([1, 2, 2, 3, 4], "line 3: index 2 does not follow 2"),
    ([7, 8, 9, 10, 11], None),
], ids=["gap", "repeat", "consecutive"])
def test_diff_bfile_warns_at_the_first_index_out_of_step(tmp_path, indices, warned):
    values = _oracle_linear(4)[:5]  # the fifth cell is (4, 2)
    values[4] += 1
    path = tmp_path / "b.txt"
    path.write_text("".join(f"{i} {v}\n" for i, v in zip(indices, values)))
    diff = diff_bfile(path, "d")
    # values are still compared by position
    assert diff.compared == 5
    assert [(m.n, m.q, m.index) for m in diff.mismatches] == [(4, 2, indices[4])]
    assert diff.warnings == (
        (f"{warned}; values are compared by position",) if warned else ())


def test_diff_bfile_fills_no_row_past_the_file(tmp_path, monkeypatch):
    monkeypatch.setattr(counting, "_d_rows", [[1], [0]])
    values = _oracle_linear(5)[:10]  # the tenth cell is (5, 3)
    path = tmp_path / "b.txt"
    _write_bfile(path, values)
    diff = diff_bfile(path, "d")
    assert diff.ok and diff.compared == 10
    assert len(counting._d_rows) == 6


def test_diff_bfile_checks_kind_before_opening(tmp_path):
    with pytest.raises(ValueError, match="kind must be one of"):
        diff_bfile(tmp_path / "missing.txt", "x")


def test_diff_bfile_overlong_file_warns(tmp_path, monkeypatch):
    monkeypatch.setattr(counting, "TRIANGLE_MAX_N", 3)
    path = tmp_path / "b.txt"
    _write_bfile(path, _oracle_linear(3) + [7, 7, 7])
    diff = diff_bfile(path, "d")
    assert any("extends beyond" in w for w in diff.warnings)
    assert diff.compared == len(_oracle_linear(3))


def test_concurrent_fills_agree_with_oracle(monkeypatch):
    # several threads race to fill empty tables; with a tiny switch interval
    # an unguarded fill computes rows twice and appends them out of order
    n = 24
    expected = [count_d_oracle(n, q) for q in range(comb(n, 2) + 1)]
    monkeypatch.setattr(counting, "_d_rows", [[1], [0]])
    monkeypatch.setattr(counting, "_f_rows", [[1], [0]])
    monkeypatch.setattr(counting, "_p_rows", [[1], [0, 0]])
    results = [None] * 8
    start = threading.Barrier(len(results))

    def work(slot):
        start.wait()
        try:
            results[slot] = ([count_d(n, q) for q in range(len(expected))],
                             [count_f(n, q) for q in range(len(expected))])
        except RuntimeError as exc:
            results[slot] = exc

    threads = [threading.Thread(target=work, args=(slot,))
               for slot in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for slot, got in enumerate(results):
        assert got == (expected, expected), f"thread {slot}: {got!r:.200}"


def test_fill_refuses_out_of_step_tables(monkeypatch):
    # a row of f must never be built from the (1+y)^i f row of another n
    count_f(6, 0)
    monkeypatch.setattr(counting, "_f_rows", [[1], [0]])
    with pytest.raises(RuntimeError, match="rows of f"):
        count_f(6, 5)
    assert counting._f_rows == [[1], [0]]


def test_failed_p_build_leaves_the_tables_in_step(monkeypatch):
    # a MemoryError while (1+y)^i f is built must add row m to neither
    # table, so the next fill builds it again instead of reporting tables
    # out of step
    for name in ("_d_rows", "_f_rows", "_p_rows"):
        monkeypatch.setattr(counting, name, getattr(counting, name)[:2])
    count_f(5, 0)
    real = counting._times_one_plus_y
    failed = []

    def fail_once(poly, times):
        if not failed:
            failed.append(times)
            raise MemoryError
        return real(poly, times)

    monkeypatch.setattr(counting, "_times_one_plus_y", fail_once)
    with pytest.raises(MemoryError):
        count_f(7, 0)
    assert failed == [6]
    assert len(counting._f_rows) == len(counting._p_rows) == 6
    assert ([count_f(7, l) for l in range(comb(7, 2) + 1)]
            == [count_d(7, l) for l in range(comb(7, 2) + 1)])
