"""Command-line surface: outputs, exit codes, byte-stable golden files, and
the DOT/JSON agreement."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import pytest

import fbblat
from fbblat import _kernel, cli, counting, fbb, render
from fbblat.fbb import build_fbb
from fbblat.poset import Poset, from_name_pairs

from conftest import GOLDEN_CASES, GOLDEN_DIR


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- rank / unrank ----------------------------------------------------------------

def test_rank_command(capsys):
    code, out, _ = run(capsys, "rank", "--n", "4", "2", "3")
    assert code == 0 and out == "4\n"


def test_unrank_command(capsys):
    code, out, _ = run(capsys, "unrank", "--n", "4", "6")
    assert code == 0 and out == "3 4\n"


def test_rank_domain_error_exits_2(capsys):
    code, _, err = run(capsys, "rank", "--n", "4", "3", "3")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv,code,out,err", [
    (["count", "d", "--n", "4", "--q", "3"], 0, "16\n", ""),
    (["table", "d", "--max-n", "65"], 2, "", "error: max_n must be within 0..64\n"),
    (["count", "d", "--n", "4", "--q", "-1"], 2, "", "error: need q >= 0, got -1\n"),
    (["rank", "--n", "32769", "1", "32769"], 0, "32768\n", ""),
])
def test_module_entrypoint(argv, code, out, err):
    src = str(Path(fbblat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "fbblat", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_cli_import_leaves_dataclasses_unloaded():
    # every fresh `fbblat` process pays for what the CLI imports; the
    # records are namedtuples so that dataclasses is not among it
    src = str(Path(fbblat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys; before = 'dataclasses' in sys.modules; "
             "import fbblat.cli; print(before, 'dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == "True" or after == "False", proc.stdout


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "x", "--n", "4", "--q", "3"])
    assert exc.value.code == 2


# -- construction commands -----------------------------------------------------------

def test_cf_json_counts(capsys):
    code, out, _ = run(capsys, "cf", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["elements"]) == 13
    assert len(payload["covers"]) == 18


def test_fbb_rejects_uncovering_ranks(capsys):
    code, _, err = run(capsys, "fbb", "--n", "4", "--ranks", "1")
    assert code == 2
    assert "u3" in err and "u4" in err


def test_fbb_rejects_label_outside_j_n(capsys):
    code, _, err = run(capsys, "fbb", "--n", "4", "--ranks", "9")
    assert code == 2
    assert err == "error: edge label 9 outside J_N for n = 4\n"


@pytest.mark.parametrize("ranks,token", [("1,x", "x"), ("1-2-3", "1-2-3"),
                                         ("1-x", "1-x")])
def test_fbb_names_the_bad_rank_token(capsys, ranks, token):
    code, _, err = run(capsys, "fbb", "--n", "4", "--ranks", ranks)
    assert code == 2
    assert err == (f"error: rank token {token!r} is neither a label nor an "
                   "i-j pair\n")


def test_pair_tokens_match_plain_ranks(capsys):
    _, plain, _ = run(capsys, "fbb", "--n", "4", "--ranks", "1,3,4,5",
                      "--format", "dot")
    _, tokens, _ = run(capsys, "fbb", "--n", "4", "--ranks",
                       "1-2,1-4,2-3,2-4", "--format", "dot")
    assert plain == tokens


def test_empty_rank_tokens_are_skipped(capsys):
    _, plain, _ = run(capsys, "fbb", "--n", "4", "--ranks", "1,3,4,5")
    code, gaps, _ = run(capsys, "fbb", "--n", "4", "--ranks", "1,,3,4,5,")
    assert code == 0 and gaps == plain


def test_graph_of_single_arc(capsys):
    code, out, _ = run(capsys, "graph-of", "--n", "2", "--ranks", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["arcs"] == [[1, 2, 1]]


def test_graph_of_full_ranks_is_complete(capsys):
    code, out, _ = run(capsys, "graph-of", "--n", "4", "--ranks",
                       "1,2,3,4,5,6", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["arcs"]) == 6


# -- golden regression ------------------------------------------------------------------

@pytest.mark.parametrize("argv,golden", GOLDEN_CASES)
def test_golden_outputs(capsys, argv, golden):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN_DIR / golden).read_text()


def test_golden_content_details():
    dot = (GOLDEN_DIR / "graph_n4_r1345.dot").read_text()
    for label in ("e1", "e3", "e4", "e5"):
        assert f'[label="{label}"]' in dot
    payload = json.loads((GOLDEN_DIR / "fbb_n4_r1345.json").read_text())
    names = {e["name"] for e in payload["elements"]}
    assert names == {"u1", "u2", "u3", "u4", "x1", "x2", "c1", "c3", "c4", "c5"}


_DOT_NODE = re.compile(r'^  "(\w+)" \[label="\w+"(?: rank="(\d+)")?\];$', re.M)


def test_dot_levels_come_from_the_order_not_the_names():
    p = build_fbb(4, {1, 3, 4, 5}).poset
    renamed = from_name_pairs(["b" + name for name in p.names],
                              [("b" + lo, "b" + hi) for lo, hi in p.covers])
    golden = dict(_DOT_NODE.findall((GOLDEN_DIR / "fbb_n4_r1345.dot").read_text()))
    assert len(golden) == len(p) and all(golden.values())
    assert (dict(_DOT_NODE.findall(render.poset_to_dot(renamed)))
            == {"b" + name: level for name, level in golden.items()})
    chain = render.poset_to_dot(Poset.chain(["u1", "u2"]))
    assert dict(_DOT_NODE.findall(chain)) == {"u1": "", "u2": ""}


def test_commands_are_deterministic(capsys):
    first = run(capsys, "cf", "--n", "5", "--format", "dot")
    second = run(capsys, "cf", "--n", "5", "--format", "dot")
    assert first == second


def test_output_file_option(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "cf", "--n", "4", "--format", "json",
                       "-o", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["elements"]


def test_dot_and_json_agree(capsys):
    _, dot, _ = run(capsys, "fbb", "--n", "5", "--ranks", "1,4,7,9,10",
                    "--format", "dot")
    _, js, _ = run(capsys, "fbb", "--n", "5", "--ranks", "1,4,7,9,10",
                   "--format", "json")
    payload = json.loads(js)
    by_id = {e["id"]: e["name"] for e in payload["elements"]}
    json_nodes = set(by_id.values())
    json_edges = {(by_id[a], by_id[b]) for a, b in payload["covers"]}
    dot_nodes = set(re.findall(r'^  "(\w+)" \[', dot, flags=re.M))
    dot_edges = set(re.findall(r'^  "(\w+)" -> "(\w+)";$', dot, flags=re.M))
    assert dot_nodes == json_nodes
    assert dot_edges == json_edges


# -- count / table -----------------------------------------------------------------------

def test_count_commands(capsys):
    assert run(capsys, "count", "d", "--n", "4", "--q", "3")[1] == "16\n"
    assert run(capsys, "count", "f", "--n", "4", "--q", "6")[1] == "1\n"


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "d", "--max-n", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,q,value"
    assert "3,2,3" in lines and "3,3,1" in lines


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "f", "--max-n", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)[4] == [3, 16, 15, 6, 1]


# sha256 of `table d|f --max-n 64` as printed before the output streamed by
# rows; one digest per format, so it also holds d and f to the same bytes
TABLE_64_SHA256 = {
    "csv": "a3911fec11c9ca86ccd053c211f3326d4f8ea00a98e5b5f7cba9706d41a5cbf7",
    "json": "d1fac459d4e77b1bb63db5a96bd12f4c28d5f6576144679dce67ed298762cbfa",
}


@pytest.mark.parametrize("max_n", [0, 1, 64])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", ["d", "f"])
def test_table_prints_the_bytes_of_emit_triangle(capsys, tmp_path, kind, fmt,
                                                 max_n):
    argv = ["table", kind, "--max-n", str(max_n), "--format", fmt]
    want = counting.emit_triangle(kind, max_n, fmt)
    assert run(capsys, *argv) == (0, want, "")
    target = tmp_path / "table.out"
    assert run(capsys, *argv, "-o", str(target)) == (0, "", "")
    assert target.read_bytes() == want.encode("ascii")
    if max_n == 64:
        digest = hashlib.sha256(want.encode("ascii")).hexdigest()
        assert digest == TABLE_64_SHA256[fmt]


class _CountedWrites(io.StringIO):
    calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


@pytest.mark.parametrize("max_n", [0, 1, 64])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_writes_once_per_row(monkeypatch, fmt, max_n):
    out = _CountedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["table", "d", "--max-n", str(max_n), "--format", fmt]) == 0
    assert out.getvalue() == counting.emit_triangle("d", max_n, fmt)
    assert out.calls <= max_n + 3


@pytest.mark.parametrize("kind, fmt", [("d", "csv"), ("f", "json")])
def test_table_peak_memory_is_a_fraction_of_its_output(tmp_path, kind, fmt):
    # the tables are filled first, so the peak is what printing costs:
    # about one row's text and its encoded bytes
    counting._counter(kind)(64, 0)
    target = tmp_path / "table.out"
    tracemalloc.start()
    try:
        code = cli.main(["table", kind, "--max-n", "64", "--format", fmt,
                         "-o", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < target.stat().st_size / 5


def test_table_writes_nothing_when_the_fill_fails(capsys, monkeypatch,
                                                  tmp_path):
    # d(3,3) put at 2: filling row 4 meets a value 5 does not divide
    monkeypatch.setattr(counting, "_d_rows", [[1], [0], [0, 1], [0, 0, 3, 2]])
    target = tmp_path / "table.csv"
    fault = r"d\(4,5\) recurrence value 36 is not divisible by 5"
    with pytest.raises(RuntimeError, match=fault):
        cli.main(["table", "d", "--max-n", "64", "-o", str(target)])
    assert not target.exists()
    with pytest.raises(RuntimeError, match=fault):
        cli.main(["table", "d", "--max-n", "64"])
    assert capsys.readouterr().out == ""


def test_table_out_of_range_creates_no_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    assert run(capsys, "table", "d", "--max-n", "65", "-o", str(target)) == (
        2, "", "error: max_n must be within 0..64\n")
    assert not target.exists()


# -- diff-bfile ---------------------------------------------------------------------------

def test_diff_bfile_command(tmp_path, capsys):
    from fbblat.counting import count_d_oracle

    values = []
    for n in range(5):
        for q in range((n + 1) // 2, n * (n - 1) // 2 + 1):
            values.append(count_d_oracle(n, q))
    path = tmp_path / "b.txt"
    path.write_text("".join(f"{i} {v}\n" for i, v in enumerate(values, 1)))
    code, out, _ = run(capsys, "diff-bfile", "d", str(path))
    assert code == 0 and "no mismatches" in out

    values[3] += 1
    path.write_text("".join(f"{i} {v}\n" for i, v in enumerate(values, 1)))
    code, out, _ = run(capsys, "diff-bfile", "d", str(path))
    assert code == 1 and "mismatch at" in out


def test_diff_bfile_warns_of_an_index_gap(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text("1 1\n2 1\n4 3\n")
    code, out, err = run(capsys, "diff-bfile", "d", str(path))
    assert code == 0 and out == "3 values compared, no mismatches\n"
    assert err == ("warning: line 3: index 4 does not follow 2; "
                   "values are compared by position\n")


def test_diff_bfile_missing_file(capsys):
    code, _, err = run(capsys, "diff-bfile", "d", "/nonexistent/b.txt")
    assert code == 2 and "error:" in err


# -- verify -------------------------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4")
    assert code == 0
    assert "checks passed" in out
    assert "[FAIL]" not in out


def test_verify_checks_cf_and_counts_to_n_20(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "20", "--enum-cap", "2")
    assert code == 0
    assert out.endswith("\n59/59 checks passed\n")


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"]
    assert all(c["status"] == "pass" for c in payload["checks"])
    assert {"name", "status", "detail"} <= set(payload["checks"][0])


def test_verify_below_minimum_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "1")
    assert (code, err) == (2, "error: need max_n >= 2, got 1\n")


@pytest.mark.parametrize("cap", ["-5", "0", "1"])
def test_verify_enum_cap_below_minimum_exits_2(capsys, tmp_path, cap):
    # a cap below 2 used to skip every equivalence check and exit 0
    target = tmp_path / "report.txt"
    for out in ([], ["-o", str(target)]):
        assert run(capsys, "verify", "--max-n", "3", "--enum-cap", cap,
                   *out) == (2, "", f"error: need enum_cap >= 2, got {cap}\n")
    assert not target.exists()


def test_verify_detects_injected_rank_fault(capsys, monkeypatch):
    from fbblat import labeling

    true_rank = labeling.rank

    # 1 repeats a label; 0 and N + 1 = 4 fall outside J_N, which unrank
    # refuses inside the check
    for label, detail in ((1, "unrank(rank(2,3)) != (2,3)"),
                          (0, "label 0 outside J_N = 1..3"),
                          (4, "label 4 outside J_N = 1..3")):
        def broken(n, i, j, label=label):
            value = true_rank(n, i, j)
            return label if (n, i, j) == (3, 2, 3) else value

        monkeypatch.setattr(labeling, "rank", broken)
        code, out, err = run(capsys, "verify", "--max-n", "3")
        assert code == 1
        assert err == ("verification failed, first failing check: "
                       "rank-round-trip n=3\n")
        assert f"[FAIL] rank-round-trip n=3: {detail}\n" in out


def test_verify_fails_the_check_whose_count_is_not_exact(capsys, monkeypatch):
    # tables of its own with d(3,3) put at 2: row 3 disagrees with the
    # oracle, and filling row 4 meets a recurrence value q does not divide
    monkeypatch.setattr(counting, "_d_rows", [[1], [0], [0, 1], [0, 0, 3, 2]])
    for name in ("_f_rows", "_p_rows"):
        monkeypatch.setattr(counting, name, getattr(counting, name)[:2])
    code, out, err = run(capsys, "verify", "--max-n", "4")
    assert code == 1
    assert err == ("verification failed, first failing check: "
                   "count-agreement n=3\n")
    assert ("[FAIL] count-agreement n=4: internal error: d(4,5) recurrence "
            "value 36 is not divisible by 5\n") in out


@pytest.mark.parametrize("repeated", [False, True])
def test_verify_names_the_cell_of_a_misassembled_block(capsys, monkeypatch,
                                                        repeated):
    # glue the last non-consecutive c_k one reducible lower, (i, j) -> (i,
    # j - 1), where that pair is non-consecutive, u_j keeps another pair,
    # and, per variant, (i, j - 1) is a new pair (another valid rank set, so
    # phi's graph differs) or one the block already realizes (a repeated
    # pair, which phi cannot read)
    real = fbb._assemble

    def misglued(n, ordered, pairs):
        pairs = list(pairs)
        last = max((t for t, (i, j) in enumerate(pairs) if j > i + 1),
                   default=None)
        if last is not None:
            i, j = pairs.pop(last)
            if (j - 1 > i + 1 and any(j in pair for pair in pairs)
                    and ((i, j - 1) in pairs) == repeated):
                j -= 1
            pairs.insert(last, (i, j))
        return real(n, ordered, pairs)

    monkeypatch.setattr(fbb, "_assemble", misglued)
    all_ok, checks = cli.run_verification(4)
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    assert not all_ok and failed
    assert all(name.startswith("equivalence n=4 l=") for name, _ in failed)
    wanted = "is realized 2 times" if repeated else "phi round trip broke"
    assert all(wanted in detail and "((1, " in detail for _, detail in failed)
    code, _, err = run(capsys, "verify", "--max-n", "4")
    assert code == 1
    assert f"first failing check: {failed[0][0]}" in err


# -- fault-injection matrix: a one-line defect in a fast path fails verify,
# exit 1, naming the first broken check ----------------------------------------------

def _drop_bottom_below_top(result, n, covers):
    up, down = result
    if n >= 9:
        bottom, top = down.index(0), up.index(0)
        up[bottom] &= ~(1 << top)
        down[top] &= ~(1 << bottom)
    return up, down


def _kernel_fault(name, fault):
    """Install ``fault(result, *args)`` around ``_kernel.<name>``."""
    def install(monkeypatch):
        real = getattr(_kernel, name)
        monkeypatch.setattr(_kernel, name,
                            lambda *args: fault(real(*args), *args))
    return install


def _but_first(parts):
    """``unisolated_masks`` parts without their first member."""
    (low, highs), *rest = parts
    return [(low, highs[1:])] + rest


def _count_row_fault(table):
    """Fill count tables of their own (the real ones come back afterwards)
    and put the (4, 3) entry of ``table`` off by one."""
    def install(monkeypatch):
        for name in ("_d_rows", "_f_rows", "_p_rows"):
            monkeypatch.setattr(counting, name, getattr(counting, name)[:2])
        counting.count_d(4, 0)
        counting.count_f(4, 0)
        getattr(counting, table)[4][3] += 1
    return install


def _drop_last_label_of_complete(monkeypatch):
    """Assemble CF(n), n >= 3, without its last c_k."""
    real = fbb._assemble

    def short(n, ordered, pairs):
        if n >= 3 and len(ordered) == comb(n, 2):
            ordered, pairs = ordered[:-1], pairs[:-1]
        return real(n, ordered, pairs)

    monkeypatch.setattr(fbb, "_assemble", short)


def _repeat_first_label(monkeypatch):
    """Assemble blocks on 4 reducibles with 2-5 labels under the first
    label's name twice and without the last label."""
    real = fbb._assemble

    def repeated(n, ordered, pairs):
        if n == 4 and 2 <= len(ordered) <= 5:
            ordered = [ordered[0], *ordered[:-1]]
        return real(n, ordered, pairs)

    monkeypatch.setattr(fbb, "_assemble", repeated)


@pytest.mark.parametrize("install,first,detail", [
    (_kernel_fault("reducibility", lambda r, *_: (False, r[1], r[2])),
     "cf-structure n=2", "not lattice; not a fundamental basic block"),
    (_kernel_fault("reducibility",  # trips the cover-count cross-check
                   lambda r, *_: (r[0], r[1] & (r[1] - 1), r[2])),
     "cf-structure n=2", "internal error: definitional and cover-count "
     "reducibility disagree on Poset(4 elements, 4 covers)"),
    # the lattice test reads the intact cover masks; RC sees the broken order
    (_kernel_fault("closure", _drop_bottom_below_top),
     "cf-structure n=4", "not rc; not a fundamental basic block"),
    (_kernel_fault("basic_block_universal", lambda *_: False),
     "cf-structure n=2", "not a basic block; not a fundamental basic block"),
    (_kernel_fault("induced_nullity_parts",
                   lambda r, n, *_: (r[0] + (n >= 6), r[1])),
     "cf-structure n=3", "nullity = 4"),
    (_kernel_fault("unisolated_masks",
                   lambda r, nv, q: _but_first(r) if (nv, q) == (4, 4) else r),
     "equivalence n=4 l=4", "n=4 l=4: enumerated=14 d=15 f=15 [MISMATCH]"),
    (_kernel_fault("unisolated_masks",  # the triangle on v1 v2 v3 leaves v4 out
                   lambda r, nv, q: ([(0, [0b1011])] + _but_first(r)
                                     if (nv, q) == (4, 3) else r)),
     "equivalence n=4 l=3", "n=4 l=3: enumerated=16 d=16 f=16 [MISMATCH]   "
     "phi_inverse(((1, 2), (1, 3), (2, 3))) has no block: digraph has "
     "isolated vertices: v4"),
    (_count_row_fault("_d_rows"),
     "count-agreement n=4", "d(4,3) disagrees with inclusion-exclusion"),
    (_count_row_fault("_f_rows"), "count-agreement n=4", "f(4,3) != d(4,3)"),
    (_drop_last_label_of_complete,
     "cf-structure n=3", "|elements| = 6; |covers| = 7; nullity = 2"),
    (_repeat_first_label,
     "equivalence n=4 l=2", "n=4 l=2: enumerated=3 d=3 f=3 [MISMATCH]   "
     "phi_inverse(((1, 2), (3, 4))) has no block: duplicate element name "
     "'c1'"),
], ids=["lattice-flag", "join-reducible-bit", "closure", "basic-block",
        "nullity", "unisolated-masks", "isolated-vertex", "count-d", "count-f",
        "cf-short", "repeated-label"])
def test_verify_names_the_first_check_a_fault_breaks(capsys, monkeypatch,
                                                     install, first, detail):
    install(monkeypatch)
    code, out, err = run(capsys, "verify", "--max-n", "4")
    assert code == 1
    assert err == f"verification failed, first failing check: {first}\n"
    assert f"[FAIL] {first}: {detail}" in out
