"""The command line's exit-code contract, on argv drawn from its grammar:
every run exits 0, 1 or 2; exit 2 writes one ``error:`` line, nothing on
standard output and no ``-o`` file; exit 1 comes only from ``verify`` and
``diff-bfile``.  Sizes stay small, so every drawn run is cheap."""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fbblat import cli, counting, render


class InDir:
    """An argv token naming the file ``name`` in the example's directory."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"InDir({self.name!r})"


# The b-files each example finds in its directory; "missing.b" is absent.
BFILES = {
    "good.b": b"1 1\n2 1\n3 3\n4 1\n",
    "mismatch.b": b"1 1\n2 0\n",
    "malformed.b": b"1 x\n",
    "empty.b": b"",
    "binary.b": b"\xff\xfe\n",
}

KINDS = st.sampled_from(["d", "f"])


def sizes(least, most):
    """An integer token in least..most, or one of three that are no integer."""
    return st.sampled_from([*map(str, range(least, most + 1)), "x", "2.5", ""])


def output_options(formats):
    """An optional ``--format`` (sometimes one the command lacks) and an
    optional ``-o`` into the example's directory."""
    fmt = st.one_of(st.just([]),
                    st.sampled_from([*sorted(formats), "xml"])
                    .map(lambda f: ["--format", f]))
    out = st.sampled_from([[], ["-o", InDir("out")]])
    return st.tuples(fmt, out).map(lambda pair: pair[0] + pair[1])


RANK_TOKENS = st.one_of(
    st.integers(-1, 23).map(str),
    st.tuples(st.integers(0, 8), st.integers(0, 8)).map("{0[0]}-{0[1]}".format),
    st.sampled_from(["x", "1-2-3", "1-x", "", " ", "-", "1.5"]),
)


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["verify", "diff-bfile", "table", "count",
                                    "fbb", "graph-of", "cf", "unrank", "rank"]))
    if command == "rank":
        return ["rank", "--n", draw(sizes(-1, 7)),
                draw(sizes(0, 8)), draw(sizes(0, 8))]
    if command == "unrank":
        return ["unrank", "--n", draw(sizes(-1, 7)), draw(sizes(-1, 23))]
    if command == "cf":
        return ["cf", "--n", draw(sizes(-1, 7)),
                *draw(output_options(render.POSET_RENDERERS))]
    if command in ("fbb", "graph-of"):
        n = draw(st.integers(-1, 7))
        complete = ",".join(str(k) for k in range(1, n * (n - 1) // 2 + 1))
        ranks = draw(st.one_of(st.just(complete),
                               st.lists(RANK_TOKENS, max_size=6).map(",".join)))
        formats = (render.POSET_RENDERERS if command == "fbb"
                   else render.GRAPH_RENDERERS)
        return [command, "--n", str(n), "--ranks", ranks,
                *draw(output_options(formats))]
    if command == "count":
        return ["count", draw(KINDS), "--n", draw(sizes(-1, 12)),
                "--q", draw(sizes(-1, 67))]
    if command == "table":
        return ["table", draw(KINDS), "--max-n", draw(sizes(-1, 10)),
                *draw(output_options(counting._TRIANGLE_FORMATS))]
    if command == "verify":
        cap = draw(st.one_of(st.just([]),
                             sizes(-1, 4).map(lambda c: ["--enum-cap", c])))
        return ["verify", "--max-n", draw(sizes(-1, 4)), *cap,
                *draw(output_options(render.REPORT_RENDERERS))]
    return ["diff-bfile", draw(KINDS),
            InDir(draw(st.sampled_from([*BFILES, "missing.b"])))]


def run_cli(argv):
    """(exit code, stdout, stderr) of one run, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
@example(argv=["table", "d", "--max-n", "65", "-o", InDir("out")])
@example(argv=["fbb", "--n", "4", "--ranks", "1", "-o", InDir("out")])
@example(argv=["verify", "--max-n", "3", "--format", "xml", "-o", InDir("out")])
@example(argv=["diff-bfile", "f", InDir("mismatch.b")])
def test_exit_code_contract(tmp_path, argv):
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    for name, data in BFILES.items():
        (work / name).write_bytes(data)
    argv = [str(work / a.name) if isinstance(a, InDir) else a for a in argv]
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1, (argv, err)
        assert out == "", (argv, out)
        assert not (work / "out").exists(), argv
    if code == 1:
        assert argv[0] in ("verify", "diff-bfile"), (argv, err)
