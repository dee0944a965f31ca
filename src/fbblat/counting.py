"""Exact counts of labeled graphs on unisolated vertices, three ways.

``count_d`` fills the edge-count recurrence

    q * d(n, q) = (N - q + 1) d(n, q-1) + n (n-1) d(n-1, q-1) + N d(n-2, q-1)

with N = C(n,2), d(0,0) = 1 and d(n,0) = d(0,q) = 0 otherwise (values with a
negative first argument are 0, which makes the n-2 term total).  The division
by q must be exact; a remainder would mean the recurrence is wrong as coded,
so it raises an internal RuntimeError instead of truncating.

``count_f`` fills the block recurrence

    f(m+1, l) = sum_{k=1..m} sum_{j=0..k} C(m,j) C(m-j, k-j) f(m-j, l-k)

with f(0,0) = 1 and f(1,l) = 0; negative l contributes 0.  It fills it in
polynomial form.  Write F_n(y) = sum_l f(n, l) y^l.  Put i = m-j and
t = k-j; the binomial identity sum_t C(i,t) y^t = (1+y)^i sums out t, and
the recurrence becomes

    F_{m+1}(y) = sum_{i=0..m} C(m,i) y^(m-i) P_i(y) - F_m(y),
    P_i(y) = (1+y)^i F_i(y),

where the subtracted F_m is the k = 0 term the recurrence leaves out.  P_i
does not depend on m, so it is kept in a second table, one row per row of
f, built once when row i is.  A row then costs O(m N) big-int additions
and multiplications by the word-sized C(m,i), against the O(m^2 N)
products of two binomials of the triple sum, which ``tests/oracles.py``
keeps as the reference.

``count_d_oracle`` is the independent inclusion-exclusion sum over forced
isolated-vertex sets and exists purely to cross-check the other two.

Everything is an exact Python int; tables are filled iteratively row by row
(no recursion) and grow on demand.  Completed rows are never mutated.  Rows
of every table, the f and P tables included, are filled under one lock, so
concurrent callers never compute a row twice or read a half-built table;
reading rows that are already there takes no lock.  The f and P tables
grow together, row for row; a fill that finds them of different lengths
raises instead of pairing a row of f with the wrong P.

The triangle that ``emit_triangle``, ``CountTable`` and ``diff_bfile``
show is read row by row from these tables: one walk fills row n with one
counter call and hands on the filled table row itself with the start of its
band, q0 = ceil(n/2); the readers index q = q0..C(n,2) from it, so no band
is copied for the length of an emission.  Emission (``triangle_chunks``)
runs that walk to the end before it yields anything, then yields one chunk
of text per row, so ``fbblat table`` writes the triangle a row at a time
and writes nothing when an argument or a fill fails.  A CSV row is one
``%`` over a template of one ``n,%d,%d`` line per cell, applied to the
row's flattened (q, value) pairs, not one format call per cell.
"""

import json
import threading
from collections import namedtuple
from itertools import chain, islice
from math import comb

from .labeling import _check_int

_d_rows = [[1], [0]]
_f_rows = [[1], [0]]
_p_rows = [[1], [0, 0]]  # P_i = (1+y)^i F_i, one per row of _f_rows
_fill_lock = threading.Lock()


def _fill_d(n):
    if len(_d_rows) > n:
        return
    with _fill_lock:
        while len(_d_rows) <= n:
            m = len(_d_rows)
            big_n = comb(m, 2)
            prev1 = _d_rows[m - 1]
            prev2 = _d_rows[m - 2]
            row = [0] * (big_n + 1)
            for q in range(1, big_n + 1):
                acc = (big_n - q + 1) * row[q - 1]
                if q - 1 < len(prev1):
                    acc += m * (m - 1) * prev1[q - 1]
                if q - 1 < len(prev2):
                    acc += big_n * prev2[q - 1]
                row[q], rem = divmod(acc, q)
                if rem:
                    raise RuntimeError(
                        f"internal error: d({m},{q}) recurrence value {acc} is "
                        f"not divisible by {q}")
            _d_rows.append(row)


def count_d(n, q):
    """Number of labeled graphs on n unisolated vertices with q edges."""
    _check_int("n", n, 0)
    _check_int("q", q, 0)
    _fill_d(n)
    row = _d_rows[n]
    return row[q] if q < len(row) else 0


def count_d_oracle(n, q):
    """Same count by inclusion-exclusion over isolated-vertex sets."""
    _check_int("n", n, 0)
    _check_int("q", q, 0)
    return sum((-1) ** k * comb(n, k) * comb(comb(n - k, 2), q)
               for k in range(n + 1))


def _times_one_plus_y(poly, times):
    """Coefficients of (1+y)^times * poly."""
    for _ in range(times):
        poly = [a + b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def _fill_f(n):
    if len(_f_rows) > n:
        return
    with _fill_lock:
        if len(_p_rows) != len(_f_rows):
            raise RuntimeError(
                f"internal error: {len(_f_rows)} rows of f but {len(_p_rows)} "
                f"rows of (1+y)^i f")
        while len(_f_rows) <= n:
            m = len(_f_rows) - 1  # recurrence steps from row m to row m+1
            row = [0] * (comb(m + 1, 2) + 1)
            for i, p in enumerate(_p_rows):
                c = comb(m, i)  # term C(m,i) y^(m-i) P_i
                for t, v in enumerate(p, m - i):
                    row[t] += c * v
            for l, v in enumerate(_f_rows[m]):
                row[l] -= v
            _f_rows.append(row)
            _p_rows.append(_times_one_plus_y(row, m + 1))


def count_f(n, l):
    """Number of fundamental basic blocks on n comparable reducibles with
    nullity l."""
    _check_int("n", n, 0)
    _check_int("l", l, 0)
    _fill_f(n)
    row = _f_rows[n]
    return row[l] if l < len(row) else 0


# -- triangle emission ---------------------------------------------------------

_COUNTERS = {"d": count_d, "f": count_f}
TRIANGLE_MAX_N = 64


def _counter(kind):
    try:
        return _COUNTERS[kind]
    except KeyError:
        raise ValueError(f"kind must be one of {sorted(_COUNTERS)}, got {kind!r}") from None


def _band_rows(kind, max_n):
    """Rows n = 0..max_n of the triangle as ``(n, q0, row)``: ``row`` is the
    filled table row itself, not a copy, and its band is q = q0..C(n,2),
    q0 = ceil(n/2).  Checks kind and max_n first, then fills one row per
    step, looking the table up after each fill so that a rebound table is
    the one read."""
    count = _counter(kind)
    _check_int("max_n", max_n, 0)
    if max_n > TRIANGLE_MAX_N:
        raise ValueError(f"max_n must be within 0..{TRIANGLE_MAX_N}")

    def walk():
        for n in range(max_n + 1):
            count(n, 0)
            yield n, (n + 1) // 2, (_d_rows if kind == "d" else _f_rows)[n]

    return walk()


class CountTable(namedtuple("CountTable", "kind max_n cells")):
    """In-band cells of one triangle, (n, q) -> exact count."""

    __slots__ = ()

    @classmethod
    def build(cls, kind, max_n):
        cells = {(n, q): row[q]
                 for n, q0, row in _band_rows(kind, max_n)
                 for q in range(q0, len(row))}
        return cls(kind, max_n, cells)

    def rows(self):
        """The band of each row n = 0..max_n, as a list of counts."""
        return [row[q0:] for _, q0, row in _band_rows(self.kind, self.max_n)]


def _csv_chunks(rows):
    yield "n,q,value\n"
    for n, q0, row in rows:
        yield (f"{n},%d,%d\n" * (len(row) - q0)) % tuple(
            chain.from_iterable(enumerate(islice(row, q0, None), q0)))


def _json_chunks(rows):
    sep = "["
    for _, q0, row in rows:
        yield sep + json.dumps(row[q0:])
        sep = ", "
    yield "]\n"


_TRIANGLE_FORMATS = {"csv": _csv_chunks, "json": _json_chunks}


def triangle_chunks(kind, max_n, fmt="csv"):
    """The text of ``emit_triangle`` as an iterator of chunks: for ``csv``
    the header, then one chunk per row n; for ``json`` one chunk per row
    and the closing bracket.

    Checks kind, max_n and fmt, in that order, and fills every row before
    it returns, so a bad argument or a fill error raises here, before any
    chunk exists.
    """
    rows = _band_rows(kind, max_n)
    try:
        chunks = _TRIANGLE_FORMATS[fmt]
    except KeyError:
        raise ValueError(f"unsupported format {fmt!r}") from None
    return chunks(list(rows))


def emit_triangle(kind, max_n, fmt="csv"):
    """Triangle rows n = 0..max_n, columns q = ceil(n/2)..C(n,2).

    ``csv`` emits one `n,q,value` line per cell under a header; ``json``
    emits an array of row arrays (values only).
    """
    return "".join(triangle_chunks(kind, max_n, fmt))


# -- b-file comparison ----------------------------------------------------------


class BFileMismatch(namedtuple(
        "BFileMismatch", "n q triangle_value file_value index line_no")):
    __slots__ = ()


class BFileDiff(namedtuple(
        "BFileDiff", "path kind compared mismatches warnings")):
    __slots__ = ()

    @property
    def ok(self):
        return not self.mismatches


def diff_bfile(path, kind):
    """Compare a b-file (``index value`` per line, comments with '#') against
    the triangle through n = ``TRIANGLE_MAX_N``, linearized by rows; empty
    mismatch list means agreement.
    Values are matched by position; the first index that does not follow
    the one before it is reported as a warning."""
    cells = ((n, q, row[q]) for n, q0, row in _band_rows(kind, TRIANGLE_MAX_N)
             for q in range(q0, len(row)))
    entries = []
    with open(path, encoding="ascii") as handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{line_no}: expected 'index value', got {text!r}")
            try:
                index, value = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}:{line_no}: expected 'index value', got {text!r}") from None
            entries.append((index, value, line_no))
    warnings = []
    if not entries:
        warnings.append("b-file contains no entries")
    for (before, _, _), (index, _, line_no) in zip(entries, entries[1:]):
        if index != before + 1:
            warnings.append(f"line {line_no}: index {index} does not follow "
                            f"{before}; values are compared by position")
            break
    mismatches = []
    compared = 0
    for index, value, line_no in entries:
        try:
            n, q, ours = next(cells)
        except StopIteration:
            warnings.append(
                f"file extends beyond the triangle through n = {TRIANGLE_MAX_N}; "
                f"stopped before line {line_no}")
            break
        compared += 1
        if value != ours:
            mismatches.append(BFileMismatch(n, q, ours, value, index, line_no))
    return BFileDiff(str(path), kind, compared, tuple(mismatches), tuple(warnings))
