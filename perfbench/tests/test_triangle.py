import os

import workloads
from conftest import SRC


def test_each_triangle_op_starts_from_empty_tables(monkeypatch):
    # Warm tables would let a later op skip binomials the first one needed.
    monkeypatch.setenv("PYTHONPATH", SRC)
    tri = workloads.Triangle()
    x = ("f", 12)
    calls = []
    for _ in range(2):
        out = tri.op(x, traced=True)
        assert tri.check(x, out) is None
        calls.append(tri.child_report(out)["trace"]["stats"]["counting.comb"][0])
    assert calls[0] == calls[1] > 0
