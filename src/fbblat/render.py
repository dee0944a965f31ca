"""Serializers for posets, digraphs and verification reports.

Formats are byte-deterministic: element order comes from the poset itself,
covers in element index order, arcs in ascending label order (which is also
dictionary order of the pairs), and JSON uses a fixed layout.  DOT output
is text only; rendering is the caller's toolchain.  A block's DOT nodes
carry their level on its reducible chain, read from its order, not from
element names.  Each kind of object has one table of renderers by format,
whose keys are the formats the command line offers.

JSON schemas:
    poset   {"elements": [{"id": int, "name": str}], "covers": [[lo, hi]]}
    graph   {"n": int, "arcs": [[i, j, label]]}
    report  {"checks": [{"name": str, "status": "pass"|"fail", "detail": str}]}
"""

import json
import sys

from .errors import ExtractionUnsupportedError
from .fbb import _reading
from .poset import _order_scan


def write(chunks, path):
    """Write ``chunks``, a string or an iterable of strings, to the file
    ``path`` or, if None, to standard output, one write per chunk.

    The file is created by this call, so work that can fail belongs before
    it.  ``counting.triangle_chunks`` fills every row before it returns and
    then yields one chunk per row, so nothing is written on an error.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="ascii") as handle:
            handle.writelines(chunks)


def _chain_levels(p):
    """Level of each element by index if ``p`` reads as a block, else None:
    the reducibles at or below it, so u_i and x_i sit at level i, and c_k at
    the level of its lower reducible."""
    try:
        _reading(p)
    except ExtractionUnsupportedError:
        return None
    _, jr, mr, _ = _order_scan(p)
    return [((down | 1 << e) & (jr | mr)).bit_count()
            for e, down in enumerate(p._down)]


def poset_to_json(p):
    return json.dumps({
        "elements": [{"id": i, "name": name} for i, name in enumerate(p.names)],
        "covers": [list(pair) for pair in p._index_covers()],
    }, indent=2) + "\n"


def poset_to_dot(p):
    """Hasse diagram as a DOT digraph, covers drawn lower -> upper."""
    levels = _chain_levels(p)
    lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=circle];"]
    for i, element in enumerate(p.names):
        attrs = f'label="{element}"'
        if levels is not None:
            attrs += f' rank="{levels[i]}"'
        lines.append(f'  "{element}" [{attrs}];')
    for lo, hi in p.covers:
        lines.append(f'  "{lo}" -> "{hi}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_text(p):
    covers = p.covers
    lines = [f"poset: {len(p)} elements, {len(covers)} covers",
             "elements: " + " ".join(p.names),
             "covers:"]
    for lo, hi in covers:
        lines.append(f"  {lo} < {hi}")
    return "\n".join(lines) + "\n"


def graph_to_json(dg):
    return json.dumps({
        "n": dg.n,
        "arcs": [[i, j, k] for (i, j), k in zip(dg.arcs, dg.ranks)],
    }, indent=2) + "\n"


def graph_to_dot(dg):
    lines = ["digraph graph_of {"]
    for v in range(1, dg.n + 1):
        lines.append(f'  "v{v}";')
    for (i, j), k in zip(dg.arcs, dg.ranks):
        lines.append(f'  "v{i}" -> "v{j}" [label="e{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_text(dg):
    lines = [f"digraph on vertices 1..{dg.n}, {len(dg)} arcs"]
    for (i, j), k in zip(dg.arcs, dg.ranks):
        lines.append(f"  e{k}: ({i}, {j})")
    return "\n".join(lines) + "\n"


def report_to_json(checks):
    return json.dumps({"checks": [{"name": name,
                                   "status": "pass" if ok else "fail",
                                   "detail": detail}
                                  for name, ok, detail in checks]},
                      indent=2) + "\n"


def report_to_text(checks):
    lines = []
    for name, ok, detail in checks:
        status = "pass" if ok else "FAIL"
        lines.append(f"[{status}] {name}: {detail}")
    passed = sum(1 for _, ok, _ in checks if ok)
    lines.append(f"{passed}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n"


# Key order is the order the command line lists the formats in.
POSET_RENDERERS = {"dot": poset_to_dot, "json": poset_to_json,
                   "text": poset_to_text}
GRAPH_RENDERERS = {"dot": graph_to_dot, "json": graph_to_json,
                   "text": graph_to_text}
REPORT_RENDERERS = {"text": report_to_text, "json": report_to_json}
