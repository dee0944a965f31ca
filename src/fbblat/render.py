"""Serializers for posets, digraphs and verification reports.

Formats are byte-deterministic: element order comes from the poset itself,
covers in the poset's stored order (sorted by element index), arcs in ascending label order (which is also
dictionary order of the pairs), and JSON uses a fixed layout.  DOT output
is text only; rendering is the caller's toolchain.

JSON schemas:
    poset   {"elements": [{"id": int, "name": str}], "covers": [[lo, hi]]}
    graph   {"n": int, "arcs": [[i, j, label]]}
    report  {"checks": [{"name": str, "status": "pass"|"fail", "detail": str}]}
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass

from .labeling import unrank

_FORMATS = ("dot", "json", "csv", "text")


@dataclass(frozen=True)
class RenderSpec:
    """Requested output format plus destination (None = standard output)."""

    format: str
    output: str | None = None

    def __post_init__(self):
        if self.format not in _FORMATS:
            raise ValueError(
                f"format must be one of {_FORMATS}, got {self.format!r}")

    def write(self, text):
        if self.output is None:
            sys.stdout.write(text)
        else:
            with open(self.output, "w", encoding="ascii") as handle:
                handle.write(text)


_NAME_RE = re.compile(r"^([uxc])(\d+)$")


def _chain_levels(p):
    """name -> u-chain level for canonically named block posets, else None.

    u_i and x_i sit at level i; c_k sits at the level of its lower reducible.
    """
    parsed = {}
    n = 0
    for name in p.names:
        m = _NAME_RE.match(name)
        if not m:
            return None
        parsed[name] = (m.group(1), int(m.group(2)))
        if m.group(1) == "u":
            n = max(n, int(m.group(2)))
    if n < 2:
        return None
    levels = {}
    for name, (kind, num) in parsed.items():
        if kind in ("u", "x"):
            levels[name] = num
        else:
            try:
                levels[name] = unrank(n, num)[0]
            except ValueError:
                return None
    return levels


def poset_json_obj(p):
    return {
        "elements": [{"id": i, "name": name} for i, name in enumerate(p.names)],
        "covers": [list(pair) for pair in p._covers],
    }


def poset_to_json(p):
    return json.dumps(poset_json_obj(p), indent=2) + "\n"


def poset_to_dot(p, name="poset"):
    """Hasse diagram as a DOT digraph, covers drawn lower -> upper."""
    levels = _chain_levels(p)
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=circle];"]
    for element in p.names:
        attrs = f'label="{element}"'
        if levels is not None:
            attrs += f' rank="{levels[element]}"'
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


def graph_json_obj(dg):
    return {
        "n": dg.n,
        "arcs": [[i, j, k] for (i, j), k in zip(dg.arcs, dg.ranks)],
    }


def graph_to_json(dg):
    return json.dumps(graph_json_obj(dg), indent=2) + "\n"


def graph_to_dot(dg, name="graph_of"):
    lines = [f"digraph {name} {{"]
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


def report_json_obj(checks):
    return {"checks": [{"name": name,
                        "status": "pass" if ok else "fail",
                        "detail": detail}
                       for name, ok, detail in checks]}


def report_to_json(checks):
    return json.dumps(report_json_obj(checks), indent=2) + "\n"


def report_to_text(checks):
    lines = []
    for name, ok, detail in checks:
        status = "pass" if ok else "FAIL"
        lines.append(f"[{status}] {name}: {detail}")
    passed = sum(1 for _, ok, _ in checks if ok)
    lines.append(f"{passed}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n"
