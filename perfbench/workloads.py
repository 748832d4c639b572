"""The benchmark's workloads, their generated inputs and the output checks.

Each workload is a fixed list of CLI operations; a pass runs each once, in
order.  Why these three:

- ``grid``: ``suite`` over the 73 catalog groups, the paper's verification
  grid: many small groups, each analysed twice (``verify_group`` then
  ``verify_centralizer_corollaries``); Faddeev-LeVerrier dominates.
- ``large``: three off-grid groups with cliques of 42, 60 and 38 vertices,
  where big characteristic-polynomial blocks and the O(n^3) validation of
  heis:7's 343-element table dominate.
- ``general``: S4, A5 and S5 Cayley tables built from permutations, the only
  graphs that are not clique unions (S4 and S5 have non-integral
  remainders).  It covers the ``file:`` parse and relabel path and the JSON
  graph output.  ``verify`` on S5 is left out: ``max_noncommuting_set``
  does not finish on it within 200 s.

Only ``general`` depends on the seed: it relabels the elements of each
table and moves the identity off index 0.  Its outputs are checked on the
fields that do not depend on the labelling; the other outputs are checked
byte for byte against digests recorded at the seed commit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("grid", "large", "general")

# Checking modes: "digest" compares exit code and the sha256 of the output;
# "verdicts" compares the exit code and every output line but the first,
# which names the input file; "report" compares the label-independent
# fields of an ``analyze --format json`` report.
_OPS = {
    "grid": (("suite", ("suite", "--format", "json"), "digest"),),
    "large": (
        ("verify heis:7", ("verify", "heis:7"), "digest"),
        ("verify metacyclic:12,6", ("verify", "metacyclic:12,6"), "digest"),
        ("verify dihedral:40", ("verify", "dihedral:40"), "digest"),
    ),
    "general": (
        ("verify S4", ("verify", "file:{s4}"), "verdicts"),
        ("verify A5", ("verify", "file:{a5}"), "verdicts"),
        ("analyze S5", ("analyze", "file:{s5}", "--format", "json"), "report"),
    ),
}

# name -> (degree, even permutations only)
_PERMUTATION_GROUPS = {"s4": (4, False), "a5": (5, True), "s5": (5, False)}


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    mode: str


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's operations; writes ``general``'s tables into workdir."""
    paths = {}
    if workload == "general":
        workdir.mkdir(parents=True, exist_ok=True)
        for k, (name, (degree, even)) in enumerate(_PERMUTATION_GROUPS.items()):
            path = workdir / f"{name}.cayley"
            rng = random.Random(seed * len(_PERMUTATION_GROUPS) + k)
            path.write_text(cayley_text(permutations(degree, even), rng))
            paths[name] = os.path.relpath(path)
    return [
        Op(name, tuple(arg.format(**paths) for arg in argv), mode)
        for name, argv, mode in _OPS[workload]
    ]


def permutations(degree: int, even: bool) -> list[tuple[int, ...]]:
    perms = list(itertools.permutations(range(degree)))
    if even:
        perms = [p for p in perms if _inversions(p) % 2 == 0]
    return perms


def _inversions(p: tuple[int, ...]) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j])


def cayley_text(perms: list[tuple[int, ...]], rng: random.Random) -> str:
    """Cayley-table text of a permutation group, elements in random order.

    The product is composition, (a*b)(i) = a(b(i)).  Elements are named by
    one-line notation, so names do not depend on the order, and the
    identity never sits at index 0.
    """
    order = perms[:]
    rng.shuffle(order)
    if order[0] == tuple(range(len(order[0]))):
        swap = rng.randrange(1, len(order))
        order[0], order[swap] = order[swap], order[0]
    index = {p: i for i, p in enumerate(order)}
    rows = [
        " ".join(str(index[tuple(a[x] for x in b)]) for b in order) for a in order
    ]
    names = " ".join("".join(str(x + 1) for x in p) for p in order)
    return f"{len(order)}\n" + "\n".join(rows) + f"\nnames: {names}\n"


def fingerprint(mode: str, code: int, text: str) -> dict:
    """The part of an operation's result that the reference fixes."""
    if mode == "digest":
        return {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if mode == "verdicts":
        return {"exit": code, "lines": text.splitlines()[1:]}
    report = json.loads(text)
    spectrum = [[e["value"], e["multiplicity"]] for e in report["spectrum"]]
    graph = report["graph"]
    edges = sorted(sorted(edge) for edge in graph["edges"])
    return {
        "exit": code,
        "order": report["order"],
        "center_size": report["center_size"],
        "centralizer_count": report["centralizer_count"],
        "vertices": report["vertices"],
        "component_sizes": report["component_sizes"],
        "spectrum": spectrum,
        "integral": report["integral"],
        "remainder_degree": report["vertices"] - sum(m for _, m in spectrum),
        "verdicts": [p["verdict"] for p in report["predictions"]],
        "vertex_names_sha256": _digest(sorted(graph["vertices"])),
        "edges": len(edges),
        "edges_sha256": _digest(edges),
    }


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def mismatch(op: Op, reference: dict, code: int, text: str) -> str | None:
    """None when the output matches the reference, else what differs."""
    try:
        got = fingerprint(op.mode, code, text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{op.name}: output not readable ({exc!r}), exit code {code}"
    wrong = sorted(k for k in reference if got.get(k) != reference[k])
    if not wrong:
        return None
    shown = ", ".join(f"{k}={got.get(k)!r} (want {reference[k]!r})" for k in wrong)
    return f"{op.name}: {shown}"
