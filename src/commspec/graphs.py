"""Commuting graphs on non-central elements or on the non-central cosets
of the center, their connected components, and their DOT and JSON forms.

Adjacency is stored as one bitmask per vertex (dense bit matrix); vertex
positions index into ``vertices``, which holds the underlying element
indices in ascending order (for a coset graph, each coset's smallest
member).  The spectrum, and with it the component structure that reports
state (the sizes, and whether every component is complete), is decided on
the coset graph (``coset_graph``), each coset standing for |Z| elements:
``spectra.is_integral`` walks its components once and keeps a record per
block.  The element graph (``build_commuting_graph``) is built only for
graph output, the DOT export and the JSON report's ``graph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import AbelianGroupError
from .groups import FiniteGroup, _bits


@dataclass(frozen=True)
class CommutingGraph:
    vertices: tuple[int, ...]
    adjacency: tuple[int, ...]
    edge_count: int

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def to_matrix(self) -> list[list[int]]:
        """Adjacency as a 0/1 matrix over vertex positions."""
        n = self.vertex_count
        return [[self.adjacency[i] >> j & 1 for j in range(n)] for i in range(n)]

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (i, j) position pairs with i < j, sorted."""
        out = []
        for i in range(self.vertex_count):
            out.extend((i, j) for j in _bits(self.adjacency[i] >> (i + 1) << (i + 1)))
        return out


def build_commuting_graph(group: FiniteGroup) -> CommutingGraph:
    """Graph on the non-central elements, adjacent iff they commute.

    The vertices are the members of the non-central cosets of the center Z.
    Commutation is constant on pairs of Z-cosets, so each coset gets one row:
    the union, over vertex positions, of the non-central cosets that commute
    with it, q^2 bit tests in all.  Each vertex takes its coset's row without
    its own bit.
    """
    if group.is_abelian():
        raise AbelianGroupError("commuting graph is undefined for abelian groups")
    decomposition = group.center_cosets
    coset_of = decomposition.coset_of
    verts = tuple(x for x in range(group.order) if coset_of[x])
    bits = [0] * len(decomposition.cosets)  # coset 0, the center, has no vertices
    for i, x in enumerate(verts):
        bits[coset_of[x]] |= 1 << i
    rows = [sum(bits[j] for j in _bits(row)) for row in decomposition.commuting]
    adj = tuple(rows[coset_of[x]] & ~(1 << i) for i, x in enumerate(verts))
    return CommutingGraph(verts, adj, sum(row.bit_count() for row in adj) // 2)


def coset_graph(group: FiniteGroup) -> CommutingGraph:
    """Graph on the q - 1 non-central cosets of the center, adjacent iff they
    commute: the rows of ``CenterCosets.commuting`` without bit 0, the
    center, and without each coset's own bit.

    Each vertex is its coset's representative, the smallest member, so the
    vertices ascend.  Each coset stands for |Z| true twins of the commuting
    graph, and ``spectra.is_integral(coset_graph(group), |Z|)`` decides that
    graph's spectrum (the coset identity is proved in
    ``spectra._block_factor``).
    """
    if group.is_abelian():
        raise AbelianGroupError("commuting graph is undefined for abelian groups")
    decomposition = group.center_cosets
    adj = tuple(
        row >> 1 & ~(1 << i) for i, row in enumerate(decomposition.commuting[1:])
    )
    verts = tuple(coset[0] for coset in decomposition.cosets[1:])
    return CommutingGraph(verts, adj, sum(row.bit_count() for row in adj) // 2)


def connected_components(graph: CommutingGraph) -> list[tuple[int, ...]]:
    """Partition of the vertex positions by reachability, each sorted."""
    n = graph.vertex_count
    adj = graph.adjacency
    unseen = (1 << n) - 1
    components = []
    while unseen:
        start = unseen & -unseen
        comp = start
        frontier = start
        while frontier:
            grow = 0
            for v in _bits(frontier):
                grow |= adj[v]
            frontier = grow & ~comp & unseen
            comp |= frontier
        unseen &= ~comp
        components.append(tuple(_bits(comp)))
    return components


def _labels(graph: CommutingGraph, names: Sequence[str] | None) -> list[str]:
    """Each vertex position's element name, or its index without names."""
    if names is None:
        return [str(element) for element in graph.vertices]
    return [names[element] for element in graph.vertices]


def export_dot(graph: CommutingGraph, names: Sequence[str] | None = None) -> str:
    """Deterministic DOT text; vertices labelled by element names."""
    labels = [
        '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')
        for text in _labels(graph, names)
    ]
    lines = ["graph commuting {"]
    lines.extend(f"  {label};" for label in labels)
    lines.extend(f"  {labels[u]} -- {labels[v]};" for u, v in graph.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json(graph: CommutingGraph, names: Sequence[str] | None = None) -> dict:
    """Vertex-name / edge-list embedding used inside analysis reports."""
    labels = _labels(graph, names)
    return {
        "vertices": labels,
        "edges": [[labels[u], labels[v]] for u, v in graph.edges()],
    }
