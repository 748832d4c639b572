"""Cross-check the recorded references with sympy and networkx.

Graphs here are built straight from group tables or permutations, without
commspec's graph code; sympy computes characteristic polynomials and
networkx the components.  Both are test-only dependencies.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

import workloads
from commspec.catalog import build, list_catalog
from commspec.graphs import build_commuting_graph
from commspec.groups import from_cayley_text
from commspec.spectra import char_poly

sympy = pytest.importorskip("sympy")
nx = pytest.importorskip("networkx")

REFERENCES = json.loads(
    (Path(__file__).resolve().parent.parent / "references.json").read_text()
)
CATALOG = dict(list_catalog())


def _commuting_graph(elements, commute) -> "nx.Graph":
    central = [x for x in elements if all(commute(x, y) for y in elements)]
    graph = nx.Graph()
    graph.add_nodes_from(x for x in elements if x not in central)
    graph.add_edges_from(
        (x, y) for x, y in itertools.combinations(graph.nodes, 2) if commute(x, y)
    )
    return graph


def _table_graph(group) -> "nx.Graph":
    table = group.table
    return _commuting_graph(range(group.order), lambda a, b: table[a][b] == table[b][a])


def _permutation_graph(degree: int, even: bool) -> "nx.Graph":
    def compose(a, b):
        return tuple(a[x] for x in b)

    return _commuting_graph(
        workloads.permutations(degree, even), lambda a, b: compose(a, b) == compose(b, a)
    )


def _component_sizes(graph) -> list[int]:
    return sorted((len(c) for c in nx.connected_components(graph)), reverse=True)


def _sympy_charpoly(graph) -> "sympy.Poly":
    x = sympy.Symbol("x")
    poly = sympy.Poly(1, x)
    for component in nx.connected_components(graph):
        nodes = sorted(component)
        matrix = sympy.Matrix(
            [[int(graph.has_edge(u, v)) for v in nodes] for u in nodes]
        )
        poly *= sympy.Poly(matrix.charpoly(x).as_expr(), x)
    return poly


def _commspec_coeffs(group) -> list[int]:
    """commspec's characteristic polynomial, highest power first."""
    return list(reversed(char_poly(build_commuting_graph(group).to_matrix()).coeffs))


@pytest.mark.parametrize("name", sorted(REFERENCES["grid_groups"]))
def test_grid_component_sizes_match_networkx(name):
    graph = _table_graph(build(CATALOG[name]))
    assert _component_sizes(graph) == REFERENCES["grid_groups"][name]["component_sizes"]


@pytest.mark.parametrize("name", ["Heis(3)", "Q12", "D8xZ2", "M(3,2)", "U18", "D14"])
def test_grid_charpoly_and_spectrum_match_sympy(name):
    group = build(CATALOG[name])
    poly = _sympy_charpoly(_table_graph(group))
    assert [int(c) for c in poly.all_coeffs()] == _commspec_coeffs(group)
    roots = sorted(sympy.roots(poly).items(), reverse=True)
    assert [[int(v), k] for v, k in roots] == REFERENCES["grid_groups"][name]["spectrum"]


@pytest.mark.parametrize(
    "label, degree, even, integral",
    [("S4", 4, False, False), ("A5", 5, True, True)],
)
def test_s4_a5_charpoly_and_integrality_match_sympy(label, degree, even, integral):
    perms = workloads.permutations(degree, even)
    group = from_cayley_text(workloads.cayley_text(perms, random.Random(7)))
    poly = _sympy_charpoly(_permutation_graph(degree, even))
    assert [int(c) for c in poly.all_coeffs()] == _commspec_coeffs(group)
    integer_roots = sum(k for v, k in sympy.roots(poly).items() if v.is_integer)
    assert (integer_roots == poly.degree()) is integral
    lines = REFERENCES["general"][f"verify {label}"]["lines"]
    assert f"integral: {'yes' if integral else 'no'}" in lines


def test_s5_components_and_edges_match_networkx():
    graph = _permutation_graph(5, False)
    reference = REFERENCES["general"]["analyze S5"]
    assert graph.number_of_nodes() == reference["vertices"]
    assert graph.number_of_edges() == reference["edges"]
    assert _component_sizes(graph) == reference["component_sizes"]
