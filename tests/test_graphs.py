import random

import pytest

from commspec.catalog import FamilySpec, build
from commspec.errors import AbelianGroupError
from commspec.graphs import (
    build_commuting_graph,
    connected_components,
    coset_graph,
    export_dot,
    graph_json,
)
from commspec.groups import center, from_cayley_table
from commspec.predictions import verify_group
from commspec.spectra import is_integral

from oracles import centralizer, raw_graph
from permutation_groups import permutation_table
from test_spectra import _random_graph


def _from_records(graph):
    """Component sizes, descending, and whether every component is complete,
    read from is_integral's per-block records as verify_group reads them."""
    analysis = is_integral(graph)
    return analysis.component_sizes, analysis.all_cliques


def _edge_count_oracle(graph):
    """The same pair by counting each component's internal edges: a
    component of k vertices is complete iff it has k(k - 1)/2 of them."""
    sizes = []
    all_cliques = True
    for comp in connected_components(graph):
        k = len(comp)
        mask = sum(1 << v for v in comp)
        internal = sum((graph.adjacency[v] & mask).bit_count() for v in comp) // 2
        all_cliques &= internal == k * (k - 1) // 2
        sizes.append(k)
    return tuple(sorted(sizes, reverse=True)), all_cliques


def test_d6_graph(d6):
    graph = build_commuting_graph(d6)
    assert graph.vertices == (1, 2, 3, 4, 5)
    # the only commuting non-central pair is {a, a^2}
    a = graph.vertices.index(d6.names.index("a"))
    a2 = graph.vertices.index(d6.names.index("a^2"))
    assert graph.edges() == [(a, a2)]
    assert graph.edge_count == 1
    assert len(connected_components(graph)) == 4


def test_q8_graph(q8):
    graph = build_commuting_graph(q8)
    assert graph.vertex_count == 6
    components = connected_components(graph)
    assert sorted(len(c) for c in components) == [2, 2, 2]
    element_sets = {
        frozenset(q8.names[graph.vertices[p]] for p in comp) for comp in components
    }
    assert element_sets == {
        frozenset({"a", "a^3"}),
        frozenset({"b", "a^2b"}),
        frozenset({"ab", "a^3b"}),
    }


def test_abelian_group_rejected():
    with pytest.raises(AbelianGroupError):
        build_commuting_graph(build(FamilySpec.cyclic(6)))


def test_coset_graph_rejects_abelian():
    # one coset, the center: there is no non-central coset to be a vertex
    with pytest.raises(AbelianGroupError) as info:
        coset_graph(build(FamilySpec.cyclic(6)))
    assert str(info.value) == "commuting graph is undefined for abelian groups"


def test_heis3_graph_is_four_cliques_of_six(heis3):
    graph = build_commuting_graph(heis3)
    component_sizes, all_cliques = _from_records(graph)
    assert component_sizes == (6, 6, 6, 6)
    assert all_cliques
    # four equal blocks share one record, with a single twin class
    (block,) = is_integral(graph).blocks
    assert (block.size, block.count, block.classes) == (6, 4, 1)


def test_d12_component_sizes(d12):
    graph = build_commuting_graph(d12)
    component_sizes, all_cliques = _from_records(graph)
    assert component_sizes == (4, 2, 2, 2)
    assert all_cliques


def test_vertex_count_and_degree_identity(d12):
    graph = build_commuting_graph(d12)
    z = len(center(d12))
    assert graph.vertex_count == d12.order - z
    for pos, element in enumerate(graph.vertices):
        degree = graph.adjacency[pos].bit_count()
        assert degree == len(centralizer(d12, element)) - z - 1


def test_edgeless_components():
    graph = raw_graph(3, [])
    assert connected_components(graph) == [(0,), (1,), (2,)]


def test_four_cycle_is_not_a_clique_union():
    c4 = raw_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    component_sizes, all_cliques = _from_records(c4)
    assert component_sizes == (4,)
    assert not all_cliques
    # no two vertices of C4 share a closed neighbourhood
    (block,) = is_integral(c4).blocks
    assert (block.size, block.count, block.classes) == (4, 1, 4)


def test_complete_graph_is_a_clique():
    k5 = raw_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    component_sizes, all_cliques = _from_records(k5)
    assert component_sizes == (5,)
    assert all_cliques


def test_reports_agree_with_the_edge_count_rule_on_groups(grid_reports):
    reports = [report for _, _, _, report in grid_reports]
    assert len(reports) == 73
    for label, degree, even, seed in (
        ("S4", 4, False, 11),
        ("A5", 5, True, 12),
        ("S5", 5, False, 13),
    ):
        table = permutation_table(degree, even, random.Random(seed))
        reports.append(verify_group(from_cayley_table(table), label))
    for report in reports:
        expected = _edge_count_oracle(build_commuting_graph(report.group))
        analysis = report.analysis
        assert (analysis.component_sizes, analysis.all_cliques) == expected, report.name
    # S4 and S5 have components that are not complete; A5's centralizers are
    # abelian, so its components are cliques
    assert [r.analysis.all_cliques for r in reports[-3:]] == [False, True, False]


def _star(n):
    return raw_graph(n, [(0, i) for i in range(1, n)])


def _path(n):
    return raw_graph(n, [(i, i + 1) for i in range(n - 1)])


def _side_by_side(*graphs):
    edges = []
    offset = 0
    for graph in graphs:
        edges += [(u + offset, v + offset) for u, v in graph.edges()]
        offset += graph.vertex_count
    return raw_graph(offset, edges)


def test_records_agree_with_the_edge_count_rule_on_raw_graphs():
    rng = random.Random(31)
    graphs = [raw_graph(0, []), raw_graph(1, []), raw_graph(4, [])]
    graphs += [_star(n) for n in range(1, 7)] + [_path(n) for n in range(1, 7)]
    graphs.append(_side_by_side(_star(4), raw_graph(2, []), _path(3), _star(4)))
    for _ in range(60):
        graphs.append(_random_graph(rng, rng.randint(0, 12), rng.random()))
        parts = [rng.choice([_star, _path])(rng.randint(1, 5)) for _ in range(3)]
        graphs.append(_side_by_side(*parts, raw_graph(rng.randint(0, 2), [])))
    for graph in graphs:
        assert _from_records(graph) == _edge_count_oracle(graph), graph.edges()


def test_export_dot_d6(d6):
    graph = build_commuting_graph(d6)
    dot = export_dot(graph, d6.names)
    edge_lines = [line for line in dot.splitlines() if " -- " in line]
    assert edge_lines == ['  "a" -- "a^2";']
    assert dot.startswith("graph commuting {")
    assert dot.endswith("}\n")


def test_export_dot_q8(q8):
    graph = build_commuting_graph(q8)
    dot = export_dot(graph, q8.names)
    lines = dot.splitlines()
    node_lines = [line for line in lines if line.endswith(";") and " -- " not in line]
    edge_lines = [line for line in lines if " -- " in line]
    assert len(node_lines) == 6
    assert len(edge_lines) == 3


def test_export_dot_is_deterministic(d6):
    first = export_dot(build_commuting_graph(d6), d6.names)
    second = export_dot(build_commuting_graph(build(FamilySpec.dihedral(3))), d6.names)
    assert first == second


def test_export_dot_edgeless_graph_has_only_node_statements():
    dot = export_dot(raw_graph(3, []), ["x", "y", "z"])
    assert " -- " not in dot
    assert dot.count(";") == 3


def test_graph_json(q8):
    graph = build_commuting_graph(q8)
    payload = graph_json(graph, q8.names)
    assert payload["vertices"] == ["a", "a^3", "b", "ab", "a^2b", "a^3b"]
    assert ["a", "a^3"] in payload["edges"]
    assert len(payload["edges"]) == 3
