"""Structural invariants checked across the whole verification grid."""

import pytest

from commspec import catalog, groups
from commspec.catalog import FamilySpec, build, parse_family
from commspec.errors import AxiomViolation, CommspecError
from commspec.graphs import build_commuting_graph, connected_components
from commspec.groups import (
    FiniteGroup,
    Recognition,
    center,
    centralizer_count,
    from_cayley_table,
    from_cayley_text,
    max_noncommuting_set,
    quotient_by_center,
    recognize_small,
)
from commspec.predictions import verify_centralizer_corollaries, verify_group
from commspec.spectra import CharPoly, exact_determinant

from oracles import (
    centralizer,
    clique_union_spectrum,
    coefficient,
    expanded_char_poly,
    format_cayley_text,
    poly_product,
)
from permutation_groups import permutation_group


def _is_subgroup(group, members):
    member_set = set(members)
    if 0 not in member_set:
        return False
    return all(
        group.mul(a, b) in member_set for a in member_set for b in member_set
    )


def test_centralizer_subgroup_invariants(grid):
    # exhaustive over every element of every grid group
    for name, _, group in grid:
        z = center(group)
        central = set(z)
        assert 0 in central, name
        for x in range(group.order):
            c = centralizer(group, x)
            members = set(c)
            assert central <= members, name
            assert x in members, name
            assert group.order % len(c) == 0, name  # Lagrange
            assert (len(c) == group.order) == (x in central), name


def test_center_and_centralizers_are_subgroups(grid):
    for name, _, group in grid:
        assert _is_subgroup(group, center(group)), name
        for x in range(group.order):
            assert _is_subgroup(group, centralizer(group, x)), (name, x)


def test_quotient_order_identity(grid):
    for name, _, group in grid:
        quotient = quotient_by_center(group)
        assert quotient.order * len(center(group)) == group.order, name
        decomposition = group.center_cosets
        for x in range(group.order):
            assert x in decomposition.cosets[decomposition.coset_of[x]], name


def test_centralizer_count_is_one_exactly_for_abelian(grid):
    for k in (1, 2, 5, 8):
        assert centralizer_count(build(FamilySpec.cyclic(k))) == 1
    for name, _, group in grid:
        assert centralizer_count(group) > 1, name


def test_vertex_count_identity(grid_reports):
    for name, _, group, report in grid_reports:
        assert report.vertex_count == group.order - report.center_size, name


def test_degree_equals_centralizer_size_identity(grid):
    for name, _, group in grid:
        graph = build_commuting_graph(group)
        z = len(center(group))
        for pos, element in enumerate(graph.vertices):
            degree = graph.adjacency[pos].bit_count()
            assert degree == len(centralizer(group, element)) - z - 1, name


def test_components_are_cliques_matching_centralizers(grid_reports):
    for name, _, group, report in grid_reports:
        assert report.analysis.all_cliques, name
        z = len(center(group))
        distinct = {
            centralizer(group, x)
            for x in range(group.order)
            if len(centralizer(group, x)) < group.order
        }
        expected = sorted((len(m) - z for m in distinct), reverse=True)
        assert list(report.analysis.component_sizes) == expected, name


def test_clique_union_closed_form_matches_char_poly_route(grid_reports):
    for name, _, _, report in grid_reports:
        closed_form = clique_union_spectrum(report.analysis.component_sizes)
        assert closed_form == report.analysis.spectrum, name


def test_char_poly_coefficients(grid_reports):
    for name, _, group, report in grid_reports:
        poly = expanded_char_poly(report.analysis)
        n = report.vertex_count
        edges = build_commuting_graph(group).edge_count
        assert poly.degree == n, name
        assert coefficient(poly, n - 1) == 0, name
        assert coefficient(poly, n - 2) == -edges, name


def test_spectrum_moments(grid_reports):
    for name, _, group, report in grid_reports:
        spectrum = report.analysis.spectrum
        assert report.analysis.integral, name
        assert sum(k for _, k in spectrum.pairs) == report.vertex_count, name
        assert sum(k * v for v, k in spectrum.pairs) == 0, name
        edges = build_commuting_graph(group).edge_count
        assert sum(k * v * v for v, k in spectrum.pairs) == 2 * edges, name


def test_deflation_reconstructs_char_poly(grid_reports):
    for name, _, _, report in grid_reports:
        product = report.analysis.remainder
        for value, mult in report.analysis.spectrum.pairs:
            for _ in range(mult):
                product = poly_product(product, CharPoly((-value, 1)))
        assert product == expanded_char_poly(report.analysis), name


def test_char_poly_evaluation_matches_determinant_on_small_groups(grid_reports):
    for name, _, group, report in grid_reports:
        if group.order > 36:
            continue
        poly = expanded_char_poly(report.analysis)
        matrix = build_commuting_graph(group).to_matrix()
        n = len(matrix)
        for t in (-2, -1, 0, 1, 2):
            shifted = [
                [(t if i == j else 0) - matrix[i][j] for j in range(n)]
                for i in range(n)
            ]
            assert poly.evaluate(t) == exact_determinant(shifted), (name, t)


def test_quotient_recognition_on_known_groups():
    q8 = build(FamilySpec.dicyclic(2))
    assert recognize_small(quotient_by_center(q8)) == Recognition("zpzp", 2)
    q12 = build(FamilySpec.dicyclic(3))
    assert recognize_small(quotient_by_center(q12)) == Recognition("dihedral", 3)
    for n in range(1, 7):
        u = build(FamilySpec.u6n(n))
        assert recognize_small(quotient_by_center(u)) == Recognition(
            "dihedral", 3
        ), n


def test_every_grid_group_gets_a_quotient_prediction(grid_reports):
    for name, _, _, report in grid_reports:
        assert report.recognition.kind in ("zpzp", "dihedral"), name
        sources = [c.prediction.source for c in report.checks]
        assert sources[0] in ("zpzp-quotient", "dihedral-quotient"), name


def test_prediction_multiplicities_sum_to_vertex_count(grid_reports):
    for name, _, _, report in grid_reports:
        for check in report.checks:
            pairs = check.prediction.spectrum.pairs
            assert sum(k for _, k in pairs) == report.vertex_count, name


def test_noncommuting_witness_size_pins_centralizer_count(grid):
    # a largest pairwise non-commuting set of size 3 forces 4 centralizers,
    # size 4 forces 5
    for name, _, group in grid:
        r = len(max_noncommuting_set(group))
        count = centralizer_count(group)
        if r == 3:
            assert count == 4, name
        if r == 4:
            assert count == 5, name


def test_component_count_equals_quotient_prediction_shape(grid_reports):
    # p + 1 cliques for the square quotient, m + 1 for the dihedral quotient
    for name, _, group, report in grid_reports:
        parts = len(connected_components(build_commuting_graph(group)))
        assert parts == report.recognition.param + 1, name


def test_flipping_one_table_entry_raises_axiom_violation(grid):
    # A group table is a Latin square, so a changed entry repeats a value in
    # its row.  The table then either loses its identity, has a row without
    # exactly one identity, or is not associative: an associative table with
    # an identity and right inverses is a group.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    groups = [group for _, _, group in grid if group.order > 1]

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        group = data.draw(st.sampled_from(groups))
        n = group.order
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        value = data.draw(st.integers(0, n - 2))
        if value >= group.table[i][j]:
            value += 1
        table = [list(row) for row in group.table]
        table[i][j] = value
        with pytest.raises(AxiomViolation):
            from_cayley_table(table)

    check()


def _relabel(group: FiniteGroup, perm: list[int]) -> FiniteGroup:
    """The same group with element i renamed perm[i]; from_cayley_table moves
    the identity back to index 0."""
    n = group.order
    table = [[0] * n for _ in range(n)]
    for i, row in enumerate(group.table):
        for j, v in enumerate(row):
            table[perm[i]][perm[j]] = perm[v]
    return from_cayley_table(table)


def _label_free_report(group, name, spec):
    report = verify_group(group, name, spec)
    return (
        expanded_char_poly(report.analysis),
        report.analysis.spectrum,
        report.analysis.remainder,
        report.center_size,
        report.centralizer_count,
        report.analysis.component_sizes,
        report.analysis.all_cliques,
        report.recognition,
        report.analysis.integral,
        report.checks,
        verify_centralizer_corollaries(report),
    )


def test_relabelling_leaves_the_report_unchanged(grid):
    # Relabelling permutes the commuting graph's vertices, so the connected
    # blocks reach is_integral as different submatrices, get different
    # per-call block keys and twin classes; S4's non-integral remainder and
    # A5's non-clique blocks cover what the grid's clique unions do not.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cases = [(name, spec, group) for name, spec, group in grid]
    cases += [("S4", None, permutation_group(4, False))]
    cases += [("A5", None, permutation_group(5, True))]
    expected = [_label_free_report(g, name, spec) for name, spec, g in cases]

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        i = data.draw(st.integers(0, len(cases) - 1))
        name, spec, group = cases[i]
        perm = data.draw(st.permutations(range(group.order)))
        relabelled = _relabel(group, perm)
        assert _label_free_report(relabelled, name, spec) == expected[i], name

    check()


_FAMILY_NAMES = [
    "dihedral", "dicyclic", "metacyclic", "u6n", "heis", "expp2", "zpzp",
    "cyclic", "product", "prod",
]


def test_parsed_specs_round_trip_and_know_their_order(monkeypatch):
    # Spec strings joined from family names, separators, signs, underscores,
    # short digit runs and an Arabic-Indic digit either fail with a typed
    # error or give a spec whose label parses back to it and whose order is
    # computed without building a table.  Most strings are a family head
    # with as many digit runs as it takes parameters, alone or as prod:
    # factors, so that every family parses and reaches its range checks.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def no_tables(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(groups, "_walk", no_tables)
    digits = st.text("0123456789", min_size=1, max_size=3)
    tokens = st.lists(
        st.one_of(st.sampled_from(_FAMILY_NAMES + list("z:, +-_\u0663")), digits),
        max_size=8,
    ).map("".join)

    def with_params(head):
        arity = len(catalog._FAMILIES[head].params) if head in catalog._FAMILIES else 1
        params = st.lists(digits, min_size=arity, max_size=arity).map(",".join)
        return params.map(f"{head}:".__add__)

    single = st.one_of(
        st.sampled_from(_FAMILY_NAMES).flatmap(with_params),
        digits.map("z".__add__),
    )
    factors = st.lists(single, min_size=1, max_size=3).map(",".join)
    specs = st.one_of(single, factors.map("prod:".__add__), tokens)

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
    @hypothesis.given(specs)
    def check(text):
        try:
            spec = parse_family(text)
        except CommspecError:
            return
        assert parse_family(spec.label()) == spec, text
        order = spec.order()
        assert type(order) is int and order > 0, text

    check()


def test_fuzzed_cayley_text_gives_a_group_or_a_typed_error(grid):
    # Texts are lines of numbers and junk tokens, small grid tables with one
    # token or line edited, dropped or repeated, or raw characters.  Each
    # parses to a group or fails with a CommspecError, never anything else;
    # the 5000-digit token exceeds int()'s default digit limit.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tables = [
        format_cayley_text(group).splitlines()
        for _, _, group in grid
        if group.order <= 8
    ]
    junk = ["+1", "1.0", "1_0", "\u0663", "0x1", "x", "names:", "9" * 5000]
    token = st.one_of(st.integers(-2, 9).map(str), st.sampled_from(junk))
    line = st.lists(token, max_size=8).map(" ".join)

    @st.composite
    def edited(draw):
        lines = list(draw(st.sampled_from(tables)))
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["keep", "token", "line", "drop", "repeat"]))
        if action == "token":
            tokens = lines[i].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(token)
            lines[i] = " ".join(tokens)
        elif action == "line":
            lines[i] = draw(line)
        elif action == "drop":
            del lines[i]
        elif action == "repeat":
            lines.insert(i, lines[i])
        return "\n".join(lines)

    texts = st.one_of(
        st.lists(line, max_size=10).map("\n".join),
        edited(),
        st.text("0123456789 +-_.:\n\tnames\u0663", max_size=60),
    )

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(texts)
    def check(text):
        try:
            group = from_cayley_text(text)
        except CommspecError:
            return
        assert isinstance(group, FiniteGroup)

    check()
