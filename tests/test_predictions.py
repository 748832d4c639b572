import json
import random

import pytest

from commspec import cli, predictions
from commspec.catalog import _FAMILIES, FamilySpec, build, parse_family
from commspec.cli import main
from commspec.errors import AbelianGroupError, UnsupportedFamilyError
from commspec.graphs import build_commuting_graph, graph_json
from commspec.groups import Recognition, from_cayley_table, max_noncommuting_set
from commspec.predictions import (
    VerificationReport,
    predict_family,
    report_json_dict,
    verify_centralizer_corollaries,
    verify_group,
)
from commspec.spectra import CharPoly, Spectrum, spectrum_from_pairs

from oracles import expanded_char_poly, poly_product, table_free
from permutation_groups import permutation_group, permutation_table
from test_groups import _shuffled_groups
from test_spectra import _block_multiset


def quotient_spectrum(kind, param, z):
    """The catalog's closed form for a central quotient of shape ``kind``
    (``zpzp`` or ``dihedral``) at ``param`` and center size z, the entry
    ``verify_group`` reads."""
    _, pairs = _FAMILIES[kind].quotient_spectrum(param, z)
    return spectrum_from_pairs(pairs)


def test_predict_zpzp_values():
    assert quotient_spectrum("zpzp", 2, 2).pairs == ((1, 3), (-1, 3))
    assert quotient_spectrum("zpzp", 3, 3).pairs == ((5, 4), (-1, 20))


def test_predict_zpzp_degenerate_center():
    # p = 2, z = 1: the -1 exponent evaluates to zero and is dropped
    assert quotient_spectrum("zpzp", 2, 1).pairs == ((0, 3),)


@pytest.mark.parametrize("z", range(1, 11))
def test_dihedral_quotient_m2_equals_square_shape(z):
    assert quotient_spectrum("dihedral", 2, z) == quotient_spectrum("zpzp", 2, z)


def test_predict_dihedral_quotient_values():
    assert quotient_spectrum("dihedral", 3, 1).pairs == ((1, 1), (0, 3), (-1, 1))
    assert quotient_spectrum("dihedral", 6, 2).pairs == ((9, 1), (1, 6), (-1, 15))


def test_predict_family_metacyclic_odd():
    pred = predict_family(FamilySpec.metacyclic(3, 2))
    assert pred.source == "metacyclic-odd"
    assert pred.spectrum.pairs == ((3, 1), (1, 3), (-1, 6))


def test_predict_family_metacyclic_even():
    pred = predict_family(FamilySpec.metacyclic(4, 2))
    assert pred.source == "metacyclic-even"
    assert pred.spectrum.pairs == ((3, 3), (-1, 9))


def test_predict_family_dicyclic_merges_at_m2():
    pred = predict_family(FamilySpec.dicyclic(2))
    assert pred.spectrum.pairs == ((1, 3), (-1, 3))


def test_predict_family_u6n():
    assert predict_family(FamilySpec.u6n(1)).spectrum.pairs == ((1, 1), (0, 3), (-1, 1))
    assert predict_family(FamilySpec.u6n(2)).spectrum.pairs == ((3, 1), (1, 3), (-1, 6))


def test_predict_family_dihedral_parity():
    assert predict_family(FamilySpec.dihedral(5)).spectrum.pairs == (
        (3, 1),
        (0, 5),
        (-1, 3),
    )
    assert predict_family(FamilySpec.dihedral(6)).spectrum.pairs == (
        (3, 1),
        (1, 3),
        (-1, 6),
    )


def test_predict_family_unsupported():
    with pytest.raises(UnsupportedFamilyError):
        predict_family(FamilySpec.heis(3))
    with pytest.raises(UnsupportedFamilyError):
        predict_family(FamilySpec.dihedral(2))


def test_verify_group_heis3(heis3):
    report = verify_group(heis3, "Heis(3)", FamilySpec.heis(3))
    assert report.analysis.integral
    assert report.centralizer_count == 5
    sources = [c.prediction.source for c in report.checks]
    assert sources == ["zpzp-quotient"]
    assert report.all_match()
    assert report.analysis.spectrum.pairs == ((5, 4), (-1, 20))


def test_verify_group_q12_matches_two_routes():
    q12 = build(FamilySpec.dicyclic(3))
    report = verify_group(q12, "Q12", FamilySpec.dicyclic(3))
    assert report.analysis.spectrum.pairs == ((3, 1), (1, 3), (-1, 6))
    sources = {c.prediction.source for c in report.checks}
    assert sources == {"dihedral-quotient", "dicyclic"}
    assert report.all_match()
    params = {c.prediction.source: c.prediction.params for c in report.checks}
    assert params["dihedral-quotient"] == (3, 2)


def test_verify_group_d8_z3_product():
    spec = FamilySpec.product(FamilySpec.dihedral(4), FamilySpec.cyclic(3))
    report = verify_group(build(spec), "D8xZ3", spec)
    assert report.center_size == 6
    assert report.analysis.spectrum.pairs == ((5, 3), (-1, 15))
    assert report.all_match()


def test_verify_group_rejects_abelian():
    with pytest.raises(AbelianGroupError):
        verify_group(build(FamilySpec.cyclic(4)), "Z4")


def test_verify_group_outside_the_predicted_shapes():
    # alternating group on 4 letters: the central quotient is neither the
    # square shape nor dihedral, so no prediction applies, yet the
    # commuting graph (one triangle, four disjoint edges) is integral
    a4 = permutation_group(4, True)
    report = verify_group(a4, "A4")
    assert report.recognition.kind == "other"
    assert report.checks == ()
    assert report.all_match()
    assert report.analysis.component_sizes == (3, 2, 2, 2, 2)
    assert report.analysis.integral
    assert report.analysis.spectrum.pairs == ((2, 1), (1, 4), (-1, 6))


def test_corollaries_d8(d8):
    report = verify_group(d8, "D8")
    checks = {c.label: c for c in verify_centralizer_corollaries(report)}
    assert checks["four-centralizer"].conclusion_verified is True
    # p = 2, count = 4
    assert checks["p-plus-two-centralizer"].conclusion_verified is True
    assert checks["five-centralizer"].conclusion_verified is None
    assert checks["max-noncommuting-bound"].conclusion_verified is True  # r = 3


def test_corollaries_d12(d12):
    report = verify_group(d12, "D12")
    checks = {c.label: c for c in verify_centralizer_corollaries(report)}
    assert checks["four-centralizer"].conclusion_verified is None
    assert checks["five-centralizer"].conclusion_verified is True
    assert checks["max-noncommuting-bound"].conclusion_verified is True  # r = 4


def test_corollaries_heis3(heis3):
    report = verify_group(heis3, "Heis(3)")
    checks = {c.label: c for c in verify_centralizer_corollaries(report)}
    # p = 3, count = 5
    assert checks["p-plus-two-centralizer"].conclusion_verified is True
    assert checks["five-centralizer"].conclusion_verified is True


def _searched_bound(report):
    """The max-noncommuting-bound verdict with r from the capped search."""
    r = len(max_noncommuting_set(report.group, cap=5))
    count, integral = report.centralizer_count, report.analysis.integral
    return count == (4 if r == 3 else 5) and integral if r in (3, 4) else None


def test_complete_blocks_give_the_largest_noncommuting_set(grid):
    named = [(name, group) for name, _, group in grid]
    clique_unions = {name for name, _ in named}
    for label in (
        "heis:7 metacyclic:12,6 dihedral:40 dihedral:300 prod:heis:3,z2 "
        "expp2:5 prod:dicyclic:2,dihedral:2"
    ).split():
        named.append((label, build(parse_family(label))))
        clique_unions.add(label)
    # A5's centralizers of non-identity elements are abelian, so its
    # commuting graph is a union of 21 cliques too, with no closed form
    named += _shuffled_groups()
    clique_unions.update(("A5", "heis:3", "prod:dicyclic:3,z4", "expp2:3"))
    s5 = permutation_table(5, False, random.Random(1))
    named.append(("S5", from_cayley_table(s5)))
    for label in ("prod:dihedral:3,dihedral:3", "prod:dicyclic:3,dihedral:3"):
        named.append((label, build(parse_family(label))))
    found = set()
    for name, group in named:
        report = verify_group(group, name)
        analysis = report.analysis
        (bound,) = (
            c for c in verify_centralizer_corollaries(report)
            if c.label == "max-noncommuting-bound"
        )
        assert bound.conclusion_verified is _searched_bound(report), name
        if analysis.all_cliques:
            found.add(name)
            r = sum(block.count for block in analysis.blocks)
            assert r == len(max_noncommuting_set(group)), name
    assert found == clique_unions


def test_corollaries_reject_abelian():
    # the report the corollaries read cannot be built for an abelian group
    c6 = build(FamilySpec.cyclic(6))
    with pytest.raises(AbelianGroupError):
        verify_centralizer_corollaries(verify_group(c6, "C6"))


def test_report_json_shape(q8, capsys):
    report = verify_group(q8, "Q8", FamilySpec.dicyclic(2))
    payload = report_json_dict(report)
    assert list(payload) == [
        "group",
        "order",
        "center_size",
        "centralizer_count",
        "vertices",
        "component_sizes",
        "spectrum",
        "integral",
        "predictions",
    ]
    assert payload["group"] == "Q8"
    assert payload["order"] == 8
    assert payload["center_size"] == 2
    assert payload["centralizer_count"] == 4
    assert payload["vertices"] == 6
    assert payload["component_sizes"] == [2, 2, 2]
    assert payload["spectrum"] == [
        {"value": 1, "multiplicity": 3},
        {"value": -1, "multiplicity": 3},
    ]
    assert payload["integral"] is True
    assert all(p["verdict"] == "match" for p in payload["predictions"])
    # the element graph is appended by analyze --format json alone, last
    assert "graph" not in payload
    assert main(["analyze", "dicyclic:2", "--format", "json"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == ["schema", *payload, "graph"]


def test_prediction_spectrum_accounts_for_all_vertices(q8):
    report = verify_group(q8, "Q8", FamilySpec.dicyclic(2))
    for check in report.checks:
        pairs = check.prediction.spectrum.pairs
        assert sum(k for _, k in pairs) == report.vertex_count


def test_family_and_quotient_routes_agree_when_both_apply(grid_reports):
    for name, spec, group, report in grid_reports:
        sources = {c.prediction.source: c.prediction for c in report.checks}
        if len(sources) < 2:
            continue
        specs = list(sources.values())
        assert specs[0].spectrum == specs[1].spectrum, name


def _incomplete(analysis):
    # the same analysis with its least eigenvalue moved into the remainder
    *kept, (value, mult) = analysis.spectrum.pairs
    remainder = analysis.remainder
    for _ in range(mult):
        remainder = poly_product(remainder, CharPoly((-value, 1)))
    return analysis._replace(
        spectrum=spectrum_from_pairs(kept),
        remainder=remainder,
    )


def _lowered(analysis):
    # an integral spectrum with one largest eigenvalue lowered by 1
    (value, mult), *rest = analysis.spectrum.pairs
    pairs = [(value, mult - 1), (value - 1, 1), *rest]
    return analysis._replace(spectrum=spectrum_from_pairs(pairs))


@pytest.mark.parametrize(
    "spec, shape, spectrum, expected",
    [
        # D8: count 4, p = 2, r = 3; D12: count 5, not a prime power, r = 4
        (FamilySpec.dihedral(4), None, _incomplete, (False, False, None, False)),
        (FamilySpec.dihedral(6), None, _incomplete, (None, None, False, False)),
        (FamilySpec.dihedral(4), None, _lowered, (False, False, None, True)),
        (FamilySpec.dihedral(6), None, _lowered, (None, None, False, True)),
        (
            FamilySpec.dihedral(4),
            Recognition("dihedral", 4),
            None,
            (False, False, None, True),
        ),
        (
            FamilySpec.dihedral(6),
            Recognition("zpzp", 5),
            None,
            (None, None, False, True),
        ),
    ],
    ids=[
        "D8-incomplete",
        "D12-incomplete",
        "D8-lowered",
        "D12-lowered",
        "D8-as-dihedral-quotient",
        "D12-as-square-quotient",
    ],
)
def test_corollaries_fail_when_the_shape_or_the_spectrum_is_wrong(
    monkeypatch, spec, shape, spectrum, expected
):
    # the report stays self-consistent: its quotient prediction is made from
    # the patched shape and compared with the patched spectrum
    if shape is not None:
        monkeypatch.setattr(predictions, "recognize_small", lambda quotient: shape)
    if spectrum is not None:
        real = predictions.is_integral
        monkeypatch.setattr(
            predictions,
            "is_integral",
            lambda g, z, memo, symmetries: spectrum(real(g, z, memo, symmetries)),
        )
    group = build(spec)
    report = verify_group(group, spec.label(), spec)
    assert report.analysis.integral is (spectrum is not _incomplete)
    assert report.checks[0].verdict == "mismatch"
    got = tuple(c.conclusion_verified for c in verify_centralizer_corollaries(report))
    assert got == expected


def test_verify_compares_each_prediction_once(monkeypatch, capsys):
    calls = []
    real = Spectrum.__eq__

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(Spectrum, "__eq__", counted)
    assert main(["verify", "dihedral:4"]) == 0
    assert "result: ok" in capsys.readouterr().out
    # the square-quotient prediction and the dihedral-even family form
    assert len(calls) == 2


def _element_graph_report(group, name, family, monkeypatch):
    """verify_group deciding the spectrum on the whole element graph, with
    z = 1: the path the coset graph replaced, kept here as the oracle."""
    real = predictions.is_integral
    with monkeypatch.context() as patched:
        patched.setattr(predictions, "coset_graph", build_commuting_graph)
        patched.setattr(
            predictions,
            "is_integral",
            lambda graph, z, memo, symmetries: real(graph),
        )
        return verify_group(group, name, family)


def test_every_report_field_matches_the_element_graph_path(grid, monkeypatch):
    named = list(grid)
    for label, degree, even, seed in (
        ("S4", 4, False, 11),
        ("A5", 5, True, 12),
        ("S5", 5, False, 13),
    ):
        table = permutation_table(degree, even, random.Random(seed))
        named.append((label, None, from_cayley_table(table)))
    for spec in (FamilySpec.heis(13), FamilySpec.dihedral(300)):
        named.append((spec.label(), spec, build(spec)))
    for name, spec, group in named:
        report = verify_group(group, name, spec)
        assert not hasattr(report, "graph"), name
        oracle = _element_graph_report(group, name, spec, monkeypatch)
        for field in VerificationReport._fields:
            assert getattr(report, field) == getattr(oracle, field), (name, field)
        assert expanded_char_poly(report.analysis) == expanded_char_poly(
            oracle.analysis
        ), name
        assert _block_multiset(report.analysis) == _block_multiset(
            oracle.analysis
        ), name
        graph = build_commuting_graph(group)
        assert report.vertex_count == graph.vertex_count, name
        assert report_json_dict(report) == report_json_dict(oracle), name
        assert verify_centralizer_corollaries(
            report
        ) == verify_centralizer_corollaries(oracle), name


def test_nothing_after_the_decomposition_reads_the_table(grid):
    # verify, analyze (text and JSON), export-dot's graph and the
    # corollaries, on a copy whose table raises when read
    named = list(grid)
    heis7 = FamilySpec.heis(7)
    named.append((heis7.label(), heis7, build(heis7)))
    for name, degree, even in (("S4", 4, False), ("A5", 5, True), ("S5", 5, False)):
        table = permutation_table(degree, even, random.Random(1))
        named.append((name, None, from_cayley_table(table)))
    for name, spec, group in named:
        copy = table_free(group)
        report = verify_group(group, name, spec)
        blind = verify_group(copy, name, spec)
        assert report_json_dict(blind) == report_json_dict(report), name
        assert cli._report_text(blind) == cli._report_text(report), name
        assert verify_centralizer_corollaries(
            blind
        ) == verify_centralizer_corollaries(report), name
        assert graph_json(build_commuting_graph(copy), copy.names) == graph_json(
            build_commuting_graph(group), group.names
        ), name
