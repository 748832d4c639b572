"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison is exact (multiset equality of integer spectra, integer
determinant identities); there are no tolerances anywhere.
"""

import random

from commspec.catalog import FamilySpec, build
from commspec.groups import centralizer_count, max_noncommuting_set
from commspec.predictions import (
    predict_family,
    verify_centralizer_corollaries,
    verify_group,
)
from commspec.spectra import (
    exact_determinant,
    is_integral,
    spectra_agree,
    spectrum_from_pairs,
)

from oracles import clique_union_spectrum, coefficient, raw_graph
from test_predictions import quotient_spectrum


def _report(number: int, description: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {number} ({description}): {status}")
    assert not failures, f"criterion {number}: {failures}"


def _reports_by_name(grid_reports):
    return {name: report for name, _, _, report in grid_reports}


def _square_quotient_cases():
    cases = []
    for p in (2, 3, 5):
        cases.append((f"Heis({p})", FamilySpec.heis(p), p))
        cases.append((f"ExpP2({p})", FamilySpec.expp2(p), p))
    for k in (1, 2, 3, 4):
        cases.append(
            (
                f"D8xZ{k}",
                FamilySpec.product(FamilySpec.dihedral(4), FamilySpec.cyclic(k)),
                2,
            )
        )
        cases.append(
            (
                f"Q8xZ{k}",
                FamilySpec.product(FamilySpec.dicyclic(2), FamilySpec.cyclic(k)),
                2,
            )
        )
    return cases


def test_criterion_1_square_quotient_grid(grid_reports):
    """Brute-force spectra match the p x p central-quotient closed form."""
    reports = _reports_by_name(grid_reports)
    failures = []
    for name, spec, p in _square_quotient_cases():
        report = reports[name]
        predicted = quotient_spectrum("zpzp", p, report.center_size)
        if not (
            report.spectrum.complete and spectra_agree(predicted, report.spectrum)
        ):
            failures.append((name, report.spectrum.pairs, predicted.pairs))
        if spec.kind in ("heis", "expp2"):
            literal = spectrum_from_pairs(
                [(p * p - p - 1, p + 1), (-1, p**3 - 2 * p - 1)]
            )
            if not spectra_agree(literal, report.spectrum):
                failures.append((name, "order p^3 closed form", literal.pairs))
    _report(1, "square central-quotient spectra", failures)


def test_criterion_2_dihedral_quotient_grid(grid_reports):
    """Every family group matches its displayed closed-form spectrum."""
    failures = []
    for name, spec, group, report in grid_reports:
        if spec.kind not in ("dicyclic", "u6n", "metacyclic", "dihedral"):
            continue
        predicted = predict_family(spec).spectrum
        if not (
            report.spectrum.complete and spectra_agree(predicted, report.spectrum)
        ):
            failures.append((name, report.spectrum.pairs, predicted.pairs))
    _report(2, "family closed-form spectra", failures)


def test_criterion_3_overlap_consistency(grid_reports):
    """The two quotient formulas agree at m = 2, and dual routes coincide."""
    failures = []
    for z in range(1, 11):
        a = quotient_spectrum("dihedral", 2, z)
        b = quotient_spectrum("zpzp", 2, z)
        if a.pairs != b.pairs:
            failures.append(("m=2 overlap", z, a.pairs, b.pairs))
    for name, _, _, report in grid_reports:
        predictions = [c.prediction for c in report.checks]
        if len(predictions) == 2 and not spectra_agree(
            predictions[0].spectrum, predictions[1].spectrum
        ):
            failures.append((name, "quotient vs family prediction"))
    _report(3, "overlap consistency", failures)


def test_criterion_4_integrality_verdicts(grid_reports):
    """Grid groups are integral; injected path and cycle graphs are not."""
    failures = []
    for name, _, _, report in grid_reports:
        if not report.integral:
            failures.append((name, "expected integral"))
    p3 = is_integral(raw_graph(3, [(0, 1), (1, 2)]))
    if p3.integral or p3.remainder.degree < 1:
        failures.append(("P3", p3.spectrum.pairs, p3.remainder.coeffs))
    c5 = is_integral(raw_graph(5, [(i, (i + 1) % 5) for i in range(5)]))
    if c5.integral or c5.remainder.degree < 1:
        failures.append(("C5", c5.spectrum.pairs, c5.remainder.coeffs))
    _report(4, "integrality verdicts", failures)


def test_criterion_5_centralizer_corollaries():
    """Centralizer counts, corollary conclusions, and witness-set sizes."""
    failures = []
    cases = [
        ("D8", build(FamilySpec.dihedral(4)), 4, 3, "four-centralizer"),
        ("Q8", build(FamilySpec.dicyclic(2)), 4, 3, "four-centralizer"),
        ("D12", build(FamilySpec.dihedral(6)), 5, 4, "five-centralizer"),
        ("Heis(3)", build(FamilySpec.heis(3)), 5, 4, "five-centralizer"),
    ]
    for name, group, count, witness_size, label in cases:
        if centralizer_count(group) != count:
            failures.append((name, "count", centralizer_count(group)))
        if len(max_noncommuting_set(group)) != witness_size:
            failures.append((name, "witness", len(max_noncommuting_set(group))))
        checks = {
            c.label: c
            for c in verify_centralizer_corollaries(group, verify_group(group, name))
        }
        if not (checks[label].hypothesis_held and checks[label].conclusion_verified):
            failures.append((name, label))
        bound = checks["max-noncommuting-bound"]
        if not (bound.hypothesis_held and bound.conclusion_verified):
            failures.append((name, "max-noncommuting-bound"))
    heis3 = build(FamilySpec.heis(3))
    heis3_checks = {
        c.label: c
        for c in verify_centralizer_corollaries(heis3, verify_group(heis3, "Heis(3)"))
    }
    extra = heis3_checks["p-plus-two-centralizer"]
    if not (extra.hypothesis_held and extra.conclusion_verified):
        failures.append(("Heis(3)", "p-plus-two-centralizer"))
    _report(5, "centralizer corollaries", failures)


def test_criterion_6_spectral_invariants(grid_reports):
    """Moment sums, characteristic coefficients, clique-union agreement."""
    failures = []
    for name, _, group, report in grid_reports:
        spectrum = report.spectrum
        edges = report.graph.edge_count
        n = report.vertex_count
        if sum(k * v for v, k in spectrum.pairs) != 0:
            failures.append((name, "first moment"))
        if sum(k * v * v for v, k in spectrum.pairs) != 2 * edges:
            failures.append((name, "second moment"))
        if sum(k for _, k in spectrum.pairs) != group.order - report.center_size:
            failures.append((name, "multiplicity sum"))
        poly = report.analysis.char_poly
        if coefficient(poly, n - 1) != 0:
            failures.append((name, "x^(n-1) coefficient"))
        if coefficient(poly, n - 2) != -edges:
            failures.append((name, "x^(n-2) coefficient"))
        if report.all_cliques:
            closed = clique_union_spectrum(report.component_sizes)
            if not spectra_agree(closed, spectrum):
                failures.append((name, "clique union closed form"))
        else:
            failures.append((name, "expected clique components"))
    _report(6, "spectral invariant suite", failures)


def test_criterion_7_determinant_oracle(grid_reports):
    """Characteristic polynomials agree with an independent Bareiss oracle."""
    rng = random.Random(20250808)
    sample = rng.sample(grid_reports, 20)
    failures = []
    for name, _, _, report in sample:
        matrix = report.graph.to_matrix()
        n = len(matrix)
        for t in (-2, -1, 0, 1, 2):
            shifted = [
                [(t if i == j else 0) - matrix[i][j] for j in range(n)]
                for i in range(n)
            ]
            if report.analysis.char_poly.evaluate(t) != exact_determinant(shifted):
                failures.append((name, t))
    _report(7, "determinant oracle equivalence", failures)
