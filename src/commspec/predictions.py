"""Closed-form spectrum predictions and the verification harness.

When the quotient of a group by its center is elementary abelian p x p or
dihedral, the commuting graph is a disjoint union of centralizer cliques
and its spectrum has a closed form in p (or m) and the center size.  This
module evaluates those closed forms, plus the per-family specializations
stated in the catalog's family table, and checks every applicable
prediction against the brute-force pipeline.  Each group is analysed
once: the centralizer-count corollaries are evaluated from its
verification report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import _FAMILIES, FamilySpec
from .errors import AbelianGroupError, NotPrimeError, ParameterOutOfRange, UnsupportedFamilyError
from .graphs import (
    CommutingGraph,
    build_commuting_graph,
    clique_decomposition,
    graph_json,
)
from .groups import (
    FiniteGroup,
    Recognition,
    center,
    centralizer_count,
    is_prime,
    max_noncommuting_set,
    prime_power,
    quotient_by_center,
    recognize_small,
)
from .spectra import (
    SpectralAnalysis,
    Spectrum,
    is_integral,
    spectra_agree,
    spectrum_from_pairs,
    spectrum_json,
)


@dataclass(frozen=True)
class Prediction:
    """A predicted complete spectrum with its source formula and parameters."""

    source: str
    params: tuple[int, ...]
    spectrum: Spectrum


@dataclass(frozen=True)
class PredictionCheck:
    prediction: Prediction
    verdict: str  # "match" | "mismatch"


@dataclass(frozen=True)
class VerificationReport:
    """Everything the brute-force pipeline found for one group."""

    name: str
    order: int
    center_size: int
    centralizer_count: int
    vertex_count: int
    component_sizes: tuple[int, ...]
    all_cliques: bool
    spectrum: Spectrum
    integral: bool
    checks: tuple[PredictionCheck, ...]
    recognition: Recognition
    analysis: SpectralAnalysis
    graph: CommutingGraph
    element_names: tuple[str, ...]

    def all_match(self) -> bool:
        return all(c.verdict == "match" for c in self.checks)


@dataclass(frozen=True)
class CorollaryCheck:
    label: str
    hypothesis_held: bool
    conclusion_verified: bool | None
    detail: str


def predict_zpzp(p: int, z: int) -> Prediction:
    """Spectrum for a group whose central quotient is Z_p x Z_p.

    The commuting graph is p+1 cliques of size (p-1)z, so the spectrum is
    ((p-1)z - 1) with multiplicity p+1 and -1 with the rest.
    """
    if not is_prime(p):
        raise NotPrimeError(f"quotient shape needs a prime, got {p}")
    if z < 1:
        raise ParameterOutOfRange(f"center size must be positive, got {z}")
    pairs = [
        ((p - 1) * z - 1, p + 1),
        (-1, (p * p - 1) * z - p - 1),
    ]
    return Prediction("zpzp-quotient", (p, z), spectrum_from_pairs(pairs))


def predict_dihedral_quotient(m: int, z: int) -> Prediction:
    """Spectrum for a group whose central quotient is dihedral of order 2m.

    One clique of size (m-1)z plus m cliques of size z; duplicate
    eigenvalues (the m = 2 overlap with the p = 2 square shape) merge.
    """
    if m < 2:
        raise ParameterOutOfRange(f"dihedral quotient needs m >= 2, got {m}")
    if z < 1:
        raise ParameterOutOfRange(f"center size must be positive, got {z}")
    pairs = [
        ((m - 1) * z - 1, 1),
        (z - 1, m),
        (-1, (2 * m - 1) * z - m - 1),
    ]
    return Prediction("dihedral-quotient", (m, z), spectrum_from_pairs(pairs))


def predict_family(spec: FamilySpec) -> Prediction:
    """The displayed closed-form spectrum for a supported catalog family."""
    family = _FAMILIES.get(spec.kind)
    if family is None or family.spectrum is None:
        raise UnsupportedFamilyError(
            f"no closed-form spectrum for family {spec.kind!r}"
        )
    if any(v < least for v, least in zip(spec.params, family.spectrum_from)):
        least = FamilySpec(spec.kind, family.spectrum_from).label()
        raise UnsupportedFamilyError(
            f"the closed form holds from {least}, got {spec.label()}"
        )
    source, pairs = family.spectrum(*spec.params)
    return Prediction(source, spec.params, spectrum_from_pairs(pairs))


def verify_group(
    group: FiniteGroup, name: str, family: FamilySpec | None = None
) -> VerificationReport:
    """Run the full pipeline on one group and check every applicable formula.

    Quotient-based predictions come from recognizing the central quotient;
    the family-based prediction is added when ``family`` names a supported
    catalog family.  A prediction matches when the brute-force spectrum is
    complete and equal to it as a multiset.
    """
    if group.is_abelian():
        raise AbelianGroupError("verification is defined for non-abelian groups only")
    z = center(group).size
    count = centralizer_count(group)
    quotient = quotient_by_center(group)
    recognition = recognize_small(quotient.group)
    graph = build_commuting_graph(group)
    decomposition = clique_decomposition(graph)
    analysis = is_integral(graph)

    predictions: list[Prediction] = []
    if recognition.kind == "zpzp":
        predictions.append(predict_zpzp(recognition.param, z))
    elif recognition.kind == "dihedral":
        predictions.append(predict_dihedral_quotient(recognition.param, z))
    if family is not None:
        try:
            predictions.append(predict_family(family))
        except UnsupportedFamilyError:
            pass

    checks = tuple(
        PredictionCheck(
            prediction=pred,
            verdict="match"
            if analysis.spectrum.complete
            and spectra_agree(pred.spectrum, analysis.spectrum)
            else "mismatch",
        )
        for pred in predictions
    )

    return VerificationReport(
        name=name,
        order=group.order,
        center_size=z,
        centralizer_count=count,
        vertex_count=graph.vertex_count,
        component_sizes=decomposition.component_sizes,
        all_cliques=decomposition.all_cliques,
        spectrum=analysis.spectrum,
        integral=analysis.integral,
        checks=checks,
        recognition=recognition,
        analysis=analysis,
        graph=graph,
        element_names=group.names,
    )


def verify_centralizer_corollaries(
    group: FiniteGroup, report: VerificationReport
) -> tuple[CorollaryCheck, ...]:
    """Evaluate the centralizer-count consequences on one verified group.

    Each check states a hypothesis about the number of distinct centralizers
    (or the largest pairwise non-commuting set) and, when it holds, verifies
    the promised quotient shape and the integrality of the spectrum.  The
    center, count, quotient shape and spectrum are read from ``report``,
    which ``verify_group`` produced for ``group``; only the non-commuting
    search needs the group itself.
    """
    z = report.center_size
    count = report.centralizer_count
    recognition = report.recognition
    analysis = report.analysis
    spectrum = report.spectrum

    def matches(prediction: Prediction) -> bool:
        return spectrum.complete and spectra_agree(prediction.spectrum, spectrum)

    checks: list[CorollaryCheck] = []

    held = count == 4
    verified = None
    if held:
        verified = (
            recognition == Recognition("zpzp", 2)
            and matches(predict_zpzp(2, z))
            and analysis.integral
        )
    checks.append(
        CorollaryCheck(
            "four-centralizer",
            held,
            verified,
            "count = 4 forces the square quotient shape and an integral spectrum",
        )
    )

    pp = prime_power(report.order)
    held = pp is not None and count == pp[0] + 2
    verified = None
    if held:
        p = pp[0]
        verified = (
            recognition == Recognition("zpzp", p)
            and matches(predict_zpzp(p, z))
            and analysis.integral
        )
    checks.append(
        CorollaryCheck(
            "p-plus-two-centralizer",
            held,
            verified,
            "a prime-power group with p + 2 centralizers has the p x p quotient",
        )
    )

    held = count == 5
    verified = None
    if held:
        if recognition == Recognition("zpzp", 3):
            verified = matches(predict_zpzp(3, z)) and analysis.integral
        elif recognition == Recognition("dihedral", 3):
            verified = matches(predict_dihedral_quotient(3, z)) and analysis.integral
        else:
            verified = False
    checks.append(
        CorollaryCheck(
            "five-centralizer",
            held,
            verified,
            "count = 5 forces a 3 x 3 or order-6 dihedral quotient, both integral",
        )
    )

    # the hypothesis asks only whether r is 3 or 4, so a 5-set settles it
    r = len(max_noncommuting_set(group, cap=5))
    held = r in (3, 4)
    verified = None
    if held:
        verified = count == (4 if r == 3 else 5) and analysis.integral
    checks.append(
        CorollaryCheck(
            "max-noncommuting-bound",
            held,
            verified,
            "a largest pairwise non-commuting set of size 3 or 4 pins the count",
        )
    )

    return tuple(checks)


def report_json_dict(report: VerificationReport, include_graph: bool = True) -> dict:
    """JSON-ready dict for one report, in the documented key order."""
    out: dict = {
        "group": report.name,
        "order": report.order,
        "center_size": report.center_size,
        "centralizer_count": report.centralizer_count,
        "vertices": report.vertex_count,
        "component_sizes": list(report.component_sizes),
        "spectrum": spectrum_json(report.spectrum),
        "integral": report.integral,
        "predictions": [
            {
                "source": check.prediction.source,
                "params": list(check.prediction.params),
                "spectrum": spectrum_json(check.prediction.spectrum),
                "verdict": check.verdict,
            }
            for check in report.checks
        ],
    }
    if include_graph:
        out["graph"] = graph_json(report.graph, report.element_names)
    return out
