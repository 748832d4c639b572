"""Closed-form spectrum predictions and the verification harness.

When the quotient of a group by its center is elementary abelian p x p or
dihedral, the commuting graph is a disjoint union of centralizer cliques
and its spectrum has a closed form in p (or m) and the center size.  The
catalog's family table states both kinds of closed form: these two
quotient-shape forms, on its ``zpzp`` and ``dihedral`` entries, and the
per-family specializations.  This module evaluates them and checks every
applicable prediction against the brute-force pipeline.  Each group is
analysed once, on the graph of its center's cosets: the report's component
sizes and clique verdict are read from the per-block records of the
integrality decision, and the centralizer-count corollaries read the
verdicts of the report.  The commuting graph on the elements is built only
when a report's ``graph`` is read, for graph output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .catalog import _FAMILIES, FamilySpec
from .errors import AbelianGroupError, UnsupportedFamilyError
from .graphs import CommutingGraph, build_commuting_graph, coset_graph, graph_json
from .groups import (
    FiniteGroup,
    Recognition,
    center,
    centralizer_count,
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
    """Everything the brute-force pipeline found for one group.

    ``graph``, the commuting graph on the elements, is built from ``group``
    on first read: only graph output needs it.
    """

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
    group: FiniteGroup = field(repr=False)

    @cached_property
    def graph(self) -> CommutingGraph:
        return build_commuting_graph(self.group)

    def all_match(self) -> bool:
        return all(c.verdict == "match" for c in self.checks)


@dataclass(frozen=True)
class CorollaryCheck:
    label: str
    hypothesis_held: bool
    conclusion_verified: bool | None
    detail: str


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

    The spectrum is decided on the graph of the center's cosets, each
    standing for |Z| elements (``graphs.coset_graph``); the element graph
    is not built.  The component sizes and whether every component is
    complete are read from ``is_integral``'s records of the distinct
    blocks, so the graph's components are found once; a block is complete
    exactly when it has one twin class (proof in
    ``SpectralAnalysis.all_cliques``).
    """
    if group.is_abelian():
        raise AbelianGroupError("verification is defined for non-abelian groups only")
    z = center(group).size
    count = centralizer_count(group)
    recognition = recognize_small(quotient_by_center(group))
    analysis = is_integral(coset_graph(group), z)

    predictions: list[Prediction] = []
    shape = _FAMILIES.get(recognition.kind)
    if shape is not None and shape.quotient_spectrum is not None:
        # recognize_small gives a prime p or an m >= 2, and z >= 1, so the
        # closed form's parameters are in range
        source, pairs = shape.quotient_spectrum(recognition.param, z)
        params = (recognition.param, z)
        predictions.append(Prediction(source, params, spectrum_from_pairs(pairs)))
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
        vertex_count=group.order - z,
        component_sizes=analysis.component_sizes,
        all_cliques=analysis.all_cliques,
        spectrum=analysis.spectrum,
        integral=analysis.integral,
        checks=checks,
        recognition=recognition,
        analysis=analysis,
        group=group,
    )


def verify_centralizer_corollaries(
    group: FiniteGroup, report: VerificationReport
) -> tuple[CorollaryCheck, ...]:
    """Evaluate the centralizer-count consequences on one verified group.

    Each check states a hypothesis about the number of distinct centralizers
    (or the largest pairwise non-commuting set) and, when it holds, verifies
    the promised quotient shape and the integrality of the spectrum.  The
    verdicts are read from ``report``, which ``verify_group`` produced for
    ``group``: a promised shape is verified when it is the recognized one
    and the report's quotient-shape check, its first, matched.  Only the
    non-commuting search needs the group itself.
    """
    count = report.centralizer_count
    pp = prime_power(report.order)
    p = pp[0] if pp else None
    # label, hypothesis, the central quotient shapes it forces, detail
    rules = (
        (
            "four-centralizer",
            count == 4,
            [Recognition("zpzp", 2)],
            "count = 4 forces the square quotient shape and an integral spectrum",
        ),
        (
            "p-plus-two-centralizer",
            p is not None and count == p + 2,
            [Recognition("zpzp", p)],
            "a prime-power group with p + 2 centralizers has the p x p quotient",
        ),
        (
            "five-centralizer",
            count == 5,
            [Recognition("zpzp", 3), Recognition("dihedral", 3)],
            "count = 5 forces a 3 x 3 or order-6 dihedral quotient, both integral",
        ),
    )
    checks = []
    for label, held, shapes, detail in rules:
        verified = None
        if held:
            verified = (
                report.recognition in shapes
                and report.checks[0].verdict == "match"
                and report.integral
            )
        checks.append(CorollaryCheck(label, held, verified, detail))

    # the hypothesis asks only whether r is 3 or 4, so a 5-set settles it
    r = len(max_noncommuting_set(group, cap=5))
    held = r in (3, 4)
    verified = count == (4 if r == 3 else 5) and report.integral if held else None
    detail = "a largest pairwise non-commuting set of size 3 or 4 pins the count"
    checks.append(CorollaryCheck("max-noncommuting-bound", held, verified, detail))
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
        out["graph"] = graph_json(report.graph, report.group.names)
    return out
