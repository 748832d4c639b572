"""Closed-form spectrum predictions and the verification harness.

When the quotient of a group by its center is elementary abelian p x p or
dihedral, the commuting graph is a disjoint union of centralizer cliques
and its spectrum has a closed form in p (or m) and the center size.  The
catalog's family table states both kinds of closed form: these two
quotient-shape forms, on its ``zpzp`` and ``dihedral`` entries, and the
per-family specializations.  This module evaluates them and checks every
applicable prediction against the brute-force pipeline: a predicted
spectrum is all integers, so it matches when the analysis is integral, its
remainder 1, and the two spectra are equal.  Each group is
analysed once, on the graph of its center's cosets: the report's component
sizes and clique verdict are read from the per-block records of the
integrality decision, and the centralizer-count corollaries read the
verdicts of the report, and on a union of cliques the size of the largest
non-commuting set too.  A report holds no commuting graph on the
elements: the CLI builds that graph where it prints it.
"""

from __future__ import annotations

from typing import NamedTuple

from .catalog import _FAMILIES, FamilySpec
from .errors import AbelianGroupError, UnsupportedFamilyError
from .graphs import coset_graph
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
    spectrum_from_pairs,
    spectrum_json,
)


class Prediction(NamedTuple):
    """A predicted spectrum, every eigenvalue an integer, with its source
    formula and parameters."""

    source: str
    params: tuple[int, ...]
    spectrum: Spectrum


class PredictionCheck(NamedTuple):
    prediction: Prediction
    verdict: str  # "match" | "mismatch"


class VerificationReport(NamedTuple):
    """Everything the brute-force pipeline found for one group.

    The spectral verdict, the spectrum and the component structure live in
    ``analysis`` alone, decided on the graph of the center's cosets.  The
    commuting graph on the elements is not one of the fields: graph output
    builds it from ``group``.  Reports compare and hash field by field, the
    group's generators and the analysis's blocks included.
    """

    name: str
    center_size: int
    centralizer_count: int
    checks: tuple[PredictionCheck, ...]
    recognition: Recognition
    analysis: SpectralAnalysis
    group: FiniteGroup

    @property
    def vertex_count(self) -> int:
        """The non-central elements: the commuting graph's vertices."""
        return self.group.order - self.center_size

    def all_match(self) -> bool:
        return all(c.verdict == "match" for c in self.checks)


class CorollaryCheck(NamedTuple):
    """``conclusion_verified`` is None when the hypothesis does not hold."""

    label: str
    conclusion_verified: bool | None


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
    group: FiniteGroup,
    name: str,
    family: FamilySpec | None = None,
    memo: dict | None = None,
) -> VerificationReport:
    """Run the full pipeline on one group and check every applicable formula.

    Quotient-based predictions come from recognizing the central quotient;
    the family-based prediction is added when ``family`` names a supported
    catalog family.  A prediction matches when the brute-force spectrum is
    integral (``SpectralAnalysis.integral``: its remainder is 1) and equal
    to it as a multiset.

    The spectrum is decided on the graph of the center's cosets, each
    standing for |Z| elements (``graphs.coset_graph``); the element graph
    is not built.  The component sizes and whether every component is
    complete are read from ``is_integral``'s records of the distinct
    blocks, so the graph's components are found once; a block is complete
    exactly when it has one twin class (proof in
    ``SpectralAnalysis.all_cliques``).  ``memo`` goes to ``is_integral``:
    callers that verify several groups pass one dict to all of them, so
    that each distinct block, keyed on its submatrix and on z = |Z|, is
    proved once across the groups; without it, each call starts afresh.
    """
    if group.is_abelian():
        raise AbelianGroupError("verification is defined for non-abelian groups only")
    z = len(center(group))
    count = centralizer_count(group)
    recognition = recognize_small(quotient_by_center(group))
    analysis = is_integral(coset_graph(group), z, memo)

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
            pred,
            "match"
            if analysis.integral and pred.spectrum == analysis.spectrum
            else "mismatch",
        )
        for pred in predictions
    )

    return VerificationReport(
        name=name,
        center_size=z,
        centralizer_count=count,
        checks=checks,
        recognition=recognition,
        analysis=analysis,
        group=group,
    )


def verify_centralizer_corollaries(
    report: VerificationReport,
) -> tuple[CorollaryCheck, ...]:
    """Evaluate the centralizer-count consequences on one verified group.

    Each check states a hypothesis about the number of distinct centralizers
    (or the largest pairwise non-commuting set) and, when it holds, verifies
    the promised quotient shape and the integrality of the spectrum.  The
    verdicts are read from ``report``: a promised shape is verified when it
    is the recognized one and the report's quotient-shape check, its first,
    matched.

    The largest pairwise non-commuting set has one member per connected
    block when every block is complete (``analysis.all_cliques``): two
    members of one block commute, and members of different blocks do not,
    so r is the number of blocks.  Only on another graph does the capped
    search (``max_noncommuting_set``) run, and it reads only which cosets
    of the center commute (``CenterCosets.commuting``), never the group's
    table.
    """
    count = report.centralizer_count
    analysis = report.analysis
    integral = analysis.integral
    pp = prime_power(report.group.order)
    p = pp[0] if pp else None
    # label, hypothesis, the central quotient shapes it forces
    rules = (
        ("four-centralizer", count == 4, [Recognition("zpzp", 2)]),
        (
            "p-plus-two-centralizer",
            p is not None and count == p + 2,
            [Recognition("zpzp", p)],
        ),
        (
            "five-centralizer",
            count == 5,
            [Recognition("zpzp", 3), Recognition("dihedral", 3)],
        ),
    )
    checks = [
        CorollaryCheck(
            label,
            report.recognition in shapes
            and report.checks[0].verdict == "match"
            and integral
            if held
            else None,
        )
        for label, held, shapes in rules
    ]

    # a largest pairwise non-commuting set of size 3 or 4 pins the count;
    # the hypothesis asks only whether r is 3 or 4, so the search may stop
    # at a 5-set
    if analysis.all_cliques:
        r = sum(block.count for block in analysis.blocks)
    else:
        r = len(max_noncommuting_set(report.group, cap=5))
    verified = count == (4 if r == 3 else 5) and integral if r in (3, 4) else None
    checks.append(CorollaryCheck("max-noncommuting-bound", verified))
    return tuple(checks)


def report_json_dict(report: VerificationReport) -> dict:
    """JSON-ready dict for one report, in the documented key order."""
    analysis = report.analysis
    return {
        "group": report.name,
        "order": report.group.order,
        "center_size": report.center_size,
        "centralizer_count": report.centralizer_count,
        "vertices": report.vertex_count,
        "component_sizes": list(analysis.component_sizes),
        "spectrum": spectrum_json(analysis.spectrum),
        "integral": analysis.integral,
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
