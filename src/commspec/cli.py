"""Command-line interface: analyze, verify, suite, export-dot, catalog.

Exit codes: 0 when every verdict matches, 1 on a computational mismatch or
domain error, 2 on usage or parse errors.  All output is deterministic so
runs can be diffed in CI.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from . import catalog
from .catalog import FamilySpec
from .errors import CommspecError, ParseError
from .graphs import build_commuting_graph, export_dot, graph_json
from .groups import FiniteGroup, load_cayley_file
from .predictions import (
    VerificationReport,
    report_json_dict,
    verify_centralizer_corollaries,
    verify_group,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except CommspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commspec",
        description="Exact commuting-graph spectra of finite groups.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    analyze = sub.add_parser("analyze", help="full report for one group")
    analyze.add_argument("group", help="group spec, e.g. dicyclic:2 or file:g.cayley")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--output", default=None, help="write to file instead of stdout")
    analyze.set_defaults(handler=_run_analyze)

    verify = sub.add_parser("verify", help="pass/fail lines for one group")
    verify.add_argument("group", help="group spec")
    verify.add_argument("--output", default=None)
    verify.set_defaults(handler=_run_verify)

    suite = sub.add_parser("suite", help="run the whole verification grid")
    suite.add_argument("--only", default=None, help="substring filter on name or family")
    suite.add_argument(
        "--extra",
        action="append",
        default=[],
        help="additional group spec to verify (repeatable)",
    )
    suite.add_argument("--format", choices=("text", "json"), default="text")
    suite.add_argument("--output", default=None)
    suite.set_defaults(handler=_run_suite)

    dot = sub.add_parser("export-dot", help="write the commuting graph as DOT")
    dot.add_argument("group", help="group spec")
    dot.add_argument("path", nargs="?", default=None, help="output file (default stdout)")
    dot.set_defaults(handler=_run_export_dot)

    cat = sub.add_parser("catalog", help="list the verification grid")
    cat.add_argument("--output", default=None)
    cat.set_defaults(handler=_run_catalog)

    return parser


def _load_group(spec_text: str) -> tuple[str, FamilySpec | None, FiniteGroup]:
    if spec_text.startswith("file:"):
        path = spec_text[len("file:") :]
        if not path:
            raise ParseError("file: needs a path")
        return path, None, load_cayley_file(path)
    family = catalog.parse_family(spec_text)
    return family.label(), family, catalog.build(family)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def render_json(payload: dict) -> str:
    """Canonical JSON: exactly ``json.dumps(payload, indent=2) + "\\n"``.

    Re-serializing a parse is byte-identical.  The stdlib is not called
    because it falls back to its pure-Python encoder whenever ``indent`` is
    set; here strings go through the C escaper that ``json.dumps`` uses
    (``encode_basestring_ascii``) and ints through ``int.__repr__``.  The
    payload holds dicts with str keys, lists, tuples, strs, ints, bools and
    None, each of exactly that type; any other value raises ``TypeError``.
    """
    return _render(payload, "\n") + "\n"


def _render(value, newline: str) -> str:
    # ``newline`` is "\n" plus the indent of the line that holds ``value``
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = [
            encode_basestring_ascii(k) + ": " + _render(v, inner)
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_render(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"{kind.__name__} is not rendered as JSON")


def _spectrum_text(spectrum) -> str:
    if not spectrum.pairs:
        return "(empty)"
    parts = []
    for value, mult in spectrum.pairs:
        shown = str(value) if value >= 0 else f"({value})"
        parts.append(f"{shown}^{mult}")
    return " ".join(parts)


def _report_text(report: VerificationReport) -> str:
    analysis = report.analysis
    lines = [
        f"group: {report.name}",
        f"order: {report.group.order}",
        f"center size: {report.center_size}",
        f"centralizer count: {report.centralizer_count}",
        f"vertices: {report.vertex_count}",
        "component sizes: " + " ".join(str(s) for s in analysis.component_sizes),
        f"all components complete: {'yes' if analysis.all_cliques else 'no'}",
        f"spectrum: {_spectrum_text(analysis.spectrum)}",
        f"integral: {'yes' if analysis.integral else 'no'}",
    ]
    if not analysis.integral:
        lines.append(
            "non-integral remainder: "
            + " ".join(str(c) for c in analysis.remainder.coeffs)
        )
    if report.checks:
        lines.append("predictions:")
        for check in report.checks:
            pred = check.prediction
            params = ",".join(str(p) for p in pred.params)
            lines.append(
                f"  {pred.source}({params}): "
                f"{_spectrum_text(pred.spectrum)} -> {check.verdict}"
            )
    else:
        lines.append("predictions: none applicable")
    lines.append(f"result: {'ok' if report.all_match() else 'MISMATCH'}")
    return "\n".join(lines) + "\n"


def _run_analyze(args) -> int:
    name, family, group = _load_group(args.group)
    report = verify_group(group, name, family)
    if args.format == "json":
        payload = {"schema": 1}
        payload.update(report_json_dict(report))
        payload["graph"] = graph_json(build_commuting_graph(group), group.names)
        _emit(render_json(payload), args.output)
    else:
        _emit(_report_text(report), args.output)
    return 0 if report.all_match() else 1


_COROLLARY_STATUS = {None: "not applicable", True: "PASS", False: "FAIL"}


def _run_verify(args) -> int:
    name, family, group = _load_group(args.group)
    report = verify_group(group, name, family)
    corollaries = verify_centralizer_corollaries(report)
    lines = [f"group: {name}"]
    ok = report.all_match()
    for check in report.checks:
        pred = check.prediction
        params = ",".join(str(p) for p in pred.params)
        status = "PASS" if check.verdict == "match" else "FAIL"
        lines.append(f"prediction {pred.source}({params}): {status}")
    if not report.checks:
        lines.append("prediction: none applicable")
    for cor in corollaries:
        status = _COROLLARY_STATUS[cor.conclusion_verified]
        ok = ok and cor.conclusion_verified is not False
        lines.append(f"corollary {cor.label}: {status}")
    lines.append(f"integral: {'yes' if report.analysis.integral else 'no'}")
    lines.append(f"result: {'ok' if ok else 'FAIL'}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if ok else 1


def _suite_entries(args) -> list[tuple[str, str]]:
    entries = [(name, spec.label()) for name, spec in catalog.list_catalog()]
    if args.only:
        needle = args.only.lower()
        entries = [
            (name, label)
            for name, label in entries
            if needle in name.lower() or needle in label.lower()
        ]
    for extra in args.extra:
        entries.append((extra, extra))
    return entries


def _run_suite(args) -> int:
    # each group's entry is rendered as soon as it is verified, so no report,
    # and no group table, outlives its own iteration; only the block keys
    # and their polynomials do, in one memo shared by the run's groups and
    # keyed on z = |Z| too, so that each distinct block is proved once
    as_json = args.format == "json"
    memo: dict = {}
    entries = []
    passed = 0
    for name, spec_text in _suite_entries(args):
        try:
            _, family, group = _load_group(spec_text)
            report = verify_group(group, name, family, memo)
            corollaries = verify_centralizer_corollaries(report)
            ok = (
                report.all_match()
                and report.analysis.integral
                and all(c.conclusion_verified is not False for c in corollaries)
            )
            if as_json:
                entry = report_json_dict(report)
                entry["pass"] = ok
            else:
                entry = (
                    f"{'PASS' if ok else 'FAIL'} {name}: "
                    f"order={group.order} "
                    f"spectrum={_spectrum_text(report.analysis.spectrum)}"
                )
        except (CommspecError, OSError) as exc:
            # an extra's name is its spec, which may be of any length
            ok = False
            if as_json:
                entry = {"group": catalog._clip(name), "pass": ok, "error": str(exc)}
            else:
                entry = f"FAIL {catalog._clip(name)}: {exc}"
        entries.append(entry)
        passed += ok

    total = len(entries)
    if as_json:
        payload = {
            "schema": 1,
            "results": entries,
            "passed": passed,
            "failed": total - passed,
        }
        _emit(render_json(payload), args.output)
    else:
        entries.append(f"{passed}/{total} groups passed")
        _emit("\n".join(entries) + "\n", args.output)
    return 0 if passed == total and total else 1


def _run_export_dot(args) -> int:
    name, _, group = _load_group(args.group)
    graph = build_commuting_graph(group)
    _emit(export_dot(graph, group.names), args.path)
    return 0


def _run_catalog(args) -> int:
    lines = []
    for name, spec in catalog.list_catalog():
        lines.append(f"{name:<10} {spec.label():<24} order {spec.order()}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
