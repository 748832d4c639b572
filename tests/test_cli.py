import hashlib
import inspect
import json
import random
import subprocess
import sys

import pytest

import commspec
from commspec import cli, errors, graphs, groups, predictions, spectra
from commspec.cli import main
from commspec.groups import from_cayley_table

from oracles import format_cayley_text
from permutation_groups import permutation_table
from test_groups import Z5_SWAPPED, s3_table


@pytest.fixture()
def s3_file(tmp_path):
    group = from_cayley_table(s3_table())
    path = tmp_path / "s3.cayley"
    path.write_text(format_cayley_text(group), encoding="utf-8")
    return str(path)


@pytest.fixture()
def corrupted_file(tmp_path):
    # well-formed text, but row 1 breaks the inverse axiom
    path = tmp_path / "bad.cayley"
    path.write_text("2\n0 1\n1 1\n", encoding="utf-8")
    return str(path)


def test_analyze_q8_json(capsys):
    code = main(["analyze", "dicyclic:2", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["spectrum"] == [
        {"value": 1, "multiplicity": 3},
        {"value": -1, "multiplicity": 3},
    ]
    assert all(p["verdict"] == "match" for p in payload["predictions"])


def test_analyze_json_round_trips(capsys):
    code = main(["analyze", "dicyclic:2", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_analyze_text(capsys):
    code = main(["analyze", "u6n:2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "spectrum: 3^1 1^3 (-1)^6" in out
    assert "result: ok" in out


def test_analyze_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["analyze", "dihedral:5", "--format", "json", "--output", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["group"] == "dihedral:5"
    assert payload["spectrum"] == [
        {"value": 3, "multiplicity": 1},
        {"value": 0, "multiplicity": 5},
        {"value": -1, "multiplicity": 3},
    ]


def test_analyze_rejects_out_of_range_parameter(capsys):
    assert main(["analyze", "dihedral:1"]) == 2
    assert "dihedral" in capsys.readouterr().err


def test_analyze_unknown_family(capsys):
    assert main(["analyze", "foo:3"]) == 2


def test_failed_spectral_check_is_an_error_line(monkeypatch, capsys):
    original = spectra._multimodular_char_poly

    def off_by_one(a):
        coeffs = original(a)
        coeffs[0] += 1
        return coeffs

    monkeypatch.setattr(spectra, "_multimodular_char_poly", off_by_one)
    code = main(["analyze", "dihedral:4"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: characteristic polynomial failed")
    assert "Traceback" not in err


def test_analyze_abelian_group_is_a_domain_error(capsys):
    assert main(["analyze", "prod:z2,z2"]) == 1


def test_analyze_from_file(s3_file, capsys):
    code = main(["analyze", f"file:{s3_file}"])
    out = capsys.readouterr().out
    assert code == 0
    assert "order: 6" in out
    assert "spectrum: 1^1 0^3 (-1)^1" in out


def test_analyze_missing_file(capsys):
    assert main(["analyze", "file:/nonexistent/zzz.cayley"]) == 2


def test_analyze_corrupted_table(corrupted_file, capsys):
    assert main(["analyze", f"file:{corrupted_file}"]) == 1
    assert "inverse" in capsys.readouterr().err


def test_analyze_non_associative_table(tmp_path, capsys):
    path = tmp_path / "z5.cayley"
    rows = [" ".join(map(str, row)) for row in Z5_SWAPPED]
    path.write_text("\n".join(["5", *rows]) + "\n", encoding="utf-8")
    assert main(["analyze", f"file:{path}"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: associativity axiom violated: ")
    assert "Traceback" not in captured.out + captured.err


def test_verify_rejects_duplicate_names(tmp_path, capsys):
    # the DOT export would merge the two vertices named "a" into one node
    rows = [" ".join(map(str, row)) for row in s3_table()]
    path = tmp_path / "twice.cayley"
    path.write_text("\n".join(["6", *rows, "names: 1 a a^2 b a c"]) + "\n")
    assert main(["verify", f"file:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: elements 1 and 4 share the name 'a'\n"


def test_analyze_binary_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "junk.cayley"
    path.write_bytes(bytes([0xFF, 0xFE, 0x80, 0x81]))
    assert main(["analyze", f"file:{path}"]) == 2


def test_verify_verb(capsys):
    code = main(["verify", "dicyclic:2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "prediction zpzp-quotient(2,2): PASS" in out
    assert "corollary four-centralizer: PASS" in out
    assert "result: ok" in out


def test_suite_filter(capsys):
    code = main(["suite", "--only", "metacyclic"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(lines) == 24
    assert "24/24 groups passed" in out


# sha256 of the whole-grid outputs; the JSON one is also the `grid` digest
# in perfbench/references.json
_SUITE_TEXT_SHA256 = "7c0b1c0c277f3343a4fe7c1aa4112510718ccacbb6dda3b94403367ce2ab2324"
_SUITE_JSON_SHA256 = "48ce6e1bbac99c694c97c6f826cf3b6835d70f717237d679759251b90806c8a2"
# sha256 of the `catalog` listing, which prints each spec's order
_CATALOG_SHA256 = "e3055f36b845ae896553129f7fb4cb5f8d959283ed7c2707a87c4be1267ac74e"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_suite_full_grid(capsys):
    code = main(["suite"])
    out = capsys.readouterr().out
    assert code == 0
    assert "73/73 groups passed" in out
    assert _sha256(out) == _SUITE_TEXT_SHA256


def test_suite_full_grid_json_is_pinned(capsys):
    assert main(["suite", "--format", "json"]) == 0
    assert _sha256(capsys.readouterr().out) == _SUITE_JSON_SHA256


# sha256 of graph-bearing outputs of groups whose center interleaves with the
# non-central elements (centers 0,1,4,5 / 0,2,8,10 / 0,3), recorded before the
# graph was built from the commutation masks
_GRAPH_OUTPUT_SHA256 = {
    ("export-dot", "prod:dihedral:4,z2"): (
        "44be04692094bfc2543196bd91dfe181e18f1efd07883785be91bfeeaad04add"
    ),
    ("analyze", "prod:dihedral:4,z2"): (
        "5348ca086b4463be066f4b626804a41cf7633c928402823133741b6a42390de2"
    ),
    ("export-dot", "metacyclic:4,2"): (
        "c297ba9a4162aae89c617eff8cd52579b45a130b8e3efd89b56147e12f58935a"
    ),
    ("analyze", "metacyclic:4,2"): (
        "acd79b42c55d19c9502afb9140c50dff9405624a1de58795078f35646fb1409c"
    ),
    ("export-dot", "dicyclic:3"): (
        "106c1764913127cb4057493f87a5f7d54942bcb3acfc321de8d88421dc23b901"
    ),
    ("analyze", "dicyclic:3"): (
        "c0bca2b6ed36e75d6183afa26824a321a36e50787a5ca79baf35c1900ef473c2"
    ),
}


@pytest.mark.parametrize(
    "command, spec", sorted(_GRAPH_OUTPUT_SHA256), ids="-".join
)
def test_graph_outputs_are_pinned(command, spec, capsys):
    argv = [command, spec] + (["--format", "json"] if command == "analyze" else [])
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out) == _GRAPH_OUTPUT_SHA256[command, spec]


def test_suite_reports_axiom_failure(corrupted_file, capsys):
    code = main(["suite", "--only", "u6n", "--extra", f"file:{corrupted_file}"])
    out = capsys.readouterr().out
    assert code == 1
    assert "inverse" in out
    assert "6/7 groups passed" in out


def test_suite_reports_a_missing_extra_file_and_keeps_the_rest(tmp_path, capsys):
    missing = str(tmp_path / "missing.cayley")
    code = main(["suite", "--only", "dihedral:3", "--extra", f"file:{missing}"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0].startswith("PASS D6: ")
    assert lines[1].startswith(f"FAIL file:{missing}: ")
    assert "No such file" in lines[1]
    assert lines[2:] == ["1/2 groups passed"]
    # a single group has no report to keep: a missing file stays exit 2
    for verb in ("analyze", "verify"):
        assert main([verb, f"file:{missing}"]) == 2


def test_suite_json(capsys):
    code = main(["suite", "--only", "u6n", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["passed"] == 6
    assert payload["failed"] == 0
    assert all(entry["pass"] for entry in payload["results"])
    assert json.dumps(payload, indent=2) + "\n" == out


def test_export_dot_to_file(tmp_path, capsys):
    out_path = tmp_path / "d6.dot"
    code = main(["export-dot", "dihedral:3", str(out_path)])
    assert code == 0
    dot = out_path.read_text(encoding="utf-8")
    node_lines = [l for l in dot.splitlines() if l.endswith(";") and " -- " not in l]
    edge_lines = [l for l in dot.splitlines() if " -- " in l]
    assert len(node_lines) == 5
    assert len(edge_lines) == 1


def test_export_dot_u6n_2(tmp_path):
    out_path = tmp_path / "u12.dot"
    assert main(["export-dot", "u6n:2", str(out_path)]) == 0
    dot = out_path.read_text(encoding="utf-8")
    node_lines = [l for l in dot.splitlines() if l.endswith(";") and " -- " not in l]
    assert len(node_lines) == 10


def test_export_dot_abelian_fails(capsys):
    assert main(["export-dot", "prod:z2,z2"]) == 1


def test_catalog_listing(capsys):
    code = main(["catalog"])
    out = capsys.readouterr().out
    assert code == 0
    assert any(line.startswith("Q8 ") for line in out.splitlines())
    assert "dicyclic:2" in out
    assert len(out.splitlines()) == 73
    assert _sha256(out) == _CATALOG_SHA256


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["analyze"]) == 2


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "commspec.cli", "analyze", "dihedral:4"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "spectrum: 1^3 (-1)^3" in result.stdout


def test_verify_of_a_shuffled_s5_table_finishes_within_budget(tmp_path):
    table = permutation_table(5, False, random.Random(5))
    assert table[0][0] != 0  # the identity is not element 0
    path = tmp_path / "s5.cayley"
    text = "\n".join(" ".join(map(str, row)) for row in table)
    path.write_text(f"{len(table)}\n{text}\n", encoding="utf-8")
    # the exact non-commuting search did not finish on S5 within 200 s
    result = subprocess.run(
        [sys.executable, "-m", "commspec.cli", "verify", f"file:{path}"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert result.returncode == 0
    assert "corollary max-noncommuting-bound: not applicable" in result.stdout


_USAGE_ERROR_NAMES = {
    "ParseError",
    "ParameterOutOfRange",
    "NotPrimeError",
    "UnsupportedFamilyError",
}
_ERROR_CLASSES = sorted(
    (
        cls
        for cls in vars(errors).values()
        if inspect.isclass(cls) and issubclass(cls, errors.CommspecError)
    ),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_has_its_documented_exit_code(cls, monkeypatch, capsys):
    assert getattr(commspec, cls.__name__) is cls
    exc = cls("identity", "boom") if cls is errors.AxiomViolation else cls("boom")

    def failing_load(spec_text):
        raise exc

    monkeypatch.setattr(cli, "_load_group", failing_load)
    code = main(["analyze", "dihedral:3"])
    err = capsys.readouterr().err
    assert code == (2 if cls.__name__ in _USAGE_ERROR_NAMES else 1)
    assert err.startswith("error: ")
    assert "boom" in err
    assert "Traceback" not in err


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv, groups",
    [(["verify", "dihedral:5"], 1), (["suite", "--only", "Q1"], 2)],
    ids=["verify", "suite"],
)
def test_each_group_is_analysed_once(argv, groups, monkeypatch, capsys):
    integral_calls = _count_calls(monkeypatch, predictions, "is_integral")
    quotient_calls = _count_calls(monkeypatch, predictions, "quotient_by_center")
    assert main(argv) == 0
    capsys.readouterr()
    assert len(integral_calls) == groups
    assert len(quotient_calls) == groups


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["verify", "heis:5"], 0),
        (["suite"], 0),
        (["suite", "--format", "json"], 0),
        (["analyze", "heis:5"], 0),
        # only graph output builds the element graph, once
        (["analyze", "heis:5", "--format", "json"], 1),
        (["export-dot", "heis:3"], 1),
    ],
    ids=["verify", "suite", "suite-json", "analyze", "analyze-json", "export-dot"],
)
def test_only_graph_output_builds_the_element_graph(argv, builds, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, graphs, "build_commuting_graph")
    counted = graphs.build_commuting_graph
    for module in (predictions, cli):
        monkeypatch.setattr(module, "build_commuting_graph", counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == builds


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "dicyclic:3"],
        ["suite", "--only", "Q1"],
        ["analyze", "heis:3", "--format", "json"],
    ],
    ids=["verify", "suite", "analyze-json"],
)
def test_own_tables_never_take_the_outside_path(argv, monkeypatch, capsys):
    # catalog tables, direct products and central quotients are built from
    # their product rules; only tables from outside are rebuilt and compared
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def outside(rows, names):
        raise AssertionError("a table the program made took the outside path")

    monkeypatch.setattr(groups, "_outside_associative_group", outside)
    with pytest.raises(AssertionError):
        from_cayley_table([[0]])
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv, orders",
    [
        (["verify", "dihedral:5"], [10]),
        (["suite", "--only", "Q1"], [12, 16]),
        # recognize_small never decomposes the central quotient: a group of
        # order p^2 is abelian without asking
        (["verify", "dicyclic:2"], [8]),
        (["verify", "heis:5"], [125]),
        (["verify", "prod:dihedral:4,z2"], [16]),
    ],
    ids=["verify", "suite", "quotient", "heis:5", "prod:dihedral:4,z2"],
)
def test_each_center_is_scanned_once(argv, orders, monkeypatch, capsys):
    # the center, the centralizer count, the quotient, the commuting graph
    # and the non-commuting search all read one coset decomposition per group
    seen = []
    original = groups._center_cosets
    monkeypatch.setattr(
        groups,
        "_center_cosets",
        lambda table, gens: seen.append(len(table)) or original(table, gens),
    )
    assert main(argv) == 0
    capsys.readouterr()
    assert seen == orders
