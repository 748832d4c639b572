import hashlib
import inspect
import json
import random
import sys

import pytest

import commspec
from commspec import catalog, cli, errors, graphs, groups, predictions, spectra
from commspec.catalog import build, list_catalog, parse_family
from commspec.cli import main
from commspec.graphs import connected_components, coset_graph
from commspec.groups import center, from_cayley_table
from commspec.predictions import report_json_dict, verify_group

from oracles import format_cayley_text
from permutation_groups import permutation_table
from test_groups import Z5_SWAPPED, s3_table


# one digit past the interpreter's integer-string limit (0, or before Python
# 3.10.7 absent: no limit); such a spec would name a group far too large to
# build where there is no limit
_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_OVERLONG_Z = "z" + "9" * (_INT_LIMIT + 1)
needs_int_limit = pytest.mark.skipif(
    not _INT_LIMIT, reason="the interpreter converts integers of any length"
)


def _overlong_message(piece):
    """The parse error for ``piece``, a spec whose parameter has one digit
    past the limit: it names the limit and shows the first 60 characters."""
    return (
        f"parameter in {piece[:60] + '...'!r} has {_INT_LIMIT + 1} digits; int() "
        f"takes at most {_INT_LIMIT} (sys.get_int_max_str_digits())"
    )


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
    original = spectra._modular_char_poly

    def off_by_one(a, bound):
        coeffs = original(a, bound)
        coeffs[0] += 1
        return coeffs

    monkeypatch.setattr(spectra, "_modular_char_poly", off_by_one)
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


# sha256 of each command's output over the 73 grid groups, heis:7 and
# seed-1 shuffled S4, A5 and S5 tables, joined in that order; the tables are
# read as file:s4.cayley and so on from the working directory, and a text
# report's `group:` line, which names the file, is left out
_TEXT_OUTPUT_SHA256 = {
    "verify": (
        "b2179ed4ef3920edab7114bb7da7c48cd8f6953ded1472c499987f7791b177d1"
    ),
    "analyze": (
        "2ce68bcc18857082d989dc565bd647d9e98275b92803747bf998378c13dce1ba"
    ),
    "analyze --format json": (
        "65e34f8ec04c7a1648ca4c5eaf9c12ad083d4f8ddf6cbbb4ffbe180c1e7ad162"
    ),
    "export-dot": (
        "48d0b4078088936af7dbc4f29640dacf8726aad09980c9baedd0d50123e4a8fc"
    ),
}


def _pinned_specs() -> list[str]:
    specs = [spec.label() for _, spec in list_catalog()] + ["heis:7"]
    for name, degree, even in (("s4", 4, False), ("a5", 5, True), ("s5", 5, False)):
        table = permutation_table(degree, even, random.Random(1))
        text = "\n".join(" ".join(map(str, row)) for row in table)
        with open(f"{name}.cayley", "w", encoding="utf-8") as out:
            out.write(f"{len(table)}\n{text}\n")
        specs.append(f"file:{name}.cayley")
    return specs


@pytest.mark.parametrize("command", sorted(_TEXT_OUTPUT_SHA256))
def test_text_outputs_are_pinned(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    name, *options = command.split()
    outputs = []
    for spec in _pinned_specs():
        assert main([name, spec, *options]) == 0, spec
        out = capsys.readouterr().out
        if spec.startswith("file:") and out.startswith("group: "):
            assert out.startswith(f"group: {spec[len('file:'):]}\n"), spec
            out = out.split("\n", 1)[1]
        outputs.append(out)
    assert _sha256("".join(outputs)) == _TEXT_OUTPUT_SHA256[command]


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
    # the spec is cut to 60 characters; the error names the whole path
    spec = f"file:{missing}"
    shown = spec if len(spec) <= 60 else spec[:60] + "..."
    assert lines[1].startswith(f"FAIL {shown}: ")
    assert "No such file" in lines[1] and lines[1].endswith(f"{missing!r}")
    assert lines[2:] == ["1/2 groups passed"]
    # a single group has no report to keep: a missing file stays exit 2
    for verb in ("analyze", "verify"):
        assert main([verb, f"file:{missing}"]) == 2


@needs_int_limit
def test_suite_json_reports_a_bad_extra_as_an_error_entry(capsys):
    argv = ["suite", "--only", "dihedral:3", "--format", "json"]
    argv += ["--extra", "dihedral:1", "--extra", "heis:4294967311"]
    argv += ["--extra", _OVERLONG_Z]
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    first, *errors = payload["results"]
    assert first["group"] == "D6" and first["pass"] is True
    assert errors == [
        {"group": "dihedral:1", "pass": False, "error": "dihedral needs m >= 2, got 1"},
        {
            "group": "heis:4294967311",
            "pass": False,
            "error": "primes are tested only below 2**32, got 4294967311",
        },
        {
            "group": _OVERLONG_Z[:60] + "...",
            "pass": False,
            "error": _overlong_message(_OVERLONG_Z),
        },
    ]
    assert (payload["passed"], payload["failed"]) == (1, 3)


@needs_int_limit
@pytest.mark.parametrize(
    "spec, piece",
    [
        (_OVERLONG_Z, _OVERLONG_Z),
        ("prod:dihedral:3," + _OVERLONG_Z, _OVERLONG_Z),
        ("dihedral:" + _OVERLONG_Z[1:], "dihedral:" + _OVERLONG_Z[1:]),
    ],
    ids=["z", "prod", "dihedral"],
)
def test_verify_rejects_a_parameter_over_the_int_limit(spec, piece, capsys):
    # int() refuses the number for its length: a parse error naming the limit
    assert main(["verify", spec]) == 2
    assert capsys.readouterr() == ("", f"error: {_overlong_message(piece)}\n")


_NESTED_PRODUCT = "prod:" * 2000 + "z2"


def test_a_nested_product_spec_is_one_error_line(capsys):
    # 2000 levels used to recurse past the interpreter's limit: a raw
    # RecursionError from verify, and from the suite, which reports only
    # typed errors of an extra
    message = "a product factor cannot itself be a product"
    assert main(["verify", _NESTED_PRODUCT]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main(["suite", "--only", "dihedral:3", "--extra", _NESTED_PRODUCT]) == 1
    lines = capsys.readouterr().out.splitlines()
    shown = _NESTED_PRODUCT[:60] + "..."
    assert lines[1:] == [f"FAIL {shown}: {message}", "1/2 groups passed"]


_LONG_PRODUCT = "prod:" + ",".join(["z2"] * 2000)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_the_suite_shows_at_most_60_characters_of_a_bad_spec(as_json, capsys):
    # a product of 2000 factors is 6004 characters long and names a group of
    # 2**2000 elements, 603 digits; the suite's line for it used to hold both
    argv = ["suite", "--only", "dihedral:3", "--extra", _LONG_PRODUCT]
    argv += ["--format", "json"] if as_json else []
    assert main(argv) == 1
    out = capsys.readouterr().out
    shown = _LONG_PRODUCT[:60] + "..."
    error = "groups are built only up to 8192 elements, got at least 2**2000"
    if as_json:
        entry = json.loads(out)["results"][1]
        assert entry == {"group": shown, "pass": False, "error": error}
    else:
        line = out.splitlines()[1]
        assert line == f"FAIL {shown}: {error}"
        assert len(line) == 133


def test_a_long_unknown_family_is_shown_cut(capsys):
    assert main(["verify", "x" * 10000 + ":2"]) == 2
    assert capsys.readouterr().err == f"error: unknown family {'x' * 60 + '...'!r}\n"


def test_an_order_past_the_int_string_limit_is_one_error_line(capsys):
    # 2**15000 has 4516 digits, more than str() prints by default; the
    # refusal used to end in a ValueError traceback
    assert main(["verify", "prod:" + ",".join(["z2"] * 15000)]) == 2
    assert capsys.readouterr() == (
        "",
        "error: groups are built only up to 8192 elements, got at least 2**15000\n",
    )


def test_verify_file_needs_a_path(capsys):
    assert main(["verify", "file:"]) == 2
    assert capsys.readouterr().err == "error: file: needs a path\n"


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


def test_render_json_is_the_stdlib_rendering_of_whole_reports(
    monkeypatch, tmp_path, capsys
):
    # the full grid, and S5, whose report has a non-integral remainder and
    # whose graph has 119 vertices
    table = permutation_table(5, False, random.Random(1))
    path = tmp_path / "s5.cayley"
    text = "\n".join(" ".join(map(str, row)) for row in table)
    path.write_text(f"{len(table)}\n{text}\n", encoding="utf-8")
    payloads = []
    render_json = cli.render_json

    def spy(payload):
        payloads.append(payload)
        return render_json(payload)

    monkeypatch.setattr(cli, "render_json", spy)
    for argv in (
        ["suite", "--format", "json"],
        ["analyze", f"file:{path}", "--format", "json"],
    ):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(payloads[-1], indent=2) + "\n", argv[0]
    assert len(payloads) == 2 and payloads[0]["passed"] == 73
    assert payloads[1]["graph"] and payloads[1]["integral"] is False


def test_render_json_matches_the_stdlib_on_any_json_value():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # quotes, backslashes, control characters, DEL, non-ASCII, a line
    # separator and an astral code point, which escapes as a surrogate pair
    special = st.sampled_from('"\\\x00\x08\n\x1f\x7f\xe9\u2028\U0001f600')
    text = st.text(st.one_of(special, st.characters()), max_size=12)
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(-(2**200), 2**200),
        text,
    )
    values = st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(text, inner, max_size=4),
        ),
        max_leaves=25,
    )

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(values)
    def check(value):
        assert cli.render_json(value) == json.dumps(value, indent=2) + "\n"

    check()
    assert cli.render_json({"a": [], "b": {}, "c": ()}) == (
        '{\n  "a": [],\n  "b": {},\n  "c": []\n}\n'
    )
    for value in (1.5, {1: 2}, {"a": {1, 2}}):
        with pytest.raises(TypeError):
            cli.render_json(value)


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


def test_the_parser_is_built_once_and_keeps_no_state(capsys):
    # main reuses one parser; argparse copies an ``append`` default before
    # appending to it, so one call's --extra never reaches the next call
    assert cli._build_parser() is cli._build_parser()
    assert main(["verify"]) == 2
    usage = capsys.readouterr().err
    assert main(["suite", "--only", "D8", "--extra", "dihedral:3"]) == 0
    assert "dihedral:3" in capsys.readouterr().out
    assert main(["suite", "--only", "D8"]) == 0
    assert "dihedral:3" not in capsys.readouterr().out
    assert main(["verify"]) == 2
    assert capsys.readouterr().err == usage


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
    # the reports hold no element graph: cli builds every one it prints
    assert not hasattr(predictions, "build_commuting_graph")
    assert not hasattr(predictions, "graph_json")
    calls = _count_calls(monkeypatch, graphs, "build_commuting_graph")
    monkeypatch.setattr(cli, "build_commuting_graph", graphs.build_commuting_graph)
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
    # catalog tables, direct products (one rule made from the factors'
    # rules) and central quotients are made by the program; only tables from
    # outside are rebuilt and compared
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
        lambda group: seen.append(group.order) or original(group),
    )
    assert main(argv) == 0
    capsys.readouterr()
    assert seen == orders


def _spy_walk(monkeypatch, module=groups, name="_walk"):
    """The order n of each call of a walk, ``groups._walk`` by default, in
    call order."""
    walked = []
    original = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda n, row: walked.append(n) or original(n, row)
    )
    return walked


_GRID_LABELS = [spec.label() for _, spec in list_catalog()]


@pytest.mark.parametrize(
    "argv, specs",
    [
        (["suite"], _GRID_LABELS),
        (["suite", "--format", "json"], _GRID_LABELS),
        (["verify", "heis:5"], ["heis:5"]),
        (["verify", "prod:dihedral:4,z2,z3"], ["prod:dihedral:4,z2,z3"]),
        (["verify", "dihedral:1000"], ["dihedral:1000"]),
        (["analyze", "heis:5", "--format", "json"], ["heis:5"]),
        (["export-dot", "prod:dihedral:4,z3"], ["prod:dihedral:4,z3"]),
    ],
    ids=["suite", "suite-json", "heis:5", "product", "dihedral:1000", "analyze", "dot"],
)
def test_the_walk_runs_once_per_built_group(argv, specs, monkeypatch, capsys):
    # a catalog group's points are walked once and its table never: the
    # decomposition composes only the representatives' rows, and the
    # central quotient is read off the coset products
    tables = _spy_walk(monkeypatch)
    walked = _spy_walk(monkeypatch, catalog, "_orbit")
    assert main(argv) == 0
    capsys.readouterr()
    assert tables == []
    # a product is walked as a whole, never its factors
    assert walked == [parse_family(label).order() for label in specs]


@pytest.fixture()
def s4_file(tmp_path):
    """The seed-1 shuffled S4 table as a ``file:`` spec."""
    group = from_cayley_table(permutation_table(4, False, random.Random(1)))
    path = tmp_path / "s4.cayley"
    path.write_text(format_cayley_text(group), encoding="utf-8")
    return f"file:{path}"


def test_a_table_from_outside_is_walked_once(s4_file, monkeypatch, capsys):
    walked = _spy_walk(monkeypatch)
    points = _spy_walk(monkeypatch, catalog, "_orbit")
    assert main(["verify", s4_file]) == 0
    capsys.readouterr()
    assert walked == [24] and points == []


def test_a_suite_run_makes_no_noncommuting_search(monkeypatch, capsys):
    # every grid group's coset graph is a union of cliques, so the blocks
    # give the largest non-commuting set
    searches = _count_calls(monkeypatch, predictions, "max_noncommuting_set")
    for argv in (["suite"], ["suite", "--format", "json"]):
        assert main(argv) == 0
        capsys.readouterr()
    assert searches == []


def test_verify_searches_once_where_a_block_is_not_a_clique(
    s4_file, monkeypatch, capsys
):
    searches = _count_calls(monkeypatch, predictions, "max_noncommuting_set")
    for spec in (s4_file, "prod:dihedral:3,dihedral:3", "heis:7"):
        del searches[:]
        assert main(["verify", spec]) == 0
        capsys.readouterr()
        assert len(searches) == (spec != "heis:7"), spec


def _block_keys(group):
    """The (block key, z) pairs that is_integral reads on the group's coset
    graph: each connected block's exact submatrix, and z = |Z|."""
    graph = coset_graph(group)
    z = len(center(group))
    return {
        (tuple(spectra._bit_rows(graph.adjacency, block)), z)
        for block in connected_components(graph)
    }


# one 35-coset block in 24 twin classes, read with z = 2 and with z = 1
_SAME_BLOCK_EXTRAS = ("prod:dicyclic:3,dihedral:3", "prod:dihedral:3,dihedral:3")


def test_suite_entries_equal_isolated_analyses(grid, capsys):
    # the suite shares one memo across its groups; a memo keyed on the block
    # alone would give the second extra the first's spectrum
    named = list(grid)
    argv = ["suite", "--format", "json"]
    for text in _SAME_BLOCK_EXTRAS:
        spec = parse_family(text)
        named.append((text, spec, build(spec)))
        argv += ["--extra", text]
    (key, z), (other_key, other_z) = (_block_keys(g).pop() for *_, g in named[-2:])
    assert key == other_key and (z, other_z) == (2, 1)
    assert main(argv) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(results) == len(named)
    for entry, (name, spec, group) in zip(results, named):
        # every grid group passes; neither extra has an integral spectrum
        assert entry.pop("pass") is (name not in _SAME_BLOCK_EXTRAS)
        assert entry == report_json_dict(verify_group(group, name, spec))
    assert {"value": 0, "multiplicity": 4} in results[-1]["spectrum"]
    assert {"value": 0, "multiplicity": 4} not in results[-2]["spectrum"]


def test_a_suite_run_proves_each_distinct_block_once(grid, monkeypatch, capsys):
    factored = _count_calls(monkeypatch, spectra, "_block_factor")
    checked = _count_calls(monkeypatch, spectra, "_spot_check")
    distinct = set().union(*(_block_keys(group) for *_, group in grid))
    per_group = sum(len(_block_keys(group)) for *_, group in grid)
    # the grid's groups share blocks: 39 distinct pairs, 126 counted by group
    assert len(distinct) < per_group
    for runs in (1, 2):
        assert main(["suite", "--format", "json"]) == 0
        capsys.readouterr()
        # a second run proves every block again: nothing outlives a run
        assert len(factored) == len(checked) == runs * len(distinct)


def test_verify_proves_each_distinct_block_of_its_group_once(monkeypatch, capsys):
    factored = _count_calls(monkeypatch, spectra, "_block_factor")
    # dicyclic:6 has 7 connected blocks on its cosets, 2 of them distinct
    distinct = len(_block_keys(build(parse_family("dicyclic:6"))))
    assert distinct == 2
    for runs in (1, 2):
        assert main(["verify", "dicyclic:6"]) == 0
        capsys.readouterr()
        assert len(factored) == runs * distinct
