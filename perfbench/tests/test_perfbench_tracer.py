"""The tracer leaves the program as it found it and does not change outputs."""

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import tracer as tracing
import workloads
from commspec import cli, groups
from commspec.catalog import FamilySpec, build
from commspec.errors import IndexOutOfRange
from commspec.spectra import char_poly


def _bindings() -> dict:
    """(namespace, attribute) -> object for every binding of a target."""
    out = {}
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "commspec" or key.startswith("commspec.")):
            continue
        for name in tracing.target_names():
            attr = name.split(".", 1)[1]
            if attr in vars(module):
                out[(module, attr)] = vars(module)[attr]
    out[(groups.FiniteGroup, "is_abelian")] = vars(groups.FiniteGroup)["is_abelian"]
    return out


def test_originals_restored_after_a_run_that_raised():
    before = _bindings()
    tr = tracing.Tracer()
    with pytest.raises(IndexOutOfRange):
        with tr.installed():
            for (owner, attr), original in before.items():
                assert vars(owner)[attr] is not original, (owner, attr)
            groups.from_cayley_table([[1]])
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is original for key, original in before.items())
    name, start, end, parent, _ = tr.spans[-1]
    assert (name, parent) == ("groups.from_cayley_table", -1)
    assert end >= start


def test_absent_targets_are_reported_and_the_rest_traced():
    targets = {
        "groups": ("no_such_function", "FiniteGroup.no_such_method", "center"),
        "no_such_layer": ("anything",),
    }
    tr = tracing.Tracer(targets)
    with tr.installed():
        groups.center(build(FamilySpec.dihedral(3)))
    assert tr.absent == [
        "groups.no_such_function",
        "groups.FiniteGroup.no_such_method",
        "no_such_layer.anything",
    ]
    assert [span[0] for span in tr.spans] == ["groups.center"]


def _s4_path(tmp_path) -> str:
    path = tmp_path / "s4.cayley"
    path.write_text(workloads.cayley_text(workloads.permutations(4, False), random.Random(3)))
    return str(path)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_traced_outputs_are_byte_identical(tmp_path):
    s4 = "file:" + _s4_path(tmp_path)
    commands = [
        ["verify", "dihedral:5"],
        ["analyze", "dicyclic:3", "--format", "json"],
        ["analyze", "heis:3"],
        ["suite", "--only", "Q", "--format", "json"],
        ["verify", s4],
        ["analyze", s4, "--format", "json"],
        ["export-dot", "dihedral:4"],
        ["analyze", "nosuch:1"],
        ["verify", "prod:dihedral:4,z2"],
    ]
    plain = [_run(argv) for argv in commands]
    tr = tracing.Tracer()
    with tr.installed():
        traced = [_run(argv) for argv in commands]
    assert traced == plain
    assert tr.spans


def test_self_times_partition_the_top_level_spans():
    tr = tracing.Tracer()
    with tr.installed():
        _run(["verify", "metacyclic:4,2"])
    totals = tracing.layer_totals(tr.spans)
    top = sum(end - start for _, start, end, parent, _ in tr.spans if parent == -1)
    assert all(entry["self_s"] > -1e-9 for entry in totals.values())
    assert sum(entry["self_s"] for entry in totals.values()) == pytest.approx(top)
    assert sum(entry["calls"] for entry in totals.values()) == len(tr.spans)


def test_size_counters_from_recorded_calls():
    # Two blocks: a triangle and a single edge, plus an isolated vertex.
    matrix = [[0] * 6 for _ in range(6)]
    for i, j in ((0, 1), (1, 2), (0, 2), (3, 4)):
        matrix[i][j] = matrix[j][i] = 1
    poly = char_poly(matrix)
    assert sorted(tracing.block_sizes(matrix)) == [1, 2, 3]
    counters, unreadable = tracing.size_counters(
        [("spectra.char_poly", (matrix,), {}, poly), ("spectra.char_poly", (), {}, None)]
    )
    assert unreadable == {"spectra.char_poly"}
    assert counters["spectra.degree"] == 6
    assert counters["spectra.fl_mults"] == 1 + 2**4 + 3**4
    assert counters["spectra.coeff_bits_max"] == max(abs(c).bit_length() for c in poly.coeffs)


def test_general_inputs_depend_only_on_the_seed(tmp_path):
    texts = {}
    for seed in (0, 1, 0):
        ops = workloads.build_ops("general", seed, tmp_path / str(seed))
        assert [op.name for op in ops] == ["verify S4", "verify A5", "analyze S5"]
        texts.setdefault(seed, []).append(
            [(tmp_path / str(seed) / f"{g}.cayley").read_text() for g in ("s4", "a5", "s5")]
        )
    assert texts[0][0] == texts[0][1]
    assert texts[0][0] != texts[1][0]
    for text, order in zip(texts[1][0], (24, 60, 120)):
        table, names = groups.parse_cayley_text(text)
        assert len(table) == order
        identity = table.index(list(range(order)))
        assert identity != 0
        assert names[identity] == "".join(str(k + 1) for k in range(len(names[0])))
        groups.from_cayley_table(table, names)  # passes the axiom checks


def test_mismatch_names_the_operation():
    op = workloads.Op("verify S4", ("verify", "file:x"), "verdicts")
    reference = {"exit": 0, "lines": ["integral: no", "result: ok"]}
    assert workloads.mismatch(op, reference, 0, "group: x\nintegral: no\nresult: ok\n") is None
    problem = workloads.mismatch(op, reference, 1, "group: x\nintegral: no\nresult: ok\n")
    assert problem.startswith("verify S4: exit=1")
    report = workloads.Op("analyze S5", ("analyze",), "report")
    assert workloads.mismatch(report, {"exit": 0}, 0, "not json").startswith("analyze S5:")
