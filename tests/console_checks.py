"""Console checks: commspec run end to end, one process per command.

Each function in ``CHECKS`` takes an empty directory and runs there, with
the interpreter that runs this script, ``python -m commspec.cli`` (or
``python -c`` for the checks on the package itself).  It raises unless
every command ends within its timeout with the expected exit code and the
expected text.  The interpreter is the one under test: CI runs the script
from a venv that holds only the installed package, and the tier-1 suite
runs every check through ``tests/test_console_checks.py``.  From the
repository root::

    PYTHONPATH=src python tests/console_checks.py

prints one line per check, its name and its seconds, and exits 1 at the
first check that fails, naming it.  A new check that needs a process of
its own is a ``check_*`` function added to ``CHECKS``.  The script uses the
standard library only.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from permutation_groups import permutation_table

# every command runs in a temporary directory, so a relative entry, such as
# the src of PYTHONPATH=src, is made absolute first
_ENV = dict(os.environ)
if "PYTHONPATH" in _ENV:
    _ENV["PYTHONPATH"] = os.pathsep.join(
        map(os.path.abspath, _ENV["PYTHONPATH"].split(os.pathsep))
    )


class CheckFailed(Exception):
    """A command's exit code or text is not the expected one."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _expect(got, want, what: str) -> None:
    _require(got == want, f"{what}: expected {want!r}, got {got!r}")


def _run(cwd, argv, code, timeout):
    """Run this interpreter with ``argv`` in ``cwd``, require exit ``code``
    within ``timeout`` seconds and return stdout and stderr, decoded without
    newline translation."""
    done = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=_ENV, capture_output=True, timeout=timeout
    )
    out, err = done.stdout.decode(), done.stderr.decode()
    shown = " ".join(argv).replace("\n", " ")[:100]
    _require(
        done.returncode == code,
        f"python {shown} exited {done.returncode}, not {code}: {err[-500:]}",
    )
    return out, err


def _cli(cwd, *args, code=0, timeout=60):
    """``commspec *args``, through the module the console script calls."""
    return _run(cwd, ["-m", "commspec.cli", *args], code, timeout)


def _python(cwd, source):
    """Run ``source`` with ``python -c``; it must exit 0 within 60 s."""
    _run(cwd, ["-c", source], 0, 60)


def check_catalog(tmp):
    _cli(tmp, "catalog")


def check_verify_dicyclic_3(tmp):
    _cli(tmp, "verify", "dicyclic:3")


def check_analyze_dihedral_4(tmp):
    out, _ = _cli(tmp, "analyze", "dihedral:4")
    _require("spectrum: 1^3 (-1)^3" in out, f"analyze dihedral:4 printed {out!r}")


def check_suite(tmp):
    # every corollary row of the 73-group grid
    out, _ = _cli(tmp, "suite")
    _expect(out.splitlines()[-1], "73/73 groups passed", "last line of suite")


def check_overlong_parameter(tmp):
    # a z<k> spec one digit past the interpreter's integer-string limit:
    # parse_family used to let int() raise a bare ValueError, a traceback and
    # exit 1, and then echoed the whole spec as a "non-integer parameter"; it
    # must be a one-line parse error, exit 2, that names the limit in at most
    # 200 bytes
    spec = "z" + "9" * (sys.get_int_max_str_digits() + 1)
    _, err = _cli(tmp, "verify", spec, code=2, timeout=10)
    _expect(err.count("\n"), 1, "lines of stderr")
    _require(len(err.encode()) <= 200, f"stderr has {len(err.encode())} bytes")
    _require(err.startswith("error: "), f"stderr {err!r}")
    _require("sys.get_int_max_str_digits" in err, f"stderr {err!r}")
    _require("Traceback" not in err, f"stderr {err!r}")


def check_char_poly_of_a_weighted_shuffled_matrix(tmp):
    # a weight-2 edge on vertices 1 and 3 and a triangle on 0, 2 and 4, so
    # (x^2 - 4)(x^3 - 3x - 2) = x^5 - 7x^3 - 2x^2 + 12x + 8; and a float
    # coefficient must raise TypeError
    _python(tmp, """
from commspec.spectra import CharPoly, char_poly
a = [[0, 0, 1, 0, 1], [0, 0, 0, 2, 0], [1, 0, 0, 0, 1], [0, 2, 0, 0, 0], [1, 0, 1, 0, 0]]
assert char_poly(a) == CharPoly((8, 12, -2, -7, 0, 1)), char_poly(a)
try:
    CharPoly((1.0,))
except TypeError:
    pass
else:
    raise SystemExit("CharPoly((1.0,)) was accepted")
""")


def check_char_poly_pivots_on_a_non_unit(tmp):
    # a pivot column that holds only P = 2^61 - 1 below the diagonal has no
    # unit modulo any power of P: the pass pivots on P, the entry of least
    # valuation, and goes on
    _python(tmp, """
from commspec.spectra import CharPoly, char_poly
P = 2**61 - 1
a = [[0, P, 0, 0], [P, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]
assert char_poly(a) == CharPoly((P*P, -2, -P*P - 3, 0, 1)), char_poly(a)
""")


def check_startup_loads_no_introspection_module(tmp):
    # dataclasses imports inspect, which imports ast, dis and tokenize; in a
    # fresh process they were about a third of the CLI's start-up time
    _python(tmp, """
import sys
from commspec import cli
cli.main(["--help"])
names = ("dataclasses", "inspect", "ast", "dis", "tokenize")
loaded = [m for m in names if m in sys.modules]
if loaded:
    raise SystemExit("loaded at start-up: " + " ".join(loaded))
""")


def check_suite_json_is_canonical(tmp):
    # cli.render_json writes the JSON itself instead of calling json.dumps;
    # its output must equal the stdlib's indent=2 rendering of its own
    # parse, byte for byte, and the whole grid must pass
    raw, _ = _cli(tmp, "suite", "--format", "json")
    payload = json.loads(raw)
    _require(raw == json.dumps(payload, indent=2) + "\n", "suite JSON is not canonical")
    _expect(payload["passed"], 73, "groups passed")


def check_suite_entries_equal_isolated_analyses(tmp):
    # a suite run proves each distinct coset block once across its groups,
    # keyed on the block and on z = |Z|; the two products below have the
    # same 35-coset block in 24 twin classes, with z = 2 and z = 1, so a key
    # without z would give the second the first's spectrum. The suite exits
    # 1, as neither spectrum is integral
    raw, _ = _cli(
        tmp, "suite", "--format", "json",
        "--extra", "prod:dicyclic:3,dihedral:3",
        "--extra", "prod:dihedral:3,dihedral:3",
        code=1,
    )
    entries = json.loads(raw)["results"][-2:]
    for entry in entries:
        del entry["pass"]
        alone = json.loads(_cli(tmp, "analyze", entry["group"], "--format", "json")[0])
        del alone["schema"], alone["graph"]
        _expect(entry, alone, f"suite entry of {entry['group']}")
    _require(
        {"value": 0, "multiplicity": 4} in entries[1]["spectrum"],
        f"no 0^4 in {entries[1]['spectrum']}",
    )


def check_element_names(tmp):
    # names are joined from per-symbol power lists: a power count of 1 (z1),
    # the dicyclic layout, U6's a^j b^i order and a product's pairs. The
    # graph lists the non-central elements in index order
    names = {
        "dihedral:4": "a a^3 b ab a^2b a^3b",
        "dicyclic:2": "a a^3 b ab a^2b a^3b",
        "u6n:1": "b b^2 a ab ab^2",
        "metacyclic:3,2": "a a^2 b ab a^2b ab^2 a^2b^2 b^3 ab^3 a^2b^3",
        "prod:dihedral:4,z1": "(a,1) (a^3,1) (b,1) (ab,1) (a^2b,1) (a^3b,1)",
    }
    for spec, want in names.items():
        out, _ = _cli(tmp, "analyze", spec, "--format", "json")
        _expect(" ".join(json.loads(out)["graph"]["vertices"]), want, spec)


# no closed form applies to S5 or S6, each corollary's hypothesis fails and
# neither spectrum is integral
_NO_CLOSED_FORM = """\
prediction: none applicable
corollary four-centralizer: not applicable
corollary p-plus-two-centralizer: not applicable
corollary five-centralizer: not applicable
corollary max-noncommuting-bound: not applicable
integral: no
result: ok
"""


def check_verify_shuffled_s5_and_s6_tables(tmp):
    # S5's table shuffled with seeds 1 and 5, the seed-1 table with every
    # index written as "+k" or "0k", and S6's seed-1 table. The uncapped
    # non-commuting search did not finish on S5 in 200 s; the capped one
    # takes well under a second. The loader must find the identity off
    # index 0, and read canonical indices by lookup and any other spelling
    # through int(). S6's 575-vertex block has 280 twin classes; verify
    # takes about 3.5 s on 2 vCPUs, most of it the Hessenberg pass on the
    # 280-row quotient modulo (2^61 - 1)^12
    s5 = permutation_table(5, False, random.Random(1))
    s5_seed_5 = permutation_table(5, False, random.Random(5))
    s6 = permutation_table(6, False, random.Random(1))
    for table in s5, s5_seed_5, s6:
        _require(table[0] != list(range(len(table))), "the identity is element 0")
    spelled = [
        [("+%d", "0%d")[(i + j) % 2] % k for j, k in enumerate(row)]
        for i, row in enumerate(s5)
    ]
    tables = [
        ("s5", s5, 10),
        ("s5-spelled", spelled, 10),
        ("s5-seed-5", s5_seed_5, 10),
        ("s6", s6, 60),
    ]
    for name, rows, timeout in tables:
        path = tmp / f"{name}.cayley"
        lines = [str(len(rows))] + [" ".join(map(str, row)) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out, _ = _cli(tmp, "verify", f"file:{path}", timeout=timeout)
        _expect(out, f"group: {path}\n{_NO_CLOSED_FORM}", f"verify {name}")
    text = (tmp / "s5-spelled.cayley").read_text(encoding="utf-8")
    _require(" +0 " in text and " 00 " in text, "s5-spelled lacks +0 or 00")


def check_reject_a_non_associative_table(tmp):
    # Z5 with two entries of row 3 swapped: every row is still a
    # permutation, so only associativity fails, at the first tree edge of
    # the walk whose rebuilt row differs
    path = tmp / "z5-swapped.cayley"
    path.write_text(
        "5\n0 1 2 3 4\n1 2 3 4 0\n2 3 4 0 1\n3 4 0 2 1\n4 0 1 2 3\n", encoding="utf-8"
    )
    _, err = _cli(tmp, "verify", f"file:{path}", code=1)
    _expect(err, "error: associativity axiom violated: (2*1)*3 != 2*(1*3)\n", "stderr")


def check_reject_a_repeated_element_name(tmp):
    # S3 with the name "a" given to elements 1 and 4: the DOT export would
    # merge the two vertices into one node, so the loader refuses the table
    # and names the first two elements that share a name
    path = tmp / "s3-twice.cayley"
    path.write_text(
        "6\n0 1 2 3 4 5\n1 2 0 4 5 3\n2 0 1 5 3 4\n3 5 4 0 2 1\n4 3 5 1 0 2\n"
        "5 4 3 2 1 0\nnames: 1 a a^2 b a c\n",
        encoding="utf-8",
    )
    _, err = _cli(tmp, "verify", f"file:{path}", code=2)
    _expect(err, "error: elements 1 and 4 share the name 'a'\n", "stderr")


def check_reject_a_nested_product(tmp):
    # a product factor that is a product can never parse, since the comma
    # split leaves it one factor; 2000 levels of prod: used to recurse past
    # the interpreter's limit, a RecursionError traceback and exit 1
    spec = "prod:" * 2000 + "z2"
    _, err = _cli(tmp, "verify", spec, code=2, timeout=10)
    _expect(err, "error: a product factor cannot itself be a product\n", "stderr")


def check_reject_primes_past_the_trial_division_bound(tmp):
    # 4294967311, the least prime past 2^32, and the 17-digit prime
    # 10^16 + 61 have no factor below 2^16, so the prime test refuses them
    # before anything is built: each would name a group of at least 2^64
    # elements, and heis:4294967311 used to pass the test and run out of
    # memory listing its elements. 10^30 is past the bound too, but its
    # factor 2 shows it is not prime
    messages = {
        4294967311: "primes are tested only below 2**32, got 4294967311",
        10**16 + 61: "primes are tested only below 2**32, got 10000000000000061",
        10**30: f"heis needs a prime, got {10**30}",
    }
    for p, message in messages.items():
        _, err = _cli(tmp, "verify", f"heis:{p}", code=2, timeout=10)
        _expect(err, f"error: {message}\n", f"heis:{p}")


def check_reject_a_group_past_the_order_bound(tmp):
    # 200000 and 65537^3 elements: the order is read off the closed form and
    # refused before any table is built, where each build used to end in a
    # MemoryError traceback from the walk or the name list, exit 1
    for spec in "dihedral:100000", "heis:65537":
        _, err = _cli(tmp, "verify", spec, code=2, timeout=10)
        _expect(err.count("\n"), 1, f"lines of stderr of {spec}")
        _require(err.startswith("error: "), f"stderr of {spec}: {err!r}")


def check_export_dot_heis_7(tmp):
    # 8 cliques of 42 non-central elements: 336 nodes, 8 * 42 * 41 / 2 edges
    _cli(tmp, "export-dot", "heis:7", "heis7.dot")
    lines = (tmp / "heis7.dot").read_text(encoding="utf-8").splitlines()
    edges = sum(" -- " in line for line in lines)
    nodes = sum(line.endswith(";") and " -- " not in line for line in lines)
    _expect((nodes, edges), (336, 6888), "nodes and edges")


def check_analyze_heis_5_json(tmp):
    # graph output still builds the element graph: 120 non-central elements
    # in 6 cliques of 20, so 6 * 20 * 19 / 2 = 1140 edges
    out, _ = _cli(tmp, "analyze", "heis:5", "--format", "json")
    graph = json.loads(out)["graph"]
    counts = len(graph["vertices"]), len(graph["edges"])
    _expect(counts, (120, 1140), "vertices and edges")


def check_verify_large_groups(tmp):
    specs = [
        # 1331 elements: 12 cliques of 110 non-central elements, one
        # distinct block
        "heis:11",
        # 2197 elements: three checked generator rows and the rows of the
        # 169 coset representatives, no table; commutation from the cosets
        "heis:13",
        # 4913 elements, the scale target: its 4913 points are walked and
        # 289 rows composed; check_verify_heis_17_within_80_mb bounds its memory
        "heis:17",
        # 600 elements: the twin quotient turns the clique of 298
        # non-central rotations into one row
        "dihedral:300",
        # 2000 elements: its central quotient, of order 1000, is the largest
        # any command builds, read off the 10^6 coset products without a walk
        "dihedral:1000",
        # 2000 elements: decided on the graph of the 999 non-central cosets;
        # the element graph is not built
        "dicyclic:500",
        # 500 elements, one walk over the product rule made from the
        # rules of heis:5 and z4
        "prod:heis:5,z4",
        # 360 elements
        "u6n:60",
    ]
    # neither spectrum is integral
    not_integral = [
        # 36 elements, trivial center: one block of 35 cosets in 24 twin
        # classes, a catalog-built block that is not a clique
        "prod:dihedral:3,dihedral:3",
        # 72 elements, center of order 2: one block of 70 elements on 35
        # cosets in 24 twin classes, checked with z = 2
        "prod:dicyclic:3,dihedral:3",
    ]
    for spec in specs + not_integral:
        lines = _cli(tmp, "verify", spec)[0].splitlines()
        _require("result: ok" in lines, f"verify {spec} printed {lines}")
        if spec in not_integral:
            _require("integral: no" in lines, f"verify {spec} printed {lines}")


def check_verify_heis_17_within_80_mb(tmp):
    # no table of heis:17 is built: its decomposition reads three generator
    # rows and composes the 289 representatives' rows, so the process peaks
    # near 27 MB, where composing the 4913-row table first took 201 MB.  A
    # process of its own runs the command, so that the peak of its children
    # is that command's alone.
    source = (
        "import resource, subprocess, sys\n"
        "argv = [sys.executable, '-m', 'commspec.cli', 'verify', 'heis:17']\n"
        "subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        # kilobytes on Linux, bytes on macOS
        "print(peak >> 20 if sys.platform == 'darwin' else peak >> 10)\n"
    )
    peak = int(_run(tmp, ["-c", source], 0, 60)[0])
    _require(peak < 80, f"verify heis:17 peaked at {peak} MB, over 80 MB")


CHECKS = (
    check_catalog,
    check_verify_dicyclic_3,
    check_analyze_dihedral_4,
    check_suite,
    check_overlong_parameter,
    check_char_poly_of_a_weighted_shuffled_matrix,
    check_char_poly_pivots_on_a_non_unit,
    check_startup_loads_no_introspection_module,
    check_suite_json_is_canonical,
    check_suite_entries_equal_isolated_analyses,
    check_element_names,
    check_verify_shuffled_s5_and_s6_tables,
    check_reject_a_non_associative_table,
    check_reject_a_repeated_element_name,
    check_reject_a_nested_product,
    check_reject_primes_past_the_trial_division_bound,
    check_reject_a_group_past_the_order_bound,
    check_export_dot_heis_7,
    check_analyze_heis_5_json,
    check_verify_large_groups,
    check_verify_heis_17_within_80_mb,
)


def main() -> int:
    for check in CHECKS:
        start = time.perf_counter()
        try:
            with tempfile.TemporaryDirectory() as tmp:
                check(Path(tmp))
        except Exception as exc:  # a wrong exit code or text, a timeout, bad JSON
            print(f"{check.__name__} FAILED: {type(exc).__name__}: {exc}", flush=True)
            traceback.print_exc()
            return 1
        print(f"{check.__name__} {time.perf_counter() - start:.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
