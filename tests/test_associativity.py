"""The associativity check against Light's test, on catalog tables built
from random product rules, on the same rows handed in from outside, on
tables from outside and on a magma whose generating set is nearly every
element."""

import random
import re
from functools import partial

import pytest

from commspec import catalog, groups
from commspec.catalog import build, parse_family
from commspec.errors import AxiomViolation
from commspec.groups import from_cayley_table

from light import generating_set, identity_to_front, light_witness
from permutation_groups import relabelled_table

_WITNESS = re.compile(
    r"^associativity axiom violated: "
    r"\((\d+)\*(\d+)\)\*(\d+) != (\d+)\*\((\d+)\*(\d+)\)$"
)


def _violates(table, exc):
    """Whether the message of ``exc`` names a triple that does not associate
    in ``table``, the same triple on both sides."""
    x, g, y, x2, g2, y2 = map(int, _WITNESS.match(str(exc)).groups())
    same = (x, g, y) == (x2, g2, y2)
    return same and table[table[x][g]][y] != table[x][table[g][y]]


def _verdict(check, table):
    """True if ``check`` accepts, False if it names a bad triple in ``table``."""
    try:
        check()
    except AxiomViolation as exc:
        assert exc.axiom == "associativity"
        assert _violates(table, exc), str(exc)
        return False
    return True


# groups of order 2..9 with the identity at 0, as product rules
_SMALL_GROUPS = [
    build(parse_family(label)).table
    for label in "z2 z3 z4 dihedral:2 z5 z6 dihedral:3 z7 z8 dihedral:4 dicyclic:2 "
    "prod:z4,z2 z9 zpzp:3".split()
]


def _relabel_fixing_identity(table, rng):
    n = len(table)
    perm = [0] + rng.sample(range(1, n), n - 1)  # element a becomes perm[a]
    old = [0] * n
    for a, new in enumerate(perm):
        old[new] = a
    return [[perm[table[a][b]] for b in old] for a in old]


def _random_rule_rows(rng):
    """Rows for a product rule on 0..n-1 that passes the catalog's generator
    row checks: a relabelled small group, the same with one row's entries
    swapped, or a random permutation with g first in each row g."""
    kind = rng.randrange(3)
    if kind < 2:
        group = rng.choice(_SMALL_GROUPS)
        rows = [list(row) for row in _relabel_fixing_identity(group, rng)]
        n = len(rows)
        if kind == 1 and n > 2:
            u = rng.randrange(1, n)
            i, j = rng.sample(range(1, n), 2)
            rows[u][i], rows[u][j] = rows[u][j], rows[u][i]
        return rows
    n = rng.randrange(2, 10)
    return [
        [g] + rng.sample([y for y in range(n) if y != g], n - 1) for g in range(n)
    ]


def test_catalog_tables_from_random_rules_agree_with_light():
    rng = random.Random(16)
    accepted = rejected = 0
    for _ in range(3000):
        rule = _random_rule_rows(rng)
        n = len(rule)
        rows, gens, _ = groups._walk(n, lambda g: tuple(rule[g]))
        assert gens == generating_set(rows)
        names = [str(i) for i in range(n)]
        light = light_witness(rows) is None
        built = _verdict(lambda: catalog._group(lambda u, v: rule[u][v], names), rows)
        outside = _verdict(lambda: from_cayley_table(rows, names), rows)
        assert built is outside is light, rule
        accepted += light
        rejected += not light
    assert accepted > 500 and rejected > 500


_OUTSIDE_GROUPS = [table for table in _SMALL_GROUPS if 3 <= len(table) <= 7]


def _outside_table(rng):
    """A table of order 3..7 with its identity off index 0 and exactly one
    right inverse per element: random, a relabelled catalog group, or one
    with an entry changed.  Returns it with the same table with the
    identity at 0."""
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randrange(3, 8)
        table = [list(range(n))]
        for i in range(1, n):
            row = [i] + [rng.randrange(1, n) for _ in range(n - 1)]
            row[rng.randrange(1, n)] = 0
            table.append(row)
    else:
        table = [list(row) for row in rng.choice(_OUTSIDE_GROUPS)]
        n = len(table)
        if kind == 2:
            i, j = rng.randrange(1, n), rng.randrange(1, n)
            if table[i][j] != 0:
                others = [v for v in range(1, n) if v != table[i][j]]
                table[i][j] = rng.choice(others)
    return relabelled_table(table, rng), table


def test_tables_from_outside_agree_with_light():
    rng = random.Random(61)
    accepted = rejected = 0
    for _ in range(3000):
        table, at_zero = _outside_table(rng)
        e = next(i for i, row in enumerate(table) if row == list(range(len(row))))
        light = light_witness(at_zero) is None
        at_front = identity_to_front(table, e)
        verdict = _verdict(lambda: from_cayley_table(table), at_front)
        assert verdict is light, table
        accepted += light
        rejected += not light
    assert accepted > 500 and rejected > 500


@pytest.mark.parametrize(
    "rows, pair",
    [
        # generator rows for 1 and 2; each table fails check (b) on one pair
        ({1: [1, 0, 5, 3, 4, 2], 2: [2, 3, 0, 1, 5, 4]}, (1, 1)),
        ({1: [1, 0, 2, 3], 2: [2, 3, 0, 1]}, (1, 2)),
        ({1: [1, 0, 3, 2], 2: [2, 1, 0, 3]}, (2, 1)),
        ({1: [1, 0, 3, 2, 5, 4], 2: [2, 4, 1, 3, 0, 5]}, (2, 2)),
    ],
)
def test_every_generator_pair_is_checked(rows, pair):
    n = len(rows[1])
    table, gens, _ = groups._walk(n, lambda g: tuple(rows[g]))
    assert gens == [1, 2] and light_witness(table) is not None
    failing = [
        (g, h)
        for g in gens
        for h in gens
        if any(table[g][table[y][h]] != table[table[g][y]][h] for y in range(n))
    ]
    assert failing == [pair]
    names = [str(i) for i in range(n)]
    for check in (
        partial(groups._associative_group, table, names, gens),
        partial(catalog._group, lambda u, v: rows[u][v], names),
        partial(from_cayley_table, table),
    ):
        with pytest.raises(AxiomViolation) as info:
            check()
        assert _violates(table, info.value)


def _left_zero_band(n):
    """{1, ..., n-1} with x*y = x, plus an identity 0: associative, and
    nothing but 0 is a product of other elements, so every other element is
    a generator."""
    return [list(range(n))] + [[x] * n for x in range(1, n)]


@pytest.mark.parametrize("n", [2, 5, 9])
def test_a_generating_set_of_nearly_every_element(n):
    rows = [tuple(row) for row in _left_zero_band(n)]
    names = [str(i) for i in range(n)]
    assert generating_set(rows) == list(range(1, n))
    assert light_witness(rows) is None
    group = groups._outside_associative_group(rows, names)
    assert group.generators == tuple(range(1, n))
    for x in range(1, n):
        for y in range(1, n):
            for v in range(1, n):
                if v == x:
                    continue
                bad = [list(row) for row in rows]
                bad[x][y] = v
                light = light_witness(bad) is None
                bad_rows = [tuple(row) for row in bad]
                check = partial(groups._outside_associative_group, bad_rows, names)
                assert _verdict(check, bad) is light, (x, y, v)


def test_a_magma_with_inverses_and_no_small_generating_set():
    # x*x = 0 and x*y = x otherwise: it passes the identity and inverse
    # checks, and every element but 0 is a generator
    n = 6
    table = [[0 if x == y else x for y in range(n)] for x in range(n)]
    table[0] = list(range(n))
    assert generating_set(table) == list(range(1, n))
    assert light_witness(table) is not None
    assert not _verdict(lambda: from_cayley_table(table), table)

