"""The associativity proof against Light's test, on random product rules
and the tables composed from them along the walk, on the same tables
handed in from outside, on tables from outside and on a magma whose
generating set is nearly every element."""

import random
import re

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


def _orbit_table(n, generator_row):
    """Light's generating set and the table composed from its rows along
    the tree of ``groups._orbit``, row by row as ``FiniteGroup.table``
    composes it: row 0 is the identity, and the row of g*x is row_g o
    row_x."""
    gens, _, edges = groups._orbit(n, generator_row)
    table = [tuple(range(n))] * n
    for x, row in edges:
        table[row[x]] = tuple(row[v] for v in table[x])
    return table, gens


def _rule_group(rule, names):
    """``catalog.build``'s proof of the product rule whose rows are ``rule``."""
    generator_row = catalog._generator_row(lambda u, v: rule[u][v], len(names))
    return groups._group(names, generator_row)


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
        rows, gens = _orbit_table(n, lambda g: tuple(rule[g]))
        names = [str(i) for i in range(n)]
        light = light_witness(rows) is None
        if light:  # in a group the walk finds Light's set
            assert gens == generating_set(rows)
        built = _verdict(lambda: _rule_group(rule, names), rows)
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
    table, gens = _orbit_table(n, lambda g: tuple(rows[g]))
    assert gens == [1, 2] and light_witness(table) is not None
    failing = [
        (g, h)
        for g in gens
        for h in gens
        if any(table[g][table[y][h]] != table[table[g][y]][h] for y in range(n))
    ]
    assert failing == [pair]
    names = [str(i) for i in range(n)]
    for check in (lambda: _rule_group(rows, names), lambda: from_cayley_table(table)):
        with pytest.raises(AxiomViolation) as info:
            check()
        assert _violates(table, info.value)


def _square_zero_magma(n):
    """x*x = 0 and x*y = x otherwise, with 0 the identity: it passes the
    identity and inverse checks, and every element but 0 is a generator.
    At n = 2 it is the group Z2; above, row 1 is not a permutation."""
    table = [[0 if x == y else x for y in range(n)] for x in range(n)]
    table[0] = list(range(n))
    return table


@pytest.mark.parametrize("n", [2, 5, 9])
def test_a_generating_set_of_nearly_every_element(n):
    # every table one entry away from the magma, outside its identity row
    # and column: refused at the inverse check, or else with a true triple
    # exactly when Light's test finds one
    table = _square_zero_magma(n)
    assert generating_set(table) == list(range(1, n))
    assert (light_witness(table) is None) is (n == 2)
    assert from_cayley_table(_square_zero_magma(2)).generators == (1,)
    inverse = witnessed = 0
    for x in range(1, n):
        for y in range(1, n):
            for v in range(n):
                if v == table[x][y]:
                    continue
                bad = [list(row) for row in table]
                bad[x][y] = v
                if any(row.count(0) != 1 for row in bad):
                    with pytest.raises(AxiomViolation) as info:
                        from_cayley_table(bad)
                    assert info.value.axiom == "inverse", (x, y, v)
                    inverse += 1
                    continue
                light = light_witness(bad) is None
                assert _verdict(lambda: from_cayley_table(bad), bad) is light, (x, y, v)
                witnessed += not light
    # past Z2 no table one entry away is a group
    assert inverse > 0 and witnessed == (n - 1) ** 3 - inverse


def test_a_magma_with_inverses_and_no_small_generating_set():
    # x*x = 0 and x*y = x otherwise: it passes the identity and inverse
    # checks, and every element but 0 is a generator
    n = 6
    table = [[0 if x == y else x for y in range(n)] for x in range(n)]
    table[0] = list(range(n))
    assert generating_set(table) == list(range(1, n))
    assert light_witness(table) is not None
    assert not _verdict(lambda: from_cayley_table(table), table)


def test_a_table_row_that_is_no_permutation_is_refused_with_a_true_triple():
    # row 1 holds its one 0 at column 1 and misses 2 and 3: (1*1)*2 = 0*2
    # = 2, while 1*(1*2) = 1*1 lies in row 1
    table = [[0, 1, 2, 3], [1, 0, 1, 1], [2, 2, 0, 2], [3, 3, 3, 0]]
    with pytest.raises(AxiomViolation) as info:
        from_cayley_table(table)
    assert str(info.value) == "associativity axiom violated: (1*1)*2 != 1*(1*2)"
    assert _violates(table, info.value)
