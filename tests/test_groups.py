import enum
import itertools
import math
import random
import re

import pytest

from commspec import groups
from commspec.catalog import FamilySpec, build, parse_family
from commspec.errors import (
    AbelianGroupError,
    AxiomViolation,
    IndexOutOfRange,
    ParameterOutOfRange,
    ParseError,
)
from commspec.graphs import build_commuting_graph, coset_graph
from commspec.groups import (
    Recognition,
    center,
    centralizer_count,
    from_cayley_table,
    from_cayley_text,
    is_prime,
    max_noncommuting_set,
    parse_cayley_text,
    prime_power,
    quotient_by_center,
    recognize_small,
)

from light import close, generating_set, identity_to_front
from oracles import brute_force_center, centralizer, format_cayley_text
from permutation_groups import permutation_group, permutation_table, relabelled_table


def s3_table():
    """Compose the six permutations of three letters by hand."""
    perms = list(itertools.permutations(range(3)))  # identity comes first

    def compose(p, q):
        return tuple(p[q[x]] for x in range(3))

    index = {p: i for i, p in enumerate(perms)}
    return [[index[compose(p, q)] for q in perms] for p in perms]


def test_trivial_group():
    group = from_cayley_table([[0]])
    assert group.order == 1
    assert group.is_abelian()


def test_s3_from_permutation_composition():
    group = from_cayley_table(s3_table())
    assert group.order == 6
    assert not group.is_abelian()
    assert center(group) == (0,)


def test_missing_inverse_detected():
    with pytest.raises(AxiomViolation) as exc:
        from_cayley_table([[0, 1], [1, 1]])
    assert exc.value.axiom == "inverse"


# Z5 with row 3's last two entries swapped: identity and unique right
# inverses survive, so only the associativity check can reject it.
Z5_SWAPPED = [
    [0, 1, 2, 3, 4],
    [1, 2, 3, 4, 0],
    [2, 3, 4, 0, 1],
    [3, 4, 0, 2, 1],
    [4, 0, 1, 2, 3],
]


def test_associativity_violation_detected():
    with pytest.raises(AxiomViolation) as exc:
        from_cayley_table(Z5_SWAPPED)
    assert exc.value.axiom == "associativity"


def test_associativity_violation_away_from_the_first_generator():
    # Z2 x Z5_SWAPPED with (a, m) at index a + 2m: element 1 = (1, e)
    # associates with everything, so only a later generator exposes the
    # broken factor.
    table = [
        [(a ^ b) + 2 * Z5_SWAPPED[m][k] for k in range(5) for b in (0, 1)]
        for m in range(5)
        for a in (0, 1)
    ]
    assert generating_set(table)[0] == 1
    with pytest.raises(AxiomViolation) as exc:
        from_cayley_table(table)
    assert exc.value.axiom == "associativity"
    assert not _is_associative(table)


def _is_associative(table):
    """Oracle: the exhaustive O(n^3) scan over every triple."""
    n = len(table)
    for x in range(n):
        row_x = table[x]
        for y in range(n):
            if table[row_x[y]] != [row_x[v] for v in table[y]]:
                return False
    return True


def _relabelled_d8(seed):
    """The order-8 dihedral group under a seeded shuffle of its elements."""
    table = build(FamilySpec.dihedral(4)).table
    n = len(table)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    assert perm[0] != 0
    pos = {old: new for new, old in enumerate(perm)}
    return [[pos[table[perm[i]][perm[j]]] for j in range(n)] for i in range(n)]


_WITNESS = re.compile(r"\((\d+)\*(\d+)\)\*(\d+) != (\d+)\*\((\d+)\*(\d+)\)")


@pytest.mark.parametrize(
    "make_table, seed",
    [
        (s3_table, 1),
        (lambda: build(FamilySpec.dicyclic(2)).table, 2),
        (lambda: build(FamilySpec.dihedral(6)).table, 3),
        (lambda: build(FamilySpec.heis(3)).table, 4),
        (lambda: _relabelled_d8(5), 5),
    ],
    ids=["S3", "Q8", "dihedral:6", "heis:3", "relabelled-D8"],
)
def test_validation_agrees_with_exhaustive_scan(make_table, seed):
    table = [list(row) for row in make_table()]
    n = len(table)
    e = next(i for i in range(n) if table[i] == list(range(n)))
    assert _is_associative(table)
    from_cayley_table(table)

    rng = random.Random(seed)
    others = [i for i in range(n) if i != e]
    witnesses = 0
    for _ in range(200):
        # corrupt one entry outside the identity row and column
        bad = [row[:] for row in table]
        i, j = rng.choice(others), rng.choice(others)
        bad[i][j] = rng.choice([v for v in range(n) if v != table[i][j]])
        one_inverse_per_row = all(row.count(e) == 1 for row in bad)
        is_group = one_inverse_per_row and _is_associative(bad)
        try:
            from_cayley_table(bad)
        except AxiomViolation as exc:
            assert not is_group, (i, j)
            expected = "associativity" if one_inverse_per_row else "inverse"
            assert exc.axiom == expected, (i, j)
            if expected == "associativity":
                x, g, y, x2, g2, y2 = map(int, _WITNESS.search(str(exc)).groups())
                assert (x, g, y) == (x2, g2, y2)
                t = identity_to_front(bad, e)
                assert t[t[x][g]][y] != t[x][t[g][y]], str(exc)
                witnesses += 1
        else:
            assert is_group, (i, j)
    assert witnesses > 0


def test_generating_set_is_logarithmic(grid):
    for name, _, group in grid:
        gens = group.generators
        assert len(gens) <= group.order.bit_length() - 1, name  # floor(log2 n)
        assert len(close(group.table, gens, {0})) == group.order, name


def test_heisenberg_7_needs_three_generators():
    heis7 = build(FamilySpec.heis(7))
    assert len(heis7.generators) == 3


def test_no_identity_detected():
    with pytest.raises(AxiomViolation) as exc:
        from_cayley_table([[1, 1], [1, 1]])
    assert exc.value.axiom == "identity"


def test_identity_relabelled_to_front():
    # Z2 written with its identity at index 1.
    group = from_cayley_table([[1, 0], [0, 1]], names=["x", "e"])
    assert group.table == ((0, 1), (1, 0))
    assert group.names == ("e", "x")

    # Z3 written with its identity at index 2.
    shifted = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    group = from_cayley_table(shifted)
    assert group.table[0] == (0, 1, 2)
    assert all(group.table[i][0] == i for i in range(3))


@pytest.mark.parametrize("degree, even", [(4, False), (5, True), (5, False)])
def test_relabelling_matches_the_per_entry_formula(degree, even):
    # shuffled S4, A5 and S5 with the identity off index 0
    table = permutation_table(degree, even, random.Random(degree + even))
    e = next(i for i, row in enumerate(table) if row == sorted(row))
    assert e != 0
    names = [f"p{i}" for i in range(len(table))]
    group = from_cayley_table(table, names)
    expected = identity_to_front(table, e)
    assert group.table == tuple(tuple(row) for row in expected)
    names[0], names[e] = names[e], names[0]
    assert group.names == tuple(names)


def test_bad_entries_rejected():
    with pytest.raises(IndexOutOfRange):
        from_cayley_table([[0, 5], [5, 0]])
    with pytest.raises(IndexOutOfRange):
        from_cayley_table([[0, 1], [1]])
    with pytest.raises(IndexOutOfRange):
        from_cayley_table([])


class _Index(int):
    pass


class _Bit(enum.IntEnum):
    ZERO = 0


@pytest.mark.parametrize(
    "row, message",
    [
        ([1, 0.0], "entry (1,1) = 0.0 not in 0..1"),
        ([1, False], "entry (1,1) = False not in 0..1"),
        ([True, 0], "entry (1,0) = True not in 0..1"),
        ([1, -1], "entry (1,1) = -1 not in 0..1"),
        ([2, 0], "entry (1,0) = 2 not in 0..1"),
        ([1, "0"], "entry (1,1) = '0' not in 0..1"),
        # an int subclass hashes and compares like its value, but a table
        # stores exact ints only
        ([_Index(1), 0], "entry (1,0) = 1 not in 0..1"),
        ([1, _Bit.ZERO], "entry (1,1) = <_Bit.ZERO: 0> not in 0..1"),
    ],
)
def test_each_bad_entry_is_named(row, message):
    with pytest.raises(IndexOutOfRange) as info:
        from_cayley_table([[0, 1], row])
    assert str(info.value) == message


@pytest.mark.parametrize(
    "names, message",
    [
        (["x"] * 6, "elements 0 and 1 share the name 'x'"),
        (["1", "a", "b", "c", "a", "b"], "elements 1 and 4 share the name 'a'"),
        (["1", "a", "b", "c", "d", 1], "elements 0 and 5 share the name '1'"),
    ],
)
def test_duplicate_names_are_rejected(names, message):
    # DOT export and the JSON graph identify vertices by name
    table = build(parse_family("dihedral:3")).table
    with pytest.raises(ParseError) as info:
        from_cayley_table(table, names)
    assert str(info.value) == message


@pytest.mark.parametrize("count", [5, 7, 0])
def test_a_name_per_element_is_required(count):
    table = build(parse_family("dihedral:3")).table
    with pytest.raises(IndexOutOfRange) as info:
        from_cayley_table(table, [f"x{i}" for i in range(count)])
    assert str(info.value) == f"{count} names for 6 elements"


def test_center_of_abelian_group_is_everything():
    z4 = build(FamilySpec.cyclic(4))
    assert center(z4) == (0, 1, 2, 3)


def test_center_of_q8(q8):
    # {1, a^2}
    assert center(q8) == (0, 2)


def test_center_of_u6_is_trivial():
    u6 = build(FamilySpec.u6n(1))
    assert len(center(u6)) == 1


def test_center_is_kept_on_its_group_only(monkeypatch):
    scans = []
    original = groups._center_cosets
    monkeypatch.setattr(
        groups,
        "_center_cosets",
        lambda group: scans.append(group.order) or original(group),
    )
    first = build(FamilySpec.dihedral(4))
    second = build(FamilySpec.dihedral(4))
    assert center(first) == center(first) == (0, 2)
    assert centralizer_count(first) == 4 and first.is_abelian() is False
    assert quotient_by_center(first).order == 4
    assert scans == [8]
    # the kept cosets are not a field: equality and hashing never see them
    assert first == second and hash(first) == hash(second)
    assert center(second) == center(first)
    assert scans == [8, 8]


def test_groups_with_different_generators_differ():
    # a plain record compares and hashes by all of its fields
    group = build(FamilySpec.dihedral(4))
    # every element but 0 as the generators, with their rows
    other = group._replace(
        generators=tuple(range(1, group.order)), generator_rows=group.table[1:]
    )
    assert other.table == group.table and other.names == group.names
    assert other != group and not (other == group)
    assert group._replace() == group
    assert hash(group._replace()) == hash(group)


def _coset_centralizer(group, x):
    """C(x) read off the group's cosets of the center: the members of the
    cosets whose bits are set in the row of x's coset."""
    decomposition = group.center_cosets
    row = decomposition.commuting[decomposition.coset_of[x]]
    cosets = decomposition.cosets
    return tuple(sorted(y for j in groups._bits(row) for y in cosets[j]))


def test_centralizer_of_identity_is_whole_group(d6):
    assert centralizer(d6, 0) == _coset_centralizer(d6, 0) == tuple(range(6))


def test_centralizer_in_d6(d6):
    a = d6.names.index("a")
    assert centralizer(d6, a) == _coset_centralizer(d6, a) == (0, 1, 2)


def test_centralizer_in_q8(q8):
    b = q8.names.index("b")
    expected = tuple(sorted(q8.names.index(n) for n in ("1", "a^2", "b", "a^2b")))
    assert centralizer(q8, b) == _coset_centralizer(q8, b) == expected


def test_centralizer_count():
    assert centralizer_count(build(FamilySpec.cyclic(6))) == 1
    assert centralizer_count(build(FamilySpec.dihedral(4))) == 4
    assert centralizer_count(build(FamilySpec.dihedral(6))) == 5


def test_quotient_of_abelian_group_is_trivial():
    z6 = build(FamilySpec.cyclic(6))
    assert quotient_by_center(z6).order == 1
    assert z6.center_cosets.coset_of == (0,) * 6


def test_quotient_of_q8(q8):
    quotient = quotient_by_center(q8)
    assert quotient.order == 4
    assert all(quotient.element_order(x) == 2 for x in range(1, 4))  # exponent 2
    assert q8.center_cosets.cosets[0] == (0, 2)  # identity coset is the center


def test_quotient_of_q12_is_nonabelian_of_order_6():
    q12 = build(FamilySpec.dicyclic(3))
    quotient = quotient_by_center(q12)
    assert quotient.order == 6
    assert not quotient.is_abelian()
    assert recognize_small(quotient) == Recognition("dihedral", 3)


def test_recognize_elementary_square():
    assert recognize_small(build(FamilySpec.zpzp(2))) == Recognition("zpzp", 2)
    assert recognize_small(build(FamilySpec.zpzp(3))) == Recognition("zpzp", 3)


def test_recognize_dihedral_from_raw_table():
    assert recognize_small(from_cayley_table(s3_table())) == Recognition("dihedral", 3)


def test_recognize_rejects_cyclic_groups():
    assert recognize_small(build(FamilySpec.cyclic(9))) == Recognition("other")
    assert recognize_small(build(FamilySpec.cyclic(4))) == Recognition("other")


def test_recognize_order_4_overlap_prefers_square_shape():
    # the order-4 dihedral group is the Klein four-group
    assert recognize_small(build(FamilySpec.dihedral(2))) == Recognition("zpzp", 2)


def _recognize_by_closure(group):
    """Oracle: the shapes by brute force, with <r, s> == G tested by closing
    {r, s} under right multiplication."""
    n = group.order
    table = group.table
    p = math.isqrt(n)
    commutative = all(table[x][y] == table[y][x] for x in range(n) for y in range(n))
    if p * p == n and is_prime(p) and commutative:
        if all(group.element_order(x) == p for x in range(1, n)):
            return Recognition("zpzp", p)
    m = n // 2
    if n >= 4 and n % 2 == 0:
        for r in range(1, n):
            for s in range(1, n):
                if (
                    group.element_order(r) == m
                    and group.element_order(s) == 2
                    and table[table[s][r]][s] == group.inverse(r)
                    and len(close(table, (r, s), {0})) == n
                ):
                    return Recognition("dihedral", m)
    return Recognition("other")


def test_recognize_small_agrees_with_closure(grid):
    # z4's only element of order 2 is r = s with s*r*s == r^-1, and <r, s>
    # is then a proper subgroup
    labels = "z4 prod:z2,z2 dihedral:2 dihedral:3 dihedral:4 dicyclic:2 z6".split()
    named = [(label, build(parse_family(label))) for label in labels]
    named += [(name, quotient_by_center(group)) for name, _, group in grid]
    shapes = set()
    for name, group in named:
        recognition = recognize_small(group)
        assert recognition == _recognize_by_closure(group), name
        shapes.add(recognition.kind)
    assert shapes == {"zpzp", "dihedral", "other"}


def test_each_element_order_is_computed_once(monkeypatch):
    group = quotient_by_center(build(parse_family("dihedral:12")))  # D_12
    asked = []
    original = groups.FiniteGroup.element_order
    monkeypatch.setattr(
        groups.FiniteGroup,
        "element_order",
        lambda self, a: asked.append(a) or original(self, a),
    )
    assert recognize_small(group) == Recognition("dihedral", 6)
    assert sorted(asked) == list(range(group.order))


def _assert_pairwise_noncommuting(group, elements):
    for x, y in itertools.combinations(elements, 2):
        assert group.mul(x, y) != group.mul(y, x)


def _brute_force_max_size(group):
    z = set(center(group))
    verts = [x for x in range(group.order) if x not in z]
    best = 0
    for r in range(len(verts), 0, -1):
        for combo in itertools.combinations(verts, r):
            if all(
                group.mul(x, y) != group.mul(y, x)
                for x, y in itertools.combinations(combo, 2)
            ):
                return r
    return best


@pytest.mark.parametrize(
    "spec, expected",
    [
        (FamilySpec.dihedral(4), 3),
        (FamilySpec.dihedral(6), 4),
        (FamilySpec.dihedral(3), 4),
    ],
)
def test_max_noncommuting_set_sizes(spec, expected):
    group = build(spec)
    witness = max_noncommuting_set(group)
    assert len(witness) == expected
    _assert_pairwise_noncommuting(group, witness)
    assert _brute_force_max_size(group) == expected


def test_capped_noncommuting_search_agrees_with_uncapped(grid):
    named = [(name, group) for name, _, group in grid]
    named += [("S4", permutation_group(4, False)), ("A5", permutation_group(5, True))]
    for name, group in named:
        full = max_noncommuting_set(group)
        capped = max_noncommuting_set(group, cap=5)
        _assert_pairwise_noncommuting(group, capped)
        if len(full) < 5:
            assert len(capped) == len(full), name
        else:
            assert len(capped) >= 5, name


def _commutes(group, a, b):
    # the pairwise oracle the commutation masks are checked against
    return group.table[a][b] == group.table[b][a]


def _shuffled_groups():
    # identity not at index 0, so from_cayley_table relabels the elements
    rng = random.Random(7)
    tables = {
        "S4": permutation_table(4, False, rng),
        "A5": permutation_table(5, True, rng),
    }
    for label in ("heis:3", "prod:dicyclic:3,z4", "expp2:3"):
        tables[label] = relabelled_table(build(parse_family(label)).table, rng)
    assert all(table[0][0] != 0 for table in tables.values())
    named = [(name, from_cayley_table(table)) for name, table in tables.items()]
    # the relabelled catalog groups have large centers (|Z| = 3, 8 and 3)
    # scattered over the indices, not on the first |Z| as the catalog has them
    for name, group in named[2:]:
        z = center(group)
        assert len(z) in (3, 8) and z != tuple(range(len(z))), name
    return named


def test_commutation_masks_agree_with_pairwise_oracle(grid):
    named = [(name, group) for name, _, group in grid] + _shuffled_groups()
    for name, group in named:
        n = group.order
        members = [centralizer(group, x) for x in range(n)]
        central = tuple(x for x in range(n) if len(members[x]) == n)
        assert center(group) == central, name
        assert group.is_abelian() is (len(central) == n), name

        graph = build_commuting_graph(group)
        verts = tuple(x for x in range(n) if x not in central)
        assert graph.vertices == verts, name
        adjacency = tuple(
            sum(1 << j for j, y in enumerate(verts) if y != x and _commutes(group, x, y))
            for x in verts
        )
        assert graph.adjacency == adjacency, name
        assert graph.edge_count == sum(
            _commutes(group, x, y) for x, y in itertools.combinations(verts, 2)
        ), name

        for witness in (max_noncommuting_set(group), max_noncommuting_set(group, cap=5)):
            assert witness == sorted(set(witness)), name
            _assert_pairwise_noncommuting(group, witness)


def test_center_cosets_match_the_brute_force_center(grid):
    # the grid, the trivial group (no generators), two abelian groups (every
    # element central) and shuffled S4 and A5 tables (trivial center)
    named = [(name, group) for name, _, group in grid]
    named += [("trivial", from_cayley_table([[0]]))]
    named += [(label, build(parse_family(label))) for label in ("z4", "prod:z2,z2")]
    rng = random.Random(31)
    named += [("S4", from_cayley_table(permutation_table(4, False, rng)))]
    named += [("A5", from_cayley_table(permutation_table(5, True, rng)))]
    for name, group in named:
        z = brute_force_center(group)
        cosets = sorted({tuple(sorted(row[c] for c in z)) for row in group.table})
        found = group.center_cosets
        assert found.cosets == tuple(cosets), name
        assert found.coset_of == tuple(
            next(i for i, coset in enumerate(cosets) if x in coset)
            for x in range(group.order)
        ), name


def test_coset_rows_give_the_brute_force_centralizers(grid):
    named = [(name, group) for name, _, group in grid] + _shuffled_groups()
    s5 = permutation_table(5, False, random.Random(9))
    assert s5[0] != list(range(len(s5)))  # from_cayley_table relabels
    named.append(("S5", from_cayley_table(s5)))
    for name, group in named:
        members = [centralizer(group, x) for x in range(group.order)]
        for x, expected in enumerate(members):
            assert _coset_centralizer(group, x) == expected, (name, x)
        assert centralizer_count(group) == len(set(members)), name


def _element_level_max_size(group):
    """Oracle: the branch-and-bound search on the non-central elements, with
    adjacency from the pairwise oracle rather than from the cosets."""
    n = group.order
    masks = [sum(1 << y for y in range(n) if _commutes(group, x, y)) for x in range(n)]
    noncentral = sum(1 << x for x in range(n) if masks[x] != (1 << n) - 1)
    adj = [noncentral & ~mask for mask in masks]
    return len(groups._max_clique(adj, noncentral, n))


def test_noncommuting_witnesses_take_the_least_member_of_distinct_cosets(grid):
    named = [(name, group) for name, _, group in grid] + _shuffled_groups()
    named += [("S4", permutation_group(4, False)), ("A5", permutation_group(5, True))]
    for name, group in named:
        decomposition = group.center_cosets
        full = max_noncommuting_set(group)
        assert len(full) == _element_level_max_size(group), name
        for witness in (full, max_noncommuting_set(group, cap=5)):
            _assert_pairwise_noncommuting(group, witness)
            chosen = [decomposition.coset_of[x] for x in witness]
            assert 0 not in chosen and len(set(chosen)) == len(chosen), name
            assert all(decomposition.cosets[c][0] == x for c, x in zip(chosen, witness))


def test_quotient_tables_agree_with_coset_products(grid):
    named = [(name, group) for name, _, group in grid] + _shuffled_groups()
    # q = 300: most of its rows are composed by the walk, not computed by
    # the product rule, and each is checked here pair by pair
    named.append(("dihedral:300", build(FamilySpec.dihedral(300))))
    for name, group in named:
        quotient = quotient_by_center(group)
        coset_of, cosets = group.center_cosets.coset_of, group.center_cosets.cosets
        z = center(group)
        assert cosets[0] == z, name
        assert sorted(itertools.chain(*cosets)) == list(range(group.order))
        for i, coset in enumerate(cosets):
            assert coset == tuple(sorted(group.table[coset[0]][c] for c in z)), name
            assert [coset_of[x] for x in coset] == [i] * len(coset), name
        assert quotient.names == ("Z",) + tuple(
            f"{group.names[coset[0]]}Z" for coset in cosets[1:]
        ), name
        # the per-pair definition: the coset of a*b, for every a and b
        q_table = quotient.table
        for a, row in enumerate(group.table):
            q_row = q_table[coset_of[a]]
            assert all(
                q_row[coset_of[b]] == coset_of[ab] for b, ab in enumerate(row)
            ), name


def test_quotient_generators_generate_it(grid):
    # the cosets of the group's generators: a walk from Z under right
    # multiplication by them reaches every coset
    rng = random.Random(1)
    named = [(name, group) for name, _, group in grid]
    for name, degree, even in (("S4", 4, False), ("A5", 5, True), ("S5", 5, False)):
        named.append((name, from_cayley_table(permutation_table(degree, even, rng))))
    named.append(("dihedral:1000", build(FamilySpec.dihedral(1000))))
    for name, group in named:
        quotient = quotient_by_center(group)
        coset_of = group.center_cosets.coset_of
        expected = sorted({coset_of[g] for g in group.generators} - {0})
        assert list(quotient.generators) == expected, name
        assert len(close(quotient.table, quotient.generators, {0})) == quotient.order
    # an abelian group's quotient is trivial, with no generators
    assert quotient_by_center(build(FamilySpec.cyclic(6))).generators == ()


def test_coset_masks_match_the_pairwise_definition(grid):
    # bit j of commuting[i] is r_i*r_j == r_j*r_i for the representatives
    # r_i, r_j of cosets i and j, and the coset graph drops bit 0 and bit i
    rng = random.Random(8)
    named = [(name, group) for name, _, group in grid]
    for name, degree, even in (("S4", 4, False), ("A5", 5, True), ("S5", 5, False)):
        table = permutation_table(degree, even, rng)
        # the identity is off index 0, so from_cayley_table relabels
        assert table[0] != list(range(len(table))), name
        named.append((name, from_cayley_table(table)))
    for name, group in named:
        table = group.table
        decomposition = group.center_cosets
        reps = [coset[0] for coset in decomposition.cosets]
        rows = [[table[a][b] == table[b][a] for b in reps] for a in reps]
        assert decomposition.products == tuple(
            tuple(table[a][b] for b in reps) for a in reps
        ), name
        assert decomposition.commuting == tuple(
            sum(1 << j for j, commutes in enumerate(row) if commutes) for row in rows
        ), name
        graph = coset_graph(group)
        assert graph.vertices == tuple(reps[1:]), name
        assert graph.adjacency == tuple(
            sum(1 << j for j, commutes in enumerate(row[1:]) if commutes and j != i)
            for i, row in enumerate(rows[1:])
        ), name
        assert graph.edge_count == sum(
            rows[i][j] for i in range(1, len(reps)) for j in range(i + 1, len(reps))
        ), name
    # q = 1: one coset, which commutes with itself
    assert build(FamilySpec.cyclic(6)).center_cosets.commuting == (1,)


@pytest.mark.parametrize(
    "spec",
    [FamilySpec.cyclic(6), FamilySpec.product(FamilySpec.cyclic(2), FamilySpec.cyclic(2))],
    ids=["z6", "z2xz2"],
)
def test_commutation_masks_of_abelian_groups(spec):
    group = build(spec)
    assert group.is_abelian()
    assert center(group) == tuple(range(group.order))
    assert centralizer_count(group) == 1
    with pytest.raises(AbelianGroupError):
        build_commuting_graph(group)
    with pytest.raises(AbelianGroupError):
        max_noncommuting_set(group)


def test_uncapped_noncommuting_search_on_a_deep_clique():
    # the 999 reflections and one rotation of dihedral:999: a clique of 1000
    # cosets, deeper than Python's default recursion limit
    group = build(FamilySpec.dihedral(999))
    witness = max_noncommuting_set(group)
    assert len(witness) == 1000
    _assert_pairwise_noncommuting(group, witness)


def test_max_noncommuting_set_rejects_abelian():
    with pytest.raises(AbelianGroupError):
        max_noncommuting_set(build(FamilySpec.cyclic(5)))


def test_primality_helpers():
    assert [n for n in range(14) if is_prime(n)] == [2, 3, 5, 7, 11, 13]
    assert prime_power(27) == (3, 3)
    assert prime_power(8) == (2, 3)
    assert prime_power(12) is None
    assert prime_power(1) is None
    assert prime_power(7) == (7, 1)


def test_is_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    below = range(10**5)
    assert list(map(is_prime, below)) == list(map(sympy.isprime, below))
    # a Carmichael number, a strong pseudoprime to the bases 2, 3, 5 and 7,
    # the largest square of a prime and the largest prime below 2**32, and
    # 2**32 + 1 = 641 * 6700417, decided past the bound by its factor 641
    for n in (561, 3215031751, 65521**2, 4294967291, 2**32 + 1):
        assert is_prime(n) == sympy.isprime(n), n
    assert is_prime(4294967291)
    assert not is_prime(2**32 + 1)


@pytest.mark.parametrize(
    "n",
    [
        4294967311,  # the least prime past 2**32
        2**61 - 1,
        (2**31 - 1) ** 2,
        318665857834031151167461,  # a strong pseudoprime to the first 12 primes
    ],
)
def test_is_prime_refuses_what_it_cannot_decide(n):
    # past 2**32, with no factor below 2**16
    with pytest.raises(ParameterOutOfRange) as info:
        is_prime(n)
    assert str(info.value) == f"primes are tested only below 2**32, got {n}"


def test_is_prime_divides_only_below_2_16(monkeypatch):
    limits = []
    least_factor = groups._least_factor

    def spy(n, limit):
        limits.append(limit)
        return least_factor(n, limit)

    monkeypatch.setattr(groups, "_least_factor", spy)
    cases = [2, 3, 4, 65521**2, 4294967291, 2**32, 2**32 + 1, 4294967311]
    cases += [2**61 - 1, 10**30, 10**30 + 57, 318665857834031151167461]
    for n in cases:
        try:
            is_prime(n)
        except ParameterOutOfRange:
            pass
    assert len(limits) == len(cases)
    assert all(limit < 2**16 for limit in limits)
    assert max(limits) == 2**16 - 1


def test_prime_power_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(-2, 10**4):
        factors = sympy.factorint(n) if n >= 2 else {}
        expected = next(iter(factors.items())) if len(factors) == 1 else None
        assert prime_power(n) == expected, n


def test_cayley_text_round_trip(d6):
    text = format_cayley_text(d6)
    again = from_cayley_text(text)
    assert again == d6


@pytest.mark.parametrize("label", ["", "a b", "a\tb"], ids=["empty", "space", "tab"])
def test_cayley_text_refuses_a_name_it_cannot_read_back(label):
    # the names section is split on whitespace, so such a name would come
    # back as no label or as two, and the text would not parse
    group = from_cayley_table([[0, 1], [1, 0]], names=["e", label])
    with pytest.raises(ParseError) as info:
        format_cayley_text(group)
    assert str(info.value) == (
        f"element 1 has label {label!r}, which is not one token without whitespace"
    )


def test_cayley_text_without_names():
    table, names = parse_cayley_text("2\n0 1\n1 0\n")
    assert table == [[0, 1], [1, 0]]
    assert names is None


def test_cayley_text_names_may_wrap_lines():
    table, names = parse_cayley_text("2\n0 1\n1 0\nnames: e\nx\n")
    assert names == ["e", "x"]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "zero\n",
        "-1\n",
        "2\n0 1\n",
        "2\n0 1\n1 x\n",
        "2\n0 1 0\n1 0 1\n",
        "2\n0 1\n1 0\nnames: onlyone\n",
        "2\n0 1\n1 0\nstray line\n",
    ],
)
def test_cayley_text_parse_errors(text):
    with pytest.raises(ParseError):
        parse_cayley_text(text)


def _spelled(table, spell):
    lines = [str(len(table))] + [" ".join(map(spell, row)) for row in table]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "spell",
    [
        lambda k: f"+{k}",
        lambda k: f"0{k}",
        lambda k: f"{k:03d}",
        lambda k: "-0" if k == 0 else str(k),
        lambda k: "+1" if k == 1 else str(k),  # one odd token per row at most
    ],
    ids=["plus", "leading-zero", "three-digits", "minus-zero", "mixed"],
)
def test_cayley_text_reads_non_canonical_index_spellings(spell):
    table = s3_table()
    assert parse_cayley_text(_spelled(table, spell)) == (table, None)


@pytest.mark.parametrize(
    "text, message",
    [
        ("2\n0 1\n1 x\n", "row 1 contains a non-integer token"),
        ("2\n0 1\nx 1\n", "row 1 contains a non-integer token"),
        ("2\n0 1.0\n1 0\n", "row 0 contains a non-integer token"),
        ("2\n0 +1\n1 0x\n", "row 1 contains a non-integer token"),
    ],
)
def test_cayley_text_names_the_row_of_a_non_integer_token(text, message):
    with pytest.raises(ParseError) as info:
        parse_cayley_text(text)
    assert str(info.value) == message


def test_cayley_text_past_the_order_bound_is_refused_before_its_rows(monkeypatch):
    # the header alone decides: the junk rows are never read
    monkeypatch.setattr(groups, "_MAX_ORDER", 8)
    with pytest.raises(ParameterOutOfRange) as info:
        parse_cayley_text("9\n" + "junk\n" * 9)
    assert str(info.value) == "groups are built only up to 8 elements, got 9"
    # at the bound the rows are read, and junk is a row error
    with pytest.raises(ParseError) as info:
        parse_cayley_text("8\n" + "junk\n" * 8)
    assert str(info.value) == "row 0 contains a non-integer token"


@pytest.mark.parametrize(
    "text, row, message",
    [
        ("2\n0 1\n1 2\n", [1, 2], "entry (1,1) = 2 not in 0..1"),
        ("2\n0 1\n-1 0\n", [-1, 0], "entry (1,0) = -1 not in 0..1"),
        ("2\n0 1\n1 +02\n", [1, 2], "entry (1,1) = 2 not in 0..1"),
    ],
)
def test_cayley_text_keeps_an_out_of_range_index_for_the_validator(text, row, message):
    table, _ = parse_cayley_text(text)
    assert table == [[0, 1], row]
    with pytest.raises(IndexOutOfRange) as info:
        from_cayley_text(text)
    assert str(info.value) == message
