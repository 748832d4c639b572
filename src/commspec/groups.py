"""Finite groups on 0-based element indices, given by the rows of a
generating set.

Element 0 is always the identity; the constructor relabels elements when the
identity sits elsewhere.  Every record here is an immutable
``typing.NamedTuple`` and all operations are pure functions, so groups and
derived data can be shared freely between workers.

A group is its names, Light's generating set S and the rows of S; the full
n x n table is composed only when asked for (``FiniteGroup.table``).  A
group the program makes itself (a catalog family, or a direct product of
them, whose rule is made from its factors' rules) is proved a group from
the rows of S alone by ``catalog._group``, and never tabulated.  A table
from outside goes through ``from_cayley_table``, which rebuilds it from its
own generator rows (``_walk``); the result must give back the table, which
the group then holds.  The central quotient walks nothing: its table is
read off the products of the center's coset representatives that the
decomposition keeps (``quotient_by_center``).  Associativity is checked at
the size of S: multiplying by a generator on the left must commute with
multiplying by one on the right (``_noncommuting_pair``).
Commutation is read off the cosets of the center Z, never off all n^2
pairs.  The center comes from S: x is central iff x*g == g*x for every g
in S, because the centralizer C(x) is a subgroup, so holding S means
holding the group S generates, which is all of it.  That costs O(n*|S|)
lookups, with |S| <= log2(n): ``zip`` turns S's rows into the tuples
(g*x for g in S) and S's columns into the tuples (x*g for g in S), so each
element costs one tuple comparison at C speed.  Commutation is constant on
pairs of Z-cosets: (xz)(yz') == (xy)(zz') and (yz')(xz) == (yx)(zz'), so
xz and yz' commute iff x and y do.  So the cosets are built once, on first
use, by a walk over them that composes the q = n/|Z| representatives' rows
(``_center_cosets``), and the q^2 products of the representatives are
picked from those rows once; they decide which pairs of cosets commute, and
they are kept with the cosets in the group's instance dict.  The center,
the centralizers, the central quotient, the commuting graph and the
non-commuting search all read that one decomposition, and none of them
reads a table after it; none holds a mask per element.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from math import isqrt
from operator import eq, itemgetter
from typing import Callable, NamedTuple, Sequence

from .errors import (
    AbelianGroupError,
    AxiomViolation,
    IndexOutOfRange,
    ParameterOutOfRange,
    ParseError,
)


class _GroupFields(NamedTuple):
    names: tuple[str, ...]
    generators: tuple[int, ...]
    generator_rows: tuple[tuple[int, ...], ...]


class FiniteGroup(_GroupFields):
    """A finite group given by the rows of a generating set.

    Elements are the indices 0..n-1, named by ``names``, with 0 the
    identity.  ``generator_rows[i]`` is the row of ``generators[i]``: the
    products generators[i]*y for y in 0..n-1.  ``generators`` is Light's
    generating set S, which the walks find (``catalog._orbit``,
    ``_walk``), or for a central quotient the cosets of the group's
    generators.  Use :func:`from_cayley_table` to build one from a table
    from outside, and ``catalog.build`` for a named family; both enforce the
    axioms.  The three fields are an immutable tuple, compared and hashed as
    one; the class also keeps an instance dict, which caches
    ``center_cosets`` and, once asked for, ``table``; a catalog group also
    keeps there the columns its proof derived.
    """

    @property
    def order(self) -> int:
        return len(self.names)

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The full n x n table: ``table[i][j]`` is the index of i*j.

        Composed on first use by ``_walk`` from the generator rows, and
        kept; a table from outside and a central quotient hold theirs from
        the start.  Only ``mul``, ``inverse``, ``element_order`` and the
        central quotient's shape recognition read it.
        """
        rows = dict(zip(self.generators, self.generator_rows))
        return tuple(_walk(self.order, rows.__getitem__)[0])

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.table[a].index(0)

    def element_order(self, a: int) -> int:
        acc = a
        k = 1
        while acc != 0:
            acc = self.table[acc][a]
            k += 1
        return k

    def is_abelian(self) -> bool:
        return len(self.center_cosets.cosets) == 1

    @cached_property
    def center_cosets(self) -> CenterCosets:
        """The cosets of the center and which of them commute.

        Stored in the instance dict on first use, so each group's relation
        is decomposed once however many callers ask for it; it is not one
        of the record's fields, so equality and hashing never see it.
        """
        return _center_cosets(self)


class CenterCosets(NamedTuple):
    """A group's partition into the cosets of its center Z.

    ``cosets[0]`` is Z; the other cosets follow in order of their smallest
    member, which is their representative.  Each coset is sorted, and
    ``coset_of[x]`` is the index of the coset holding x.  Bit j of
    ``commuting[i]`` is set iff the representatives of cosets i and j
    commute, which by the coset identity means every member of one commutes
    with every member of the other.  ``products[i][j]`` is the element
    r_i * r_j for the representatives r_i and r_j of cosets i and j: the
    q^2 products from which both ``commuting`` and the central quotient's
    table are read.
    """

    coset_of: tuple[int, ...]
    cosets: tuple[tuple[int, ...], ...]
    commuting: tuple[int, ...]
    products: tuple[tuple[int, ...], ...]


class Recognition(NamedTuple):
    """Result of small-catalog shape recognition.

    ``kind`` is ``"zpzp"`` (elementary abelian p x p, ``param`` = p),
    ``"dihedral"`` (order 2*param), or ``"other"``.
    """

    kind: str
    param: int = 0


def from_cayley_table(
    table: Sequence[Sequence[int]], names: Sequence[str] | None = None
) -> FiniteGroup:
    """Validate a multiplication table from outside and wrap it.

    Every check runs here, in this order: each row has n entries, each
    entry is an exact int in 0..n-1 (``_check_entries``), there are n
    distinct names (a repeated name would merge two vertices of the DOT
    export, and raises ``ParseError``), there is a two-sided identity, and
    each element has exactly one right inverse.  If the two-sided identity
    is not element 0, the table is relabelled so that it is; messages from
    the checks after that name elements by their relabelled indices.
    Associativity is then checked in ``_outside_associative_group``, which
    also builds the group.
    """
    rows = [tuple(row) for row in table]
    n = len(rows)
    if n == 0:
        raise IndexOutOfRange("table is empty")
    valid = frozenset(range(n))
    for i, row in enumerate(rows):
        if len(row) != n:
            raise IndexOutOfRange(f"row {i} has {len(row)} entries, expected {n}")
        _check_entries(i, row, valid)

    if names is not None:
        name_list = [str(s) for s in names]
        if len(name_list) != n:
            raise IndexOutOfRange(f"{len(name_list)} names for {n} elements")
        first: dict[str, int] = {}
        for j, name in enumerate(name_list):
            i = first.setdefault(name, j)
            if i != j:
                raise ParseError(f"elements {i} and {j} share the name {name!r}")
    else:
        name_list = [f"g{i}" for i in range(n)]

    ident = _find_identity(rows)
    if ident is None:
        raise AxiomViolation("identity", "no two-sided identity element")
    if ident != 0:
        rows, name_list = _swap_to_front(rows, name_list, ident)

    for i in range(n):
        hits = rows[i].count(0)
        if hits != 1:
            raise AxiomViolation(
                "inverse", f"element {i} has {hits} right inverses, expected 1"
            )

    return _outside_associative_group(rows, name_list)


def _outside_associative_group(
    rows: list[tuple[int, ...]], names: Sequence[str]
) -> FiniteGroup:
    """Check an outside table's associativity and wrap it.

    ``rows`` must be an n x n table of exact ints in 0..n-1 with element 0
    as its two-sided identity.  ``_walk`` rebuilds the table from its own
    generator rows, and the result must equal ``rows``: that is check (a)
    of ``_associative_group``, which then makes check (b).  A mismatch is
    reported at the first tree edge whose row differs; every row reached
    before that edge agrees, so the walk up to it is the same on both
    tables.
    """
    walked, gens, edges = _walk(len(rows), rows.__getitem__)
    if walked != rows:
        for x, h in edges:
            xh = rows[x][h]
            if walked[xh] != rows[xh]:
                m = next(m for m, v in enumerate(walked[xh]) if v != rows[xh][m])
                raise AxiomViolation(
                    "associativity", f"({x}*{h})*{m} != {x}*({h}*{m})"
                )
    return _associative_group(rows, names, gens)


def _walk(
    n: int, generator_row: Callable[[int], tuple[int, ...]]
) -> tuple[list[tuple[int, ...]], list[int], list[tuple[int, int]]]:
    """The rows of a table on 0..n-1 from the rows of a few generators.

    Returns the rows, the generators and the tree edges.  Row 0 is the
    identity row (0, 1, ..., n-1).  Walk the indices in order; one that has
    no row yet becomes a generator g, with row ``generator_row(g)``.  Every
    other row is composed from rows already known: row(x*h)[m] =
    x*(h*m) = row_x[row_h[m]], so the row of x*h is one ``itemgetter(*row_h)``
    call on the row of x, and x*h sits at row_x[h].  A breadth-first
    closure from 0 under right multiplication by the generators reaches
    every product of generators; the set reached before g is closed under
    the older generators, so it is multiplied by g first and only what is
    new is closed under all of them.  Each element x != 0 is reached along
    one tree edge (x', h) with x = x'*h and x' reached first; a generator g
    along (0, g).  ``edges`` lists them in the order the walk takes them,
    and every row but row 0 is row_x' o row_h on its tree edge (row 0 is
    the identity map), which is check (a) of ``_associative_group``.  The
    generators are Light's generating set (Clifford & Preston, *The
    Algebraic Theory of Semigroups* I, section 1.2): each is the first
    index outside the span of those before it.

    In a group the products of generators form a subgroup, since they are
    closed under products, so the next index without a row lies outside it
    and the new subgroup is at least twice as large (Lagrange's theorem):
    there are at most log2(n) generators, and ``generator_row`` runs at
    most log2(n) times.

    If every generator row holds exact ints in 0..n-1, permutes 0..n-1 and
    has g at column 0, so does every row, with column 0 the identity
    column:

    - Entries: every entry object of a composed row is picked out of a row
      already known, so by induction out of the identity row or a
      generator row; each is an exact int in 0..n-1.
    - Permutations: a composed row is row_x composed with the permutation
      row_h, and the identity row is a permutation, so by induction every
      row is a permutation of 0..n-1 and holds exactly one 0.
    - Identity: row 0 is (0, 1, ..., n-1), and by induction the row of
      x*h has row_x[row_h[0]] = row_x[h] = x*h at column 0.
    """
    rows: list[tuple[int, ...] | None] = [None] * n
    rows[0] = tuple(range(n))
    reached = [0]
    steps: list[tuple[int, itemgetter]] = []
    edges: list[tuple[int, int]] = []
    for g in range(1, n):
        if rows[g] is not None:
            continue
        rows[g] = generator_row(g)
        step = (g, itemgetter(*rows[g]))  # n >= 2 here, so it returns tuples
        steps.append(step)
        old = len(reached)
        reached.append(g)
        edges.append((0, g))
        for i, x in enumerate(reached):  # the loop also visits what it appends
            row_x = rows[x]
            for h, compose in (step,) if i < old else steps:
                xh = row_x[h]
                if rows[xh] is None:
                    rows[xh] = compose(row_x)
                    reached.append(xh)
                    edges.append((x, h))
    return rows, [g for g, _ in steps], edges


def _noncommuting_pair(
    rows: Sequence[tuple[int, ...]], columns: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The first row lambda_g and column rho_h, in order, with
    lambda_g o rho_h != rho_h o lambda_g, or None if every pair commutes.

    Each side is one ``itemgetter`` call on an n-tuple: (g*y)*h for every
    y is the column picked at the row, g*(y*h) the row picked at the
    column.  There are rows only when n >= 2, so each returns a tuple.
    """
    right_of = [itemgetter(*column) for column in columns]
    for row in rows:
        left_of = itemgetter(*row)
        for column, right in zip(columns, right_of):
            if left_of(column) != right(row):
                return row, column
    return None


def _check_entries(i: int, row: Sequence[int], valid: frozenset[int]) -> None:
    """Raise unless every entry of row ``i`` is an exact int in 0..n-1.

    Exact means of type int itself: a bool, an int subclass such as an
    ``IntEnum`` member, or a float fails.  A row of such entries in range
    passes with one set test, which is exact because every entry's type is
    int, so hashing and equality are int's own.
    """
    if set(map(type, row)) != {int} or not valid.issuperset(row):
        n = len(valid)
        j, v = next(
            (j, v) for j, v in enumerate(row) if type(v) is not int or not 0 <= v < n
        )
        raise IndexOutOfRange(f"entry ({i},{j}) = {v!r} not in 0..{n - 1}")


def _associative_group(
    rows: Sequence[tuple[int, ...]],
    names: Sequence[str],
    generators: Sequence[int],
) -> FiniteGroup:
    """Check associativity from commuting actions, and wrap the table in a
    group that holds it.

    ``rows`` must be an n x n table of exact ints in 0..n-1 with element 0
    as its two-sided identity, and ``names`` its n names; ``rows`` and
    ``generators`` must be the rows and the generating set S of a
    ``_walk``, so that every element x != 0 is reached along a tree edge
    x = y*h with h in S and y reached before x.

    Write L_x for the map y -> x*y (row x) and R_h for y -> y*h (column h).
    Associativity follows from two checks:

    (a) L_(y*h) == L_y o L_h on each of the n - 1 tree edges, which
        ``_walk`` makes true and ``_outside_associative_group`` checks by
        comparing an outside table with the walk's rows;
    (b) L_g o R_h == R_h o L_g, that is g*(y*h) == (g*y)*h for every y,
        for every g and h in S: |S|^2 tuple comparisons, made here by
        ``_noncommuting_pair`` on the columns of S picked from the table.

    They are exact.  By (a) and induction along the tree, every row is a
    composition of generator rows (L_0 is the identity map).  By (b) every
    such composition p commutes with every R_h, so with every composition
    R_w of them.  Every z is R_w(0) for the word w that spells its tree
    path, so two compositions p and p' with p(0) == p'(0) agree everywhere:
    p(z) = R_w(p(0)) = R_w(p'(0)) = p'(z).  For any x and y, L_(x*y) and
    L_x o L_y are both compositions of generator rows, and both send 0 to
    x*y, so they are equal: (x*y)*z == x*(y*z) for every z.  Conversely an
    associative table passes both checks, and a failing comparison names a
    triple that does not associate.  Only the two-sided identity is used.

    In a group |S| <= log2(n) (see ``_walk``), so (b) costs |S|^2
    comparisons of n-tuples at C speed, against the n*|S| row comparisons
    of Light's test; on other tables |S| only grows, up to n.  The set S is
    kept on the group as its ``generators``.
    """
    gens = tuple(generators)
    columns = [tuple(map(itemgetter(h), rows)) for h in gens]
    pair = _noncommuting_pair([rows[g] for g in gens], columns)
    if pair:
        row, column = pair
        g, h = row[0], column[0]  # g*0 == g and 0*h == h
        y = next(y for y, v in enumerate(column) if row[v] != column[row[y]])
        raise AxiomViolation("associativity", f"({g}*{y})*{h} != {g}*({y}*{h})")
    return _holding(tuple(rows), names, gens)


def _holding(
    table: tuple[tuple[int, ...], ...], names: Sequence[str], gens: Sequence[int]
) -> FiniteGroup:
    """The group of a checked table, holding it for ``FiniteGroup.table``."""
    group = FiniteGroup(tuple(names), tuple(gens), tuple(table[g] for g in gens))
    group.__dict__["table"] = table
    return group


def _find_identity(rows: list[tuple[int, ...]]) -> int | None:
    n = len(rows)
    straight = tuple(range(n))
    for e in range(n):
        if rows[e] == straight and all(rows[i][e] == i for i in range(n)):
            return e
    return None


def _swap_to_front(
    rows: list[tuple[int, ...]], names: list[str], e: int
) -> tuple[list[tuple[int, ...]], list[str]]:
    # new entry (i, j) is perm[rows[perm[i]][perm[j]]]: ``pick`` reads a
    # row at the permuted columns, and one itemgetter maps that through perm;
    # e != 0 means n >= 2, so both return tuples
    perm = list(range(len(rows)))
    perm[0], perm[e] = e, 0
    pick = itemgetter(*perm)
    new_rows = [itemgetter(*pick(row))(perm) for row in pick(rows)]
    return new_rows, list(pick(names))


def _center_cosets(group: FiniteGroup) -> CenterCosets:
    """The center from the generators, its cosets, and q^2 commutation lookups.

    One routine for every group; only the source of x*h, of x*c for a
    central c, and of the representatives' rows differs.  A catalog group
    keeps the columns x -> x*h of its generators h that its proof derived,
    and a function that derives any other column (``catalog._column``);
    it composes each row it needs from the generator rows: q compositions
    of n-tuples at C speed, not n.  Any other group picks the columns from
    its table, which it holds (a table from outside, or a central
    quotient) or walks on first use, and reads the rows there.

    x is central iff (x*h for h in S) equals (h*x for h in S), the column of
    x in S's rows, which ``zip`` transposes; the trivial group has no
    generators and its center is (0,).  The cosets are found by a
    breadth-first walk from Z under right multiplication by S, which
    reaches every coset, as S generates G.  From the row of a coset's
    representative, y = r*h starts a new coset unless it lies in one
    already found; the row of y is row_r composed with row_h, and its
    members are y*c = row_y[c] for c in Z.  The representative is the
    smallest member r' = y*c, and its row is row_y composed with the column
    x -> x*c, since (y*c)*m = y*(m*c) for central c; that column is made
    once per c that is needed, and not at all when y is the smallest
    member.  The cosets are then put in order of their representatives, Z
    first, and the q^2 products of the representatives are picked from
    their rows and kept; they are transposed by ``zip`` and compared
    element by element, all at C speed.
    """
    n, gens, rows = group.order, group.generators, group.generator_rows
    derived = group.__dict__.get("_columns")
    table = None if derived else group.table
    if derived:
        columns, column_of = derived
    else:

        def column_of(c: int) -> tuple[int, ...]:
            return tuple(map(itemgetter(c), table))

        columns = list(map(column_of, gens))
    # row_r o row_h is the row of r*h; n >= 2 where S is not empty
    steps = list(zip(gens, [itemgetter(*row) for row in rows]))
    z = tuple(compress(range(n), map(eq, zip(*columns), zip(*rows)))) if gens else (0,)
    pick_z = _tuple_picker(z)
    coset_of = [-1] * n  # the representative of each element's coset, once found
    for c in z:
        coset_of[c] = 0
    row_of = {0: tuple(range(n))}  # the row of each representative
    walk = [row_of[0]]
    shifts: dict[int, itemgetter] = {}
    for row in walk:  # the loop also visits what it appends
        for h, step in steps:
            y = row[h]
            if coset_of[y] < 0:
                row_y = table[y] if table else step(row)
                ys = pick_z(row_y)
                r = min(ys)
                if r != y:
                    c = z[ys.index(r)]
                    if c not in shifts:
                        shifts[c] = itemgetter(*column_of(c))
                    row_y = shifts[c](row_y)
                for m in ys:
                    coset_of[m] = r
                row_of[r] = row_y
                walk.append(row_y)
    reps = sorted(row_of)
    index = [0] * n
    for i, r in enumerate(reps):
        index[r] = i
    rep_rows = list(map(row_of.__getitem__, reps))
    pick = _tuple_picker(reps)
    products = tuple(map(pick, rep_rows))  # products[i][j] = r_i * r_j
    # bit j of row i is r_i*r_j == r_j*r_i: byte q - 1 - j of the reversed
    # comparison, read as a binary numeral
    commuting = tuple(
        int(bytes(map(eq, row, column))[::-1].translate(_DIGITS), 2)
        for row, column in zip(products, zip(*products))
    )
    coset_of = tuple(map(index.__getitem__, coset_of))
    cosets = tuple(tuple(sorted(pick_z(row))) for row in rep_rows)
    return CenterCosets(coset_of, cosets, commuting, products)


# maps the bytes 0 and 1 to the ASCII digits of a binary numeral
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _tuple_picker(indices: Sequence[int]) -> Callable[[Sequence], Sequence]:
    """``itemgetter(*indices)``, but a sequence also for one index, where
    ``itemgetter`` would return the entry bare: the slice of that entry, a
    tuple when the sequence read is one."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1))


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def center(group: FiniteGroup) -> tuple[int, ...]:
    """The sorted elements commuting with every generator: the first coset."""
    return group.center_cosets.cosets[0]


def centralizer_count(group: FiniteGroup) -> int:
    """Number of distinct centralizer subgroups.

    C(x) is the union of the cosets that commute with x's coset, and the
    cosets are disjoint and nonempty, so two centralizers are equal iff
    their cosets' rows of ``CenterCosets.commuting`` are.
    """
    return len(set(group.center_cosets.commuting))


def quotient_by_center(group: FiniteGroup) -> FiniteGroup:
    """The quotient G/Z by the center, on the cosets the group already holds.

    Element i of the quotient is coset i of ``group.center_cosets``: the
    center Z is element 0, named ``"Z"``, and every other coset is named
    after its smallest member r_i, as ``"{name}Z"``.  Entry (i, j) of the
    table is the coset of r_i * r_j, read from the q^2 products of the
    representatives that the decomposition keeps (``CenterCosets.products``),
    so the group's own table is not read.  It does not depend on
    the representatives: Z is central, so (r_i z)(r_j z') = (r_i r_j)(z z')
    for any z and z' in Z, and z z' lies in Z.  G is a verified group and Z
    its center, so G/Z is a group and its table needs no check of its own.
    The generators are the distinct non-central cosets of G's generators:
    G's generators give every element, so their cosets give every coset.
    """
    decomposition = group.center_cosets
    coset_of = decomposition.coset_of
    table = tuple(_tuple_picker(row)(coset_of) for row in decomposition.products)
    names = ("Z", *(f"{group.names[c[0]]}Z" for c in decomposition.cosets[1:]))
    generators = {coset_of[g] for g in group.generators} - {0}
    return _holding(table, names, sorted(generators))


def recognize_small(group: FiniteGroup) -> Recognition:
    """Recognize elementary abelian p x p and dihedral groups.

    Order-4 groups of exponent 2 satisfy both shapes; they are reported as
    ``zpzp`` with p = 2.  Everything else is ``other``.  Each element's
    order is computed once, and the group's center is never asked for.

    A group of order p^2 is Z_p x Z_p iff every element but the identity
    has order p.  It needs no test of commutativity: a group of order p^2
    is abelian.  Its center is nontrivial, as the class equation makes the
    center's order a multiple of p, so G/Z has order 1 or p and is cyclic,
    say generated by gZ.  Then every element is g^i z with z central, and
    any two such elements commute, so Z is all of G.

    A group of order 2m is dihedral iff it has an r of order m and an
    involution s with s*r*s == r^-1 that together generate it.  No closure
    is needed to test the last condition: s normalises <r>, so <r, s> =
    <r><s> has 2m/|<r> & <s>| elements.  If s lies in <r>, s commutes with
    r, so r^-1 = s*r*s = r, hence m = 2 and s = r, the only involution in
    <r>.  So <r, s> is the whole group exactly when s != r.
    """
    n = group.order
    p = isqrt(n)
    square = p * p == n and is_prime(p)
    orders = [group.element_order(x) for x in range(n)] if square or n % 2 == 0 else []
    if square and all(o == p for o in orders[1:]):
        return Recognition("zpzp", p)
    if n >= 4 and n % 2 == 0:
        m = n // 2
        involutions = [s for s, o in enumerate(orders) if o == 2]
        for r in (r for r, o in enumerate(orders) if o == m):
            r_inv = group.inverse(r)
            for s in involutions:
                if s != r and group.mul(group.mul(s, r), s) == r_inv:
                    return Recognition("dihedral", m)
    return Recognition("other")


def max_noncommuting_set(group: FiniteGroup, cap: int | None = None) -> list[int]:
    """A maximum set of pairwise non-commuting elements.

    Two members of one coset of the center commute, and commutation is
    constant on pairs of cosets, so a non-commuting set holds at most one
    member per coset and its size is that of a set of pairwise
    non-commuting cosets.  The search is an exact branch-and-bound maximum
    clique on the q - 1 non-central cosets (the complemented rows of
    ``CenterCosets.commuting``), with a greedy-coloring bound.  Returns one
    witness: the smallest member of each chosen coset, sorted.

    With a ``cap`` the search stops as soon as the best set found has at
    least ``cap`` elements.  The result is still pairwise non-commuting, and
    it is maximum whenever it has fewer than ``cap`` elements.
    """
    if group.is_abelian():
        raise AbelianGroupError("every pair of elements commutes")
    decomposition = group.center_cosets
    q = len(decomposition.cosets)
    noncentral = (1 << q) - 2  # every coset but the center, coset 0
    adj = [noncentral & ~row for row in decomposition.commuting]
    best = _max_clique(adj, noncentral, q if cap is None else cap)
    return sorted(decomposition.cosets[i][0] for i in best)


def _max_clique(adj: list[int], cand: int, cap: int) -> list[int]:
    """Branch and bound on the vertex bitmask ``cand`` with a greedy
    coloring bound.

    Each frame of the stack extends one clique: the color order of its
    candidates, their color bounds and the candidates still open.  The
    last vertex in color order is tried first, as a recursive search would
    try it, so the witness is the same; the stack is as deep as the clique,
    and no recursion limit caps it.
    """

    def frame(cand: int) -> list:
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                bit = 1 << v
                avail &= ~(adj[v] | bit)
                rest &= ~bit
                order.append(v)
                bounds.append(color)
        return [order, bounds, cand]

    best: list[int] = []
    clique: list[int] = []
    frames = [frame(cand)]  # frames[k + 1] extends clique[:k + 1]
    while frames:
        top = frames[-1]
        order, bounds, cand = top
        if not order or len(best) >= cap or len(clique) + bounds[-1] <= len(best):
            frames.pop()
            if frames:
                clique.pop()
            continue
        v = order.pop()
        bounds.pop()
        top[2] = cand & ~(1 << v)
        clique.append(v)
        if len(clique) > len(best):
            best = clique[:]
        frames.append(frame(cand & adj[v]))
    return best


# Groups are built only up to _MAX_ORDER elements.  A table from outside
# holds n^2 entries, 2**26 at the bound, and larger tables would end in a
# MemoryError rather than in a typed error.  A catalog group holds no table,
# but keeps the same bound until a workload measures a larger one.
_MAX_ORDER = 2**13


def _check_order(n: int) -> None:
    """Raise ``ParameterOutOfRange`` if a group of order n is too large to
    build: n above ``_MAX_ORDER``.  An n of more than 64 bits is shown
    as the power of 2 it reaches, as its digits may be too many to print."""
    if n > _MAX_ORDER:
        shown = n if n.bit_length() <= 64 else f"at least 2**{n.bit_length() - 1}"
        raise ParameterOutOfRange(
            f"groups are built only up to {_MAX_ORDER} elements, got {shown}"
        )


# Primes are decided by trial division below _PRIME_BOUND: every composite
# there has a factor below 2**16, so ``is_prime`` makes at most 2**16 - 1
# divisions.  A prime parameter at or above it would name a group of at
# least 2**64 elements, which no command can build.
_PRIME_BOUND = 2**32


def _least_factor(n: int, limit: int) -> int:
    """The least d in 2..limit that divides n, or n if none does."""
    for d in range(2, limit + 1):
        if n % d == 0:
            return d
    return n


def is_prime(n: int) -> bool:
    """Exact primality by trial division below ``_PRIME_BOUND`` (2**32).

    Every n is divided by each d in 2..isqrt(min(n, 2**32 - 1)), at most
    2**16 - 1 divisions.  Below the bound that decides n exactly.  At or
    above it, an n with a factor below 2**16 is not prime, and any other n
    raises ``ParameterOutOfRange``: a family with such a prime parameter has
    at least 2**64 elements.
    """
    if n < 2 or _least_factor(n, isqrt(min(n, _PRIME_BOUND - 1))) < n:
        return False
    if n >= _PRIME_BOUND:
        raise ParameterOutOfRange(f"primes are tested only below 2**32, got {n}")
    return True


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k and p prime, or None."""
    if n < 2:
        return None
    p = _least_factor(n, isqrt(n))
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


# Cayley-table text format: line 1 holds n, the next n lines hold n
# space-separated 0-based indices, and an optional trailing "names:" section
# holds n whitespace-separated labels.  Element 0 must be the identity.


def parse_cayley_text(text: str) -> tuple[list[list[int]], list[str] | None]:
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise ParseError("empty Cayley-table text")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"first line must be the order, got {lines[0]!r}") from None
    if n <= 0:
        raise ParseError(f"order must be positive, got {n}")
    _check_order(n)
    if len(lines) < n + 1:
        raise ParseError(f"expected {n} table rows, found {len(lines) - 1}")
    # the canonical spelling of each index, read by lookup; any other token
    # goes through int(), which also accepts "007", "+3" and "-0"
    canonical = {str(k): k for k in range(n)}.__getitem__
    table: list[list[int]] = []
    for i in range(1, n + 1):
        parts = lines[i].split()
        try:
            row = list(map(canonical, parts))
        except KeyError:
            try:
                row = [int(tok) for tok in parts]
            except ValueError:
                raise ParseError(f"row {i - 1} contains a non-integer token") from None
        if len(row) != n:
            raise ParseError(f"row {i - 1} has {len(row)} entries, expected {n}")
        table.append(row)
    rest = lines[n + 1 :]
    if not rest:
        return table, None
    if not rest[0].startswith("names:"):
        raise ParseError(f"unexpected trailing line {rest[0]!r}")
    tokens = rest[0][len("names:") :].split()
    for line in rest[1:]:
        tokens.extend(line.split())
    if len(tokens) != n:
        raise ParseError(f"names section has {len(tokens)} labels, expected {n}")
    return table, tokens


def from_cayley_text(text: str) -> FiniteGroup:
    table, names = parse_cayley_text(text)
    return from_cayley_table(table, names)


def load_cayley_file(path: str) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    return from_cayley_text(text)
