"""Finite groups on 0-based element indices, given by the rows of a
generating set.

Element 0 is always the identity; the constructor relabels elements when the
identity sits elsewhere.  Every record here is an immutable
``typing.NamedTuple`` and all operations are pure functions, so groups and
derived data can be shared freely between workers.

A group is its names, Light's generating set S and the rows of S; the full
n x n table is composed only when asked for (``FiniteGroup.table``).  Every
group that is checked, whether the program makes it (a catalog family, or a
direct product of them, whose rule is made from its factors' rules) or a
table comes from outside (``from_cayley_table``), is proved a group by one
proof, ``_group``: ``_orbit`` walks the points under the rows of S, each
generator's column is derived along that walk (``_column``), and
multiplying by a generator on the left must commute with multiplying by
one on the right.  A table from outside must also give back, row by row,
what the walk composes, and the group then holds it; a catalog group is
never tabulated.  The central quotient needs no proof: its table is read
off the products of the center's coset representatives that the
decomposition keeps (``quotient_by_center``).
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
from typing import Callable, NamedTuple, Sequence, TextIO

from .errors import (
    AbelianGroupError,
    AxiomViolation,
    IndexOutOfRange,
    ParameterOutOfRange,
    ParseError,
)


# a tree edge of ``_orbit``: a point x and the row of a generator g, by
# which the walk reaches g*x
_Edge = tuple[int, tuple[int, ...]]


class _GroupFields(NamedTuple):
    names: tuple[str, ...]
    generators: tuple[int, ...]
    generator_rows: tuple[tuple[int, ...], ...]


class FiniteGroup(_GroupFields):
    """A finite group given by the rows of a generating set.

    Elements are the indices 0..n-1, named by ``names``, with 0 the
    identity.  ``generator_rows[i]`` is the row of ``generators[i]``: the
    products generators[i]*y for y in 0..n-1.  ``generators`` is Light's
    generating set S, which ``_orbit`` finds, or for a central quotient the
    cosets of the group's generators.  Use :func:`from_cayley_table` to
    build one from a table from outside, and ``catalog.build`` for a named
    family; both prove it a group in ``_group``.  The three fields are an
    immutable tuple, compared and hashed as one; the class also keeps an
    instance dict, which caches ``center_cosets``, the tree, the columns of
    the generators and, once asked for, ``table``.

    Every group has one tree, the edges of an ``_orbit`` walk of its
    points: ``table`` composes its rows along it, and every column is
    derived from it (``_column``).  A group ``_group`` proved keeps the tree
    of its proof and the generators' columns the proof derived.  Any other
    group walks on first use the rows it reads products from: its table if
    it holds one, as a central quotient does, and otherwise its generator
    rows, which must then hold those of Light's set.
    """

    @property
    def order(self) -> int:
        return len(self.names)

    @cached_property
    def _tree(self) -> list[_Edge]:
        held = self.__dict__.get("table")
        rows = held or dict(zip(self.generators, self.generator_rows))
        return _orbit(self.order, rows.__getitem__)[2]

    @cached_property
    def _columns(self) -> list[tuple[int, ...]]:
        return [_column(self.order, self._tree, h) for h in self.generators]

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The full n x n table: ``table[i][j]`` is the index of i*j.

        Composed on first use along the tree, and kept: row 0 is
        (0, 1, ..., n-1), and on each edge (x, row_g) the row of g*x is
        row_g o row_x, one ``itemgetter`` call.  A table from outside and a
        central quotient hold theirs from the start.  Only ``mul``,
        ``inverse``, ``element_order`` and the central quotient's shape
        recognition read it.
        """
        rows = [tuple(range(self.order))] * self.order  # row 0; the tree sets the rest
        for x, row in self._tree:
            rows[row[x]] = itemgetter(*rows[x])(row)  # edges exist only for n >= 2
        return tuple(rows)

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
    Associativity is then proved by ``_group``, which also builds the
    group.  The table's generator rows reach it only if they are
    permutations: a row g that is not names (g*g')*m != g*(g'*m), for g'
    the one right inverse of g and m a value missing from the row, since
    (g*g')*m = 0*m = m while g*(g'*m) lies in the row.
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

    def generator_row(g: int) -> tuple[int, ...]:
        row = rows[g]
        if len(set(row)) < n:
            raise _associativity(g, row.index(0), min(valid.difference(row)))
        return row

    return _group(name_list, generator_row, tuple(rows))


def _group(
    names: Sequence[str],
    generator_row: Callable[[int], tuple[int, ...]],
    table: tuple[tuple[int, ...], ...] | None = None,
) -> FiniteGroup:
    """Prove the named elements a group from the rows of a generating set,
    and wrap those rows: the one proof for every group that is checked.

    ``generator_row(g)`` is the row y -> g*y of g, and raises unless it
    holds exact ints, has g at column 0 and permutes 0..n-1.  Each source
    makes those checks in its own ``generator_row``: a catalog rule in
    ``catalog._check_generator_row``, a table from outside in
    ``from_cayley_table``, after the checks on the whole table.
    ``_orbit`` asks it for the rows of Light's generating set S and walks
    the points 0..n-1 under them.  Write L = <lambda_g : g in S> for the
    group of permutations the rows lambda_g: y -> g*y generate.  The walk
    reaches every point, so L is transitive.  Along the walk's tree each
    column rho_h: x -> x*h of a generator h is derived from rho_h(0) = h by
    rho_h(g*x) = lambda_g(rho_h(x)) (``_column``), and then
    lambda_g o rho_h == rho_h o lambda_g is checked for every g and h in S,
    rows in order and for each row the columns in order: |S|^2 pairs, each
    side one ``itemgetter`` call on an n-tuple at C speed, (g*y)*h for
    every y the column picked at the row and g*(y*h) the row picked at the
    column (there are generators only when n >= 2, so each call returns a
    tuple).  That proves the group, by the argument by which the
    centralizer of a transitive group is semiregular (Dixon & Mortimer,
    *Permutation Groups*, Thm 4.2A):

    - Each rho_h commutes with every element of L, which the lambda_g
      generate.  So the stabilizer L_0 of the point 0 fixes every h in S:
      for s in L_0, s(h) = s(rho_h(0)) = rho_h(s(0)) = rho_h(0) = h.
    - A point x = t(0), with t in L, has stabilizer L_x = t L_0 t^-1, as
      large as L_0, so L_0 fixes x iff L_x = L_0 iff t normalizes L_0.  So
      the points L_0 fixes, a block of L, are the images of 0 under the
      normalizer N of L_0 in L.  Each lambda_h sends 0 to h, which L_0
      fixes, so it lies in N; the lambda_h generate L, so N = L and L_0
      fixes every point.  Hence L_0 is trivial and L is regular.
    - Then x*y := l_x(y), with l_x the one element of L sending 0 to x, is
      a group law on 0..n-1 with identity 0: l_x o l_y sends 0 to l_x(y),
      so l_(x*y) = l_x o l_y.  It agrees with the rows of S, since
      l_g = lambda_g, and every rho_h derived above is its column h.

    A ``table`` must also be what the walk composes: on each tree edge
    (x, row_g) its row of g*x must be row_g o row_x, one ``itemgetter`` call
    compared and dropped, so no second table is built.  By induction along
    the tree every row of the table is then l_x, so the table is the law
    above and its columns of S are the derived ones.  A mismatch at m names
    (g*x)*m != g*(x*m).

    Conversely the rows of a group pass: the derivation follows its law,
    and left and right multiplication commute.  A failing commutation
    check names (g*y)*h != g*(y*h) in the table composed from the rows of S
    along the tree, as ``FiniteGroup.table`` composes it: the ``table``
    itself when one is given.  In a group |S| <= log2(n) (see ``_orbit``);
    on other tables |S| only grows, up to n.  The group keeps the tree, the
    derived columns and the ``table`` if one is given.
    """
    n = len(names)
    gens, rows, edges = _orbit(n, generator_row)
    if table is not None:
        for x, row in edges:
            composed = itemgetter(*table[x])(row)  # edges exist only for n >= 2
            if table[row[x]] != composed:
                m = next(m for m, v in enumerate(table[row[x]]) if v != composed[m])
                raise _associativity(row[0], x, m)
    columns = [_column(n, edges, h) for h in gens]
    right_of = [itemgetter(*column) for column in columns]
    for row in rows:
        left_of = itemgetter(*row)
        for column, right in zip(columns, right_of):
            if left_of(column) != right(row):
                y = next(y for y, v in enumerate(column) if row[v] != column[row[y]])
                raise _associativity(row[0], y, column[0])  # g*0 == g, 0*h == h
    group = FiniteGroup(tuple(names), tuple(gens), tuple(rows))
    group.__dict__.update(_tree=edges, _columns=columns)
    if table is not None:
        group.__dict__["table"] = table
    return group


def _associativity(x: int, y: int, z: int) -> AxiomViolation:
    """The error that names the triple (x*y)*z != x*(y*z)."""
    return AxiomViolation("associativity", f"({x}*{y})*{z} != {x}*({y}*{z})")


def _orbit(
    n: int, generator_row: Callable[[int], tuple[int, ...]]
) -> tuple[list[int], list[tuple[int, ...]], list[_Edge]]:
    """Light's generating set S, its rows, and a spanning tree of the
    points 0..n-1 under left multiplication by them.

    Walk the indices in order; one not yet reached becomes a generator g,
    with row ``generator_row(g)``.  A breadth-first closure from 0 maps
    each reached point x to g*x = row_g[x] for every generator g.  The set
    reached before g is closed under the older generators, so it is mapped
    by g first and only what is new is closed under all of them.  Each
    point y != 0 is reached along one edge (x, row_g), with y = row_g[x]
    and x reached first; ``edges`` lists them in the order the walk takes
    them.  Only points are visited: n*|S| lookups and no row is composed.

    The generators are Light's generating set (Clifford & Preston, *The
    Algebraic Theory of Semigroups* I, section 1.2): each is the first
    index outside the span of those before it.  In a group that span is
    the subgroup they generate, so the next index without a row lies
    outside it and the new subgroup is at least twice as large (Lagrange's
    theorem): |S| <= log2(n), and ``generator_row`` runs at most log2(n)
    times.
    """
    seen = [False] * n
    seen[0] = True
    reached = [0]
    gens: list[int] = []
    rows: list[tuple[int, ...]] = []
    edges: list[_Edge] = []
    for g in range(1, n):
        if seen[g]:
            continue
        row = generator_row(g)
        gens.append(g)
        rows.append(row)
        old = len(reached)
        for i, x in enumerate(reached):  # the loop also visits what it appends
            for step in (row,) if i < old else rows:
                y = step[x]
                if not seen[y]:
                    seen[y] = True
                    reached.append(y)
                    edges.append((x, step))
    return gens, rows, edges


def _column(n: int, edges: list[_Edge], t: int) -> tuple[int, ...]:
    """The column x -> x*t, derived along the tree of ``_orbit`` from
    0*t = t by (g*x)*t = g*(x*t): one lookup per point."""
    column = [t] * n
    for x, row in edges:
        column[row[x]] = row[column[x]]
    return tuple(column)


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

    One routine for every group.  Each column x -> x*c it needs, for c a
    generator or a central element, is derived along the group's tree
    (``_column``); the generators' columns are kept on the group.  The
    rows of the coset representatives are read from the table where the
    group holds one (a table from outside, or a central quotient), and
    otherwise composed from the generator rows: q compositions of n-tuples
    at C speed, not n.

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
    table = group.__dict__.get("table")
    edges, columns = group._tree, group._columns
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
                        shifts[c] = itemgetter(*_column(n, edges, c))
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
    generators = sorted({coset_of[g] for g in group.generators} - {0})
    rows = tuple(table[g] for g in generators)
    quotient = FiniteGroup(names, tuple(generators), rows)
    quotient.__dict__["table"] = table
    return quotient


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
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    if not lines:
        raise ParseError("empty Cayley-table text")
    n = _order(lines[0])
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
    tokens = " ".join(rest)[len("names:") :].split()
    if len(tokens) != n:
        raise ParseError(f"names section has {len(tokens)} labels, expected {n}")
    return table, tokens


def _order(line: str) -> int:
    """The order on the first line of a Cayley-table text, checked; the
    error shows the line's ``repr`` cut by ``_clip``, as the line may be of
    any length."""
    try:
        n = int(line)
    except ValueError:
        shown = _clip(repr(line), 50)
        raise ParseError(f"first line must be the order, got {shown}") from None
    if n <= 0:
        raise ParseError(f"order must be positive, got {n}")
    _check_order(n)
    return n


def _clip(text: str, width: int = 60) -> str:
    """``text`` as a message shows what it was given, which may be of any
    length: at most its first ``width`` characters, and "..." after them if
    it is longer."""
    return text if len(text) <= width else text[:width] + "..."


def from_cayley_text(text: str) -> FiniteGroup:
    table, names = parse_cayley_text(text)
    return from_cayley_table(table, names)


def load_cayley_file(path: str) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = _read_cayley_text(handle)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    return from_cayley_text(text)


# A Cayley-table file of order n is read no further than a cap of
# n^2 (d + 2) + n (_NAME_CHARS + 1) + _TEXT_SLACK characters: n^2 indices
# of at most d + 1 characters each, d the digits of n - 1 (so "+k" and "0k"
# fit), each with one blank or line end after it; n names of _NAME_CHARS
# characters each on average, each with a blank; and _TEXT_SLACK characters
# of whitespace slack for the order line, blank lines, the "names:" head
# and line ends.
_NAME_CHARS = 64
_TEXT_SLACK = 4096


def _read_cayley_text(handle: TextIO) -> str:
    """The text of a Cayley-table file, read no further than its order
    admits.

    Lines are read with ``readline(_TEXT_SLACK)`` up to the first that is
    not blank, which must come within the first _TEXT_SLACK characters and
    hold the order n (``_order``, which reads '' after only blanks).  The
    rest is read up to the cap for n in all; one more character raises
    ``ParseError``, so no file, however long, is read past the cap.  A text
    that ends before any line that is not blank is returned for
    ``parse_cayley_text`` to refuse.
    """
    head = ""
    while not head.strip() and len(head) < _TEXT_SLACK:
        line = handle.readline(_TEXT_SLACK)
        if not line:
            return head
        head += line
    n = _order(next(filter(None, map(str.strip, head.splitlines())), ""))
    cap = n * n * (len(str(n - 1)) + 2) + n * (_NAME_CHARS + 1) + _TEXT_SLACK
    text = head + handle.read(cap + 1 - len(head))
    if len(text) > cap:
        raise ParseError(
            f"a Cayley table of order {n} takes at most {cap} characters, "
            "and the text holds more"
        )
    return text
