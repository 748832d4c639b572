"""Finite groups as validated Cayley tables with 0-based element indices.

Element 0 is always the identity; the constructor relabels elements when the
identity sits elsewhere.  Every value here is immutable after construction
and all operations are pure functions, so groups and derived data can be
shared freely between workers.

Commutation is read off the cosets of the center Z, never off all n^2
pairs.  The center comes from the generating set S that the constructor
already builds for Light's test: x is central iff x*g == g*x for every g in
S, because the centralizer C(x) is a subgroup, so holding S means holding
the group S generates, which is all of it.  That costs O(n*|S|) lookups,
with |S| <= log2(n).  Commutation is constant on pairs of Z-cosets:
(xz)(yz') == (xy)(zz') and (yz')(xz) == (yx)(zz'), so xz and yz' commute
iff x and y do.  So the cosets are built once, on first use, and q^2 table
lookups over their representatives (q = n/|Z|) decide which pairs of cosets
commute; the result is kept on the group.  The center, the centralizers,
the central quotient, the commuting graph and the non-commuting search all
read that one decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt
from operator import itemgetter
from typing import Sequence

from .errors import (
    AbelianGroupError,
    AxiomViolation,
    IndexOutOfRange,
    ParameterOutOfRange,
    ParseError,
    QuotientError,
)


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``table[i][j]`` is the index of the product of elements i and j.
    Use :func:`from_cayley_table` to build one; it enforces the axioms.
    ``generators`` is a set of elements whose products give every element;
    it is derived from the table, so equality and hashing leave it out.
    """

    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    generators: tuple[int, ...] = field(compare=False)

    @property
    def order(self) -> int:
        return len(self.table)

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
        is decomposed once however many callers ask for it; it is not a
        field, so equality and hashing see the table only.
        """
        return _center_cosets(self.table, self.generators)

    @cached_property
    def commuting_masks(self) -> tuple[int, ...]:
        """Bit y of entry x is set iff x*y == y*x.

        A coset's mask is the union of the cosets that commute with it; all
        members of a coset share that one int.
        """
        decomposition = self.center_cosets
        coset_masks = decomposition.commuting_unions(
            [sum(1 << m for m in coset) for coset in decomposition.cosets]
        )
        return tuple(coset_masks[c] for c in decomposition.coset_of)


@dataclass(frozen=True)
class CenterCosets:
    """A group's partition into the cosets of its center Z.

    ``cosets[0]`` is Z; the other cosets follow in order of their smallest
    member, which is their representative.  Each coset is sorted, and
    ``coset_of[x]`` is the index of the coset holding x.  Bit j of
    ``commuting[i]`` is set iff the representatives of cosets i and j
    commute, which by the coset identity means every member of one commutes
    with every member of the other.
    """

    coset_of: tuple[int, ...]
    cosets: tuple[tuple[int, ...], ...]
    commuting: tuple[int, ...]

    def commuting_unions(self, bits: Sequence[int]) -> list[int]:
        """For each coset i, the union of ``bits[j]`` over the cosets j that
        commute with it: q^2 bit tests in all."""
        return [sum(bits[j] for j in _bits(row)) for row in self.commuting]


@dataclass(frozen=True)
class Center:
    """Sorted indices of the elements commuting with everything."""

    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Centralizer:
    """Sorted indices of the elements commuting with element ``of``."""

    of: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class QuotientGroup:
    """The quotient by the center, plus the element-to-coset map."""

    group: FiniteGroup
    coset_of: tuple[int, ...]
    cosets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Recognition:
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
    entry is an exact int (not a bool or a float) in 0..n-1, there are n
    names, there is a two-sided identity, and each element has exactly one
    right inverse.  If the two-sided identity is not element 0, the table
    is relabelled so that it is; messages name elements by their relabelled
    indices.  Associativity is then checked by Light's test in
    ``_associative_group``, which also builds the group.  The catalog's
    tables skip the earlier checks, which their construction already proves
    (see ``catalog._table``), and go through that last stage alone.
    """
    rows = [tuple(row) for row in table]
    n = len(rows)
    if n == 0:
        raise IndexOutOfRange("table is empty")
    valid = frozenset(range(n))
    for i, row in enumerate(rows):
        if len(row) != n:
            raise IndexOutOfRange(f"row {i} has {len(row)} entries, expected {n}")
        # a row of plain ints in range passes at once; any other row gets the
        # per-entry check, which rejects bools, floats and out-of-range values.
        # The set test is exact because every entry's type is exactly int, so
        # hashing and equality are int's own.
        if set(map(type, row)) == {int} and valid.issuperset(row):
            continue
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise IndexOutOfRange(f"entry ({i},{j}) = {v!r} not in 0..{n - 1}")

    if names is not None:
        name_list = [str(s) for s in names]
        if len(name_list) != n:
            raise IndexOutOfRange(f"{len(name_list)} names for {n} elements")
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

    return _associative_group(rows, name_list)


def _associative_group(
    rows: Sequence[tuple[int, ...]], names: Sequence[str]
) -> FiniteGroup:
    """Check associativity by Light's test and wrap the table.

    ``rows`` must be an n x n table of exact ints in 0..n-1 with element 0
    as its two-sided identity and exactly one 0 in each row (one right
    inverse per element), and ``names`` its n names; ``from_cayley_table``
    checks that and ``catalog._table`` proves it before either calls here.

    Light's test (Clifford & Preston, *The Algebraic Theory of Semigroups*
    I, section 1.2): walk the elements in index order and add each one
    that is not yet in the span (the closure of {identity} under right
    multiplication) to a generating set S, then check
    (x*g)*y == x*(g*y) for every x, every y and every g in S only, one row
    comparison per (x, g).  This is exact for any table with a two-sided
    identity.  Let A be the set of a with (x*a)*y == x*(a*y) for all x, y.
    A holds the identity, and A is closed under products: for a, b in A,
    (x*(a*b))*y == ((x*a)*b)*y == (x*a)*(b*y) == x*(a*(b*y))
    == x*((a*b)*y).  So A holds the span of S, which is every element, and
    the table is associative.  In a group each new generator at least
    doubles the span, so |S| <= log2(n) and the test costs O(n^2 log n)
    instead of O(n^3); on other tables |S| only grows, up to n.  The set S
    is kept on the group as its ``generators``.
    """
    gens = tuple(_generating_set(rows))
    for g in gens:
        # x*(g*y) for every y, as one tuple; a generator means n >= 2, so
        # itemgetter returns a tuple rather than a single entry
        right_of = itemgetter(*rows[g])
        for x, row_x in enumerate(rows):
            left = rows[row_x[g]]
            right = right_of(row_x)
            if left != right:
                y = next(y for y in range(len(left)) if left[y] != right[y])
                raise AxiomViolation(
                    "associativity", f"({x}*{g})*{y} != {x}*({g}*{y})"
                )

    return FiniteGroup(tuple(rows), tuple(names), gens)


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


def _center_cosets(
    table: tuple[tuple[int, ...], ...], gens: Sequence[int]
) -> CenterCosets:
    """The center from the generators, its cosets, and q^2 commutation lookups."""
    z = tuple(
        x for x, row in enumerate(table) if all(row[g] == table[g][x] for g in gens)
    )
    coset_of, cosets = _cosets(table, z)
    reps = [coset[0] for coset in cosets]
    commuting = tuple(
        sum(1 << j for j, b in enumerate(reps) if table[a][b] == table[b][a])
        for a in reps
    )
    return CenterCosets(coset_of, cosets, commuting)


def _cosets(
    table: Sequence[Sequence[int]], z: Sequence[int]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The cosets xZ of a subgroup Z, each sorted, and the element-to-coset
    map; Z itself is coset 0 and the rest follow their smallest member."""
    coset_of = [-1] * len(table)
    cosets: list[tuple[int, ...]] = []
    for x, row in enumerate(table):
        if coset_of[x] >= 0:
            continue
        members = tuple(sorted(row[zi] for zi in z))
        for m in members:
            coset_of[m] = len(cosets)
        cosets.append(members)
    return tuple(coset_of), tuple(cosets)


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def center(group: FiniteGroup) -> Center:
    """The elements commuting with every generator: the first coset."""
    return Center(group.center_cosets.cosets[0])


def centralizer(group: FiniteGroup, x: int) -> Centralizer:
    """All elements commuting with ``x``: the bits of its commutation mask."""
    if not 0 <= x < group.order:
        raise IndexOutOfRange(f"element {x} not in 0..{group.order - 1}")
    return Centralizer(x, tuple(_bits(group.commuting_masks[x])))


def centralizer_count(group: FiniteGroup) -> int:
    """Number of distinct centralizer subgroups (distinct commutation masks)."""
    return len(set(group.commuting_masks))


def quotient_by_center(group: FiniteGroup) -> QuotientGroup:
    """Quotient by the center, on the cosets the group already holds.

    The coset of the identity is index 0; the remaining cosets are ordered
    by their smallest element, so construction is deterministic.  Entry
    (i, j) of the quotient's table is the coset of r_i * r_j, where r_i is
    coset i's smallest member.

    That is well defined when Z is a normal subgroup, which is checked
    without touching all n^2 products.  A nonempty finite set closed under
    products is a subgroup, and closure costs |Z|^2 lookups.  If
    g*Z*g^-1 lies in Z for every generator g, it does for every element:
    each element is a product g_1*...*g_k of generators, and conjugating by
    it conjugates by g_k, then g_(k-1), and so on, each step staying in Z.
    Then (xZ)(yZ) == xyZ whatever the representatives.  A designated Z that
    fails either check raises ``QuotientError``.
    """
    z = center(group).members
    _check_normal_subgroup(group, z)
    table = group.table
    decomposition = group.center_cosets
    coset_of, cosets = decomposition.coset_of, decomposition.cosets
    if cosets[0] != z:  # center() was replaced and names another subgroup
        coset_of, cosets = _cosets(table, z)

    reps = [coset[0] for coset in cosets]
    q_table = [[coset_of[table[a][b]] for b in reps] for a in reps]
    q_names = tuple(
        "Z" if i == 0 else f"{group.names[r]}Z" for i, r in enumerate(reps)
    )
    quotient = from_cayley_table(q_table, q_names)
    return QuotientGroup(quotient, coset_of, cosets)


def _check_normal_subgroup(group: FiniteGroup, z: Sequence[int]) -> None:
    table = group.table
    inside = set(z)
    if not inside or any(table[a][b] not in inside for a in z for b in z):
        raise QuotientError("the designated subgroup is not closed under products")
    for g in group.generators:
        row_g, g_inv = table[g], group.inverse(g)
        if any(table[row_g[a]][g_inv] not in inside for a in z):
            raise QuotientError(
                "the designated subgroup is not normal, so coset products "
                "depend on representatives"
            )


def recognize_small(group: FiniteGroup) -> Recognition:
    """Recognize elementary abelian p x p and dihedral groups.

    Order-4 groups of exponent 2 satisfy both shapes; they are reported as
    ``zpzp`` with p = 2.  Everything else is ``other``.
    """
    n = group.order
    p = isqrt(n)
    if p * p == n and is_prime(p) and group.is_abelian():
        if all(group.element_order(x) == p for x in range(1, n)):
            return Recognition("zpzp", p)
    if n >= 4 and n % 2 == 0:
        m = n // 2
        rotations = [r for r in range(1, n) if group.element_order(r) == m]
        involutions = [s for s in range(1, n) if group.element_order(s) == 2]
        for r in rotations:
            r_inv = group.inverse(r)
            for s in involutions:
                if group.mul(group.mul(s, r), s) != r_inv:
                    continue
                if _generates(group, (r, s)):
                    return Recognition("dihedral", m)
    return Recognition("other")


def _generates(group: FiniteGroup, gens: Sequence[int]) -> bool:
    return len(_close(group.table, gens, {0})) == group.order


def _generating_set(rows: Sequence[Sequence[int]]) -> list[int]:
    """Greedy generating set: each element not yet in the span, in index order.

    The span is the closure of {0} (the identity) under right
    multiplication by the generators chosen so far.
    """
    gens: list[int] = []
    span = {0}
    for x in range(len(rows)):
        if x not in span:
            gens.append(x)
            _close(rows, gens, span)
    return gens


def _close(
    rows: Sequence[Sequence[int]], gens: Sequence[int], span: set[int]
) -> set[int]:
    """Grow ``span`` in place to its closure under right multiplication by
    ``gens`` (breadth-first search) and return it."""
    queue = list(span)
    for x in queue:  # the loop also visits what it appends
        row = rows[x]
        for g in gens:
            y = row[g]
            if y not in span:
                span.add(y)
                queue.append(y)
    return span


def max_noncommuting_set(group: FiniteGroup, cap: int | None = None) -> list[int]:
    """A maximum set of pairwise non-commuting elements.

    Exact branch-and-bound maximum clique in the non-commuting graph on the
    non-central elements (the complemented commutation masks), with a
    greedy-coloring bound.  Returns one witness as sorted element indices.

    With a ``cap`` the search stops as soon as the best set found has at
    least ``cap`` elements.  The result is still pairwise non-commuting, and
    it is maximum whenever it has fewer than ``cap`` elements.
    """
    if group.is_abelian():
        raise AbelianGroupError("every pair of elements commutes")
    full = (1 << group.order) - 1
    noncentral = full & ~sum(1 << z for z in center(group).members)
    adj = [noncentral & ~mask for mask in group.commuting_masks]
    best = _max_clique(adj, noncentral, group.order if cap is None else cap)
    return sorted(best)


def _max_clique(adj: list[int], cand: int, cap: int) -> list[int]:
    best: list[int] = []

    def color_order(cand: int) -> tuple[list[int], list[int]]:
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
        return order, bounds

    def expand(clique: list[int], cand: int) -> None:
        nonlocal best
        order, bounds = color_order(cand)
        for i in range(len(order) - 1, -1, -1):
            if len(best) >= cap or len(clique) + bounds[i] <= len(best):
                return
            v = order[i]
            clique.append(v)
            if len(clique) > len(best):
                best = clique[:]
            nxt = cand & adj[v]
            if nxt:
                expand(clique, nxt)
            clique.pop()
            cand &= ~(1 << v)

    expand([], cand)
    return best


# Miller-Rabin with the first 12 primes as bases is exact below _MR_BOUND, the
# least strong pseudoprime to all of them (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Exact primality: division by the 12 bases, then Miller-Rabin on them.

    An n at or above ``_MR_BOUND`` (about 3.2 * 10**23) that no base divides
    raises ``ParameterOutOfRange`` rather than risk a strong pseudoprime.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        raise ParameterOutOfRange(f"primes are tested only below {_MR_BOUND}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k and p prime, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            m = n
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return (n, 1)


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
    if len(lines) < n + 1:
        raise ParseError(f"expected {n} table rows, found {len(lines) - 1}")
    table: list[list[int]] = []
    for i in range(1, n + 1):
        parts = lines[i].split()
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


def format_cayley_text(group: FiniteGroup) -> str:
    lines = [str(group.order)]
    for row in group.table:
        lines.append(" ".join(str(v) for v in row))
    lines.append("names: " + " ".join(group.names))
    return "\n".join(lines) + "\n"
