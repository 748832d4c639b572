"""Reference code the tests compare the program against.

None of it is part of the package: each function computes, by the plainest
route, something the program reads off its own data (centralizers off the
center's cosets, spectra off the block records), or builds inputs that no
group yields (arbitrary graphs, Cayley-table text, a group whose table
cannot be read).  Only the text writer checks its argument, since a table
whose text does not read back would make a ``file:`` fixture test something
else; the tests pass well-formed input.
"""

from math import comb, gcd

from commspec.errors import ParseError
from commspec.graphs import CommutingGraph
from commspec.groups import CenterCosets, FiniteGroup
from commspec.spectra import (
    CharPoly,
    _hessenberg_block_mod,
    _poly_mul,
    spectrum_from_pairs,
)


def raw_graph(vertex_count, edges):
    """An arbitrary simple graph on positions 0..vertex_count-1 in the
    container the program's graphs use; repeated edges count once."""
    adj = [0] * vertex_count
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return CommutingGraph(tuple(range(vertex_count)), tuple(adj))


class _UnreadableTable:
    """Stands for an n-row table: it answers ``len()`` and raises on any
    read of a row, by index or by iteration, which goes through
    ``__getitem__`` for want of an ``__iter__``."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, index):
        raise AssertionError(f"the table was read at {index!r}")


def table_free(group):
    """A copy of ``group`` with the same names and generators whose table
    and generator rows cannot be read, holding the group's coset
    decomposition in its instance dict, where ``center_cosets`` finds it:
    what runs on the copy reads only the decomposition, the names, the
    generators and the order."""
    rows = _UnreadableTable(len(group.generators))
    copy = FiniteGroup(group.names, group.generators, rows)
    copy.__dict__["table"] = _UnreadableTable(group.order)
    copy.__dict__["center_cosets"] = group.center_cosets
    return copy


def table_center_cosets(table, gens):
    """The ``CenterCosets`` of a group read off its whole table: the center
    from the generators, each coset xZ from row x, in order of its
    smallest member, and the q^2 products of the smallest members."""
    n = len(table)
    z = tuple(x for x in range(n) if all(table[x][g] == table[g][x] for g in gens))
    coset_of = [-1] * n
    cosets = []
    for x in range(n):
        if coset_of[x] < 0:
            cosets.append(tuple(sorted(table[x][c] for c in z)))
            for m in cosets[-1]:
                coset_of[m] = len(cosets) - 1
    reps = [coset[0] for coset in cosets]
    products = tuple(tuple(table[r][s] for s in reps) for r in reps)
    commuting = tuple(
        sum(1 << j for j, s in enumerate(reps) if table[r][s] == table[s][r])
        for r in reps
    )
    return CenterCosets(tuple(coset_of), tuple(cosets), commuting, products)


def centralizer(group, x):
    """The elements commuting with ``x``, ascending, by comparing x's row
    and column of the table."""
    table = group.table
    return tuple(y for y in range(group.order) if table[x][y] == table[y][x])


def brute_force_center(group):
    """The elements commuting with every element, ascending, by comparing
    all n^2 pairs of the table."""
    table = group.table
    n = group.order
    return tuple(
        x for x in range(n) if all(table[x][y] == table[y][x] for y in range(n))
    )


def clique_union_spectrum(sizes):
    """Closed-form spectrum of a disjoint union of complete graphs.

    Each K_m contributes m - 1 once; the eigenvalue -1 is pooled with
    multiplicity sum(m_i) - l over the l cliques.
    """
    sizes = list(sizes)
    pairs = [(m - 1, 1) for m in sizes]
    pairs.append((-1, sum(sizes) - len(sizes)))
    return spectrum_from_pairs(pairs)


def poly_product(*polys):
    """The product of monic polynomials, by schoolbook multiplication."""
    coeffs = [1]
    for poly in polys:
        out = [0] * (len(coeffs) + poly.degree)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(poly.coeffs):
                out[i + j] += a * b
        coeffs = out
    return CharPoly(tuple(coeffs))


def expanded_char_poly(analysis):
    """The analysed graph's det(xI - A), multiplied out from its block
    records: each block's (x + 1)^(k - r) det(xI - Q), ``count`` times, with
    the powers of x + 1 pooled and expanded by the binomial theorem."""
    twins = sum((b.size - b.classes) * b.count for b in analysis.blocks)
    quotients = [b.quotient for b in analysis.blocks for _ in range(b.count)]
    binomials = CharPoly(tuple(comb(twins, i) for i in range(twins + 1)))
    return poly_product(*quotients, binomials)


def coefficient(poly, power):
    """The coefficient of x^power, 0 outside the polynomial's degree."""
    return poly.coeffs[power] if 0 <= power < len(poly.coeffs) else 0


def format_cayley_text(group):
    """The text ``groups.parse_cayley_text`` reads back into the same table
    and names.  A name that is not one token without whitespace would not
    read back, since the names section is split on whitespace, so it raises
    ``ParseError``."""
    for i, name in enumerate(group.names):
        if name.split() != [name]:
            raise ParseError(
                f"element {i} has label {name!r}, which is not one token "
                "without whitespace"
            )
    lines = [str(group.order)]
    lines.extend(" ".join(map(str, row)) for row in group.table)
    lines.append("names: " + " ".join(group.names))
    return "\n".join(lines) + "\n"


def closed_rows(a):
    """The rows of C + I for the square matrix C = ``a``, as a tuple of
    tuples: the matrix M that the spectral kernel reads, whose rows are
    closed neighbourhoods when C is an adjacency matrix."""
    return tuple(
        tuple(x + (i == j) for j, x in enumerate(row)) for i, row in enumerate(a)
    )


def row_sum_bound(a):
    """B = (R + 1)^k for a k x k matrix whose largest absolute row sum is R.

    Every eigenvalue has |lambda| <= R, and c_(k-i) = (-1)^i e_i(lambda) is
    a sum of C(k, i) products of i eigenvalues, so |c_(k-i)| <= C(k, i) R^i.
    These bounds sum to B, which therefore bounds every coefficient of
    det(xI - A), whether A is symmetric or not.
    """
    rows = (sum(abs(x) for x in row) for row in a)
    return (max(rows, default=0) + 1) ** len(a)


def dense_bareiss(a):
    """The determinant of the square integer matrix ``a``, by fraction-free
    Bareiss elimination on dense rows, which overwrites ``a``.  A row whose
    factor in the pivot column is zero is left stale at the level of its
    last update and brought up to date in one exact division when it is
    next used, so every step updates whole rows, zeros included."""
    n = len(a)
    sign = 1
    # divisors[s] = P_(s-1), the divisor of a row at level s
    divisors = [1]
    levels = [0] * n
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    levels[k], levels[i] = levels[i], levels[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = a[k]
        if levels[k] < k:
            scale, divisor = divisors[k], divisors[levels[k]]
            row_k[k:] = [x * scale // divisor for x in row_k[k:]]
        pivot = row_k[k]
        tail = row_k[k + 1 :]
        for i in range(k + 1, n):
            row_i = a[i]
            factor = row_i[k]
            if factor:
                divisor = divisors[levels[i]]
                row_i[k + 1 :] = [
                    (x * pivot - factor * y) // divisor
                    for x, y in zip(row_i[k + 1 :], tail)
                ]
                levels[i] = k + 1
        divisors.append(pivot)
    return sign * divisors[-1]


def dense_char_poly_mod(a, p, pivots=None):
    """det(xI - A) mod p, ascending, for a prime power p, by the Hessenberg
    pass that ``spectra._char_poly_mod`` makes, with every row and column
    operation applied to whole rows and columns, zeros included.  The pivot
    is the first unit of its column, or else the first entry of least
    g = gcd(x, p), which divides the column.  When ``pivots`` is a list,
    each step's g is appended to it."""
    n = len(a)
    h = [[x % p for x in row] for row in a]
    for m in range(1, n - 1):
        col = m - 1
        column = [h[i][col] for i in range(m, n)]
        if not any(column):
            continue
        g, pivot = min((gcd(x, p), i) for i, x in enumerate(column, m) if x)
        if pivots is not None:
            pivots.append(g)
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        row_m = h[m]
        minus_inverse = p - pow(row_m[col] // g, -1, p)
        tail = row_m[col:]
        targets = []
        factors = []
        for i in range(m + 1, n):
            row_i = h[i]
            if row_i[col]:
                minus_u = row_i[col] // g * minus_inverse % p
                row_i[col:] = [
                    (x + minus_u * y) % p for x, y in zip(row_i[col:], tail)
                ]
                targets.append(i)
                factors.append(p - minus_u)
        if targets:
            for row in h:
                added = sum([u * row[i] for i, u in zip(targets, factors)])
                row[m] = (row[m] + added) % p
    poly = [1]
    start = 0
    for end in range(1, n + 1):
        if end == n or h[end][end - 1] == 0:
            block = _hessenberg_block_mod(h, start, end, p)
            poly = [c % p for c in _poly_mul(block, poly)]
            start = end
    return poly
