"""Reference code the tests compare the program against.

None of it is part of the package: each function computes, by the plainest
route, something the program reads off its own data (centralizers off the
center's cosets, spectra off the block records), or builds inputs that no
group yields (arbitrary graphs, Cayley-table text).  Only the text writer
checks its argument, since a table whose text does not read back would make
a ``file:`` fixture test something else; the tests pass well-formed input.
"""

from commspec.errors import ParseError
from commspec.graphs import CommutingGraph
from commspec.spectra import CharPoly, spectrum_from_pairs


def raw_graph(vertex_count, edges):
    """An arbitrary simple graph on positions 0..vertex_count-1 in the
    container the program's graphs use; repeated edges count once."""
    adj = [0] * vertex_count
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    edge_count = sum(row.bit_count() for row in adj) // 2
    return CommutingGraph(tuple(range(vertex_count)), tuple(adj), edge_count)


def centralizer(group, x):
    """The elements commuting with ``x``, ascending, by comparing x's row
    and column of the table."""
    table = group.table
    return tuple(y for y in range(group.order) if table[x][y] == table[y][x])


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
