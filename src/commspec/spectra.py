"""Exact characteristic polynomials and integer spectra of adjacency matrices.

Everything here runs on arbitrary-precision integers; no floating point is
involved anywhere, so an "integral" verdict is a certificate rather than an
estimate.  A graph's spectrum is analysed one connected component at a
time: det(xI - A) is the product of the blocks' polynomials, so the
spectrum is the union of the blocks' spectra, and each distinct block is
computed, spot-checked and searched for integer roots once.  Each vertex
of the graph that is read may stand for z true twins.  A commuting graph is
read on the non-central cosets of its center Z, with z = |Z|, because the
members of a coset are true twins (``graphs.coset_graph``); its element
graph is never built for the verdict.  So a block C of c vertices stands
for a block A of k = c z vertices.  A's true twins (equal rows of A + I; in
a commuting graph, elements with the same centralizer) are merged first:
with r classes of sizes s_i, det(xI - A) = (x + 1)^(k - r) det(xI - Q) for
the r x r matrix Q = B' diag(s) - I, whose absolute row sums are those of
A, and Q is read off C (proof, with the coset identity, in
``_block_factor``), so a clique becomes one row.  Q is reduced to upper
Hessenberg form in one pass modulo M, the product of enough word-size
primes to exceed twice a proven bound on the coefficients, and the
symmetric residues are the integer coefficients (Cohen, "A Course in
Computational Algebraic Number Theory", the Hessenberg method; Dumas,
Pernet and Wan, "Efficient computation of the characteristic polynomial",
ISSAC 2005).  If no entry of some pivot column is a unit modulo M, Q is
instead reduced once per prime and rebuilt by the Chinese remainder
theorem.  The polynomial is then spot-checked against an independent
fraction-free Bareiss determinant at t in {0, 1, -1} of the c x c matrix
W = z(C + I) - I, which is C when z = 1.  Each row of tI - W first has the
row of the previous member of its twin class subtracted: a unit
lower-triangular change that keeps the determinant whatever the classes
are, so the check does not rely on the quotient, and that turns each twin
row into (t + 1)(e_i - e_j).  The elimination leaves a row stale while its
factor in the pivot column is zero, since such a step only rescales it by
a ratio of pivots; a stale row keeps the level of its last update and is
brought up to date in one exact division when it is next used (proof in
``exact_determinant``).  On a sparse block most row updates are skipped,
and a twin row is updated once.  Integer roots are found among the
divisors of the lowest nonzero coefficient, bounded by Q's largest row
sum, a degree of A.  Each distinct block is kept as a record (``Block``):
its size k, the number of blocks that share its submatrix, its number r of
twin classes and det(xI - Q).  A block is complete exactly when r = 1, so
the records are also the graph's component structure.  The whole graph's
polynomial is multiplied out from them only when it is read, with (x + 1)
raised once to the total number of merged twins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb, gcd
from operator import index as _exact_int
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    IncompleteSpectrumError,
    NonzeroDiagonalError,
    NotMonicError,
    NotSymmetricError,
    SpectralCheckError,
)
from .graphs import CommutingGraph, connected_components
from .groups import is_prime


@dataclass(frozen=True)
class CharPoly:
    """Monic integer polynomial det(xI - A), constant coefficient first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise NotMonicError("a polynomial needs at least one coefficient")
        if self.coeffs[-1] != 1:
            raise NotMonicError(f"leading coefficient is {self.coeffs[-1]}, not 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue/multiplicity pairs, eigenvalues strictly decreasing.

    ``complete`` is True when the multiplicities account for the whole
    polynomial degree.  Use :func:`spectrum_from_pairs` to canonicalize.
    """

    pairs: tuple[tuple[int, int], ...]
    complete: bool


def spectrum_from_pairs(
    pairs: Iterable[tuple[int, int]], complete: bool = True
) -> Spectrum:
    """Merge duplicate eigenvalues, drop empty entries, sort descending."""
    acc: dict[int, int] = {}
    for value, mult in pairs:
        if mult <= 0:
            continue
        acc[value] = acc.get(value, 0) + mult
    ordered = tuple(sorted(acc.items(), key=lambda p: -p[0]))
    return Spectrum(ordered, complete)


def spectrum_json(spectrum: Spectrum) -> list[dict]:
    return [{"value": v, "multiplicity": k} for v, k in spectrum.pairs]


@dataclass(frozen=True)
class Block:
    """One distinct connected block: ``size`` k vertices (c z for c
    vertices read that stand for z twins each), the ``count`` of connected
    blocks with this exact submatrix, and ``quotient``, the polynomial
    det(xI - Q) of its twin quotient (see ``_block_factor``)."""

    size: int
    count: int
    quotient: CharPoly

    @property
    def classes(self) -> int:
        """r, the number of twin classes: Q is r x r."""
        return self.quotient.degree


@dataclass(frozen=True)
class SpectralAnalysis:
    """Outcome of the exact integrality decision for one graph.

    ``blocks`` holds one record per distinct connected block.
    ``char_poly``, the product of the blocks' polynomials, is multiplied
    out on first read.  Equality leaves the records out: the spectrum and
    the remainder already determine the product.
    """

    integral: bool
    spectrum: Spectrum
    remainder: CharPoly
    blocks: tuple[Block, ...] = field(compare=False, repr=False)

    @cached_property
    def char_poly(self) -> CharPoly:
        return _blocks_product(self.blocks)

    @property
    def component_sizes(self) -> tuple[int, ...]:
        """The connected blocks' sizes, largest first."""
        sizes = (b.size for b in self.blocks for _ in range(b.count))
        return tuple(sorted(sizes, reverse=True))

    @property
    def all_cliques(self) -> bool:
        """Whether every connected block is complete: has one twin class.

        If every row of M = A + I equals row u, then M_uv = M_vv = 1 for
        every vertex v, so row u, and with it every row, is all ones;
        conversely a complete block's M is all ones, one class.
        """
        return all(b.classes == 1 for b in self.blocks)


def char_poly(matrix: Sequence[Sequence[int]]) -> CharPoly:
    """Exact characteristic polynomial det(xI - A) of a symmetric matrix.

    The matrix is split into the connected blocks of its support, and each
    distinct block is computed through its twin quotient and spot-checked
    once (``_block_factor``).  The block polynomials are then multiplied
    together, one factor per block (``_blocks_product``).  A failed check
    raises :class:`SpectralCheckError`.
    """
    # operator.index rejects floats, keeping the arithmetic exact
    a = [[_exact_int(v) for v in row] for row in matrix]
    n = len(a)
    for i, row in enumerate(a):
        if len(row) != n:
            raise NotSymmetricError(f"row {i} has {len(row)} entries, expected {n}")
    for i in range(n):
        if a[i][i] != 0:
            raise NonzeroDiagonalError(f"diagonal entry ({i},{i}) = {a[i][i]}")
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise NotSymmetricError(f"entries ({i},{j}) and ({j},{i}) differ")

    masks = tuple(sum(1 << j for j, v in enumerate(row) if v) for row in a)
    support = CommutingGraph(
        tuple(range(n)), masks, sum(m.bit_count() for m in masks) // 2
    )
    blocks = _distinct_blocks(
        support, lambda block: (tuple(a[i][j] for j in block) for i in block)
    )
    return _blocks_product(
        [Block(len(key), count, _block_factor(key)[0]) for key, count in blocks.items()]
    )


def _distinct_blocks(
    graph: CommutingGraph,
    rows: Callable[[tuple[int, ...]], Iterable[Sequence[int]]],
) -> dict[tuple[Sequence[int], ...], int]:
    """Each connected block's submatrix, with the number of blocks that have it.

    ``rows(block)`` yields the block's rows of the matrix restricted to the
    block's columns, as tuples or bytes of the entries.  Blocks are keyed by
    their exact submatrix, rows and columns in the block's sorted vertex
    order.  det(xI - B) is a function of B's entries, so two blocks with
    equal keys are the same matrix and share the coefficients that were
    proved and checked for it; a key never merges two different matrices.
    Isomorphic blocks whose vertex orders give different submatrices get
    different keys and are computed separately.  The keys live only for the
    caller's call.
    """
    counts: dict[tuple[Sequence[int], ...], int] = {}
    for block in connected_components(graph):
        key = tuple(rows(block))
        counts[key] = counts.get(key, 0) + 1
    return counts


def _block_factor(
    key: tuple[Sequence[int], ...], z: int = 1
) -> tuple[CharPoly, int]:
    """det(xI - Q) for the twin quotient Q of one block, and a root bound.

    The block is A = (C + I) (x) J_z - I: each of the c vertices of C, any
    symmetric integer matrix with a zero diagonal given by its rows, stands
    for z true twins (J_z is the z x z all-ones matrix).  With z = 1, A is
    C.  In a commuting graph, C is the graph on the non-central cosets of
    the center Z and z = |Z|: the members of a coset commute with each
    other and with exactly the members of the cosets their coset commutes
    with, so their rows of A + I are (C + I) (x) J_z.

    Coset identity: det(tI - A) = (t + 1)^(c(z - 1)) det(tI - W), with the
    c x c matrix W = z(C + I) - I.  Proof: J_z = V diag(z, 0, ..., 0) V^-1,
    where V's columns are the all-ones vector and e_1 - e_j for 1 < j <= z.
    Conjugating by I_c (x) V turns A + I into (C + I) (x) diag(z, 0, ..., 0),
    which a permutation of the basis makes z(C + I) (+) 0, so A is similar
    to W (+) -I_(c(z - 1)).

    Twin quotient: let W have r twin classes (equal rows of M = W + I =
    z(C + I), so the twin classes of C) of sizes s_1..s_r, P the c x r
    class-indicator matrix and B' the r x r matrix of M on one member per
    class.  M is symmetric, so equal rows give equal columns and M =
    P B' P^T, whose nonzero eigenvalues are those of B' P^T P = B' diag(s).
    So det(xI - W) = (x + 1)^(c - r) det(xI - Q), and det(xI - A) =
    (x + 1)^(cz - r) det(xI - Q), with Q = B' diag(s) - I: Q_ii = z s_i - 1,
    and Q_ij = z s_j C_uv for members u, v of classes i != j.  A member u's
    twins v have C_uv = 1, so row i of Q has the absolute sum of a row of A
    at u, z (sum of |C_uv| over v) + z - 1; the largest, returned second,
    bounds Q's eigenvalues and the coefficient bound of
    ``_multimodular_char_poly``, which needs no symmetry.  Q's polynomial is
    spot-checked against W (``_spot_check``), never expanded by
    (x + 1)^(cz - r); a failed check raises :class:`SpectralCheckError`.
    """
    labels = _twin_classes(key)
    quotient = _twin_quotient(key, labels, z)
    reduced = CharPoly(tuple(_multimodular_char_poly(quotient)))
    _spot_check(reduced, key, labels, z)
    return reduced, max(sum(map(abs, row)) for row in quotient)


def _multimodular_char_poly(a: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - A), ascending, from their residues modulo M.

    Bound: let R be the largest absolute row sum of the k x k matrix A.
    Every eigenvalue satisfies |lambda| <= R, and c_{k-i} = (-1)^i e_i(lambda)
    is a sum of C(k, i) products of i eigenvalues, so |c_{k-i}| <= C(k, i) R^i.
    These bounds sum to B = (R + 1)^k, which therefore bounds every
    coefficient.  M is the product of the largest primes below 2**62, taken
    until M exceeds 2B, so the symmetric residue in (-M/2, M/2] of a true
    coefficient is the coefficient itself.

    One Hessenberg pass over the ring Z/M gives every residue at once:
    a similarity by unit pivots preserves det(xI - A) over any commutative
    ring; the recurrence of ``_hessenberg_block_mod`` is a determinant
    expansion, so it needs no division; and splitting at a zero subdiagonal
    entry leaves a block-triangular determinant, the product of the
    diagonal blocks' determinants over any ring.  So the pass yields the
    true coefficients modulo M.  When some pivot column has nonzero entries
    but no unit modulo M, the pass gives up and the block is reduced once
    per prime instead.  Over the field Z/p every nonzero entry is a unit,
    so no prime is unlucky, and the residues are combined by Garner's
    algorithm into the same residues modulo M.
    """
    k = len(a)
    bound = (max((sum(abs(x) for x in row) for row in a), default=0) + 1) ** k
    primes = []
    modulus = 1
    while modulus <= 2 * bound:
        p = _crt_prime(len(primes))
        primes.append(p)
        modulus *= p
    coeffs = _char_poly_mod(a, modulus)
    if coeffs is None:
        coeffs = [0] * (k + 1)
        partial = 1
        for p in primes:
            # Garner step: the c mod partial*p with c = coeffs (mod partial)
            # and c = residue (mod p)
            inverse = pow(partial, -1, p)
            coeffs = [
                c + partial * ((r - c) * inverse % p)
                for c, r in zip(coeffs, _char_poly_mod(a, p))
            ]
            partial *= p
    half = modulus // 2
    return [c - modulus if c > half else c for c in coeffs]


def _char_poly_mod(a: list[list[int]], p: int) -> list[int] | None:
    """det(xI - A) mod p, ascending, from an upper Hessenberg form of A.

    p is any odd modulus.  Each pivot is the first entry of its column that
    is a unit mod p; when a column has nonzero entries but no unit, the
    reduction stops and returns None.  For a prime p that never happens.
    """
    n = len(a)
    h = [[x % p for x in row] for row in a]
    for m in range(1, n - 1):
        col = m - 1
        column = [h[i][col] for i in range(m, n)]
        pivot = next((i for i, x in enumerate(column, m) if gcd(x, p) == 1), None)
        if pivot is None:
            if any(column):
                return None
            continue
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        # Similarity by L = I - sum_i u_i e_i e_m^T: subtract u_i * row m from
        # each row i > m to clear column m-1 below the subdiagonal, then add
        # u_i * column i to column m.
        row_m = h[m]
        minus_inverse = p - pow(row_m[col], -1, p)
        tail = row_m[col:]
        targets = []
        factors = []
        for i in range(m + 1, n):
            row_i = h[i]
            if row_i[col]:
                minus_u = row_i[col] * minus_inverse % p
                row_i[col:] = [
                    (x + minus_u * y) % p for x, y in zip(row_i[col:], tail)
                ]
                targets.append(i)
                factors.append(p - minus_u)
        if targets:
            for row in h:
                added = sum([u * row[i] for i, u in zip(targets, factors)])
                row[m] = (row[m] + added) % p
    # A zero subdiagonal entry splits H into diagonal blocks whose
    # polynomials multiply.
    poly = [1]
    start = 0
    for end in range(1, n + 1):
        if end == n or h[end][end - 1] == 0:
            block = _hessenberg_block_mod(h, start, end, p)
            poly = [c % p for c in _poly_mul(block, poly)]
            start = end
    return poly


def _hessenberg_block_mod(
    h: list[list[int]], start: int, end: int, p: int
) -> list[int]:
    """det(xI - H) mod p for the diagonal block H[start:end, start:end].

    With q_t the polynomial of the leading t x t minor of the block,
    q_t = (x - h_tt) q_{t-1} - sum_{i<t} h_it (h_{i+1,i} ... h_{t,t-1}) q_{i-1}.
    """
    # columns[d] lists the x^d coefficients of q_d, q_{d+1}, ...
    columns = [[1]]
    for t in range(1, end - start + 1):
        g = start + t - 1
        weights = [0] * (t - 1)
        chain = 1
        for j in range(t - 2, -1, -1):
            chain = chain * h[start + j + 1][start + j] % p
            weights[j] = h[start + j][g] * chain % p
        diag = h[g][g]
        lower = 0
        for d in range(t):
            column = columns[d]
            last = column[-1]
            earlier = sum([w * c for w, c in zip(weights[d:], column)])
            column.append((lower - diag * last - earlier) % p)
            lower = last
        columns.append([1])
    return [column[-1] for column in columns]


# Odd primes below 2**62, largest first; extended on first use, never at import.
_CRT_PRIMES: list[int] = []


def _crt_prime(i: int) -> int:
    """The i-th largest prime below 2**62, counting from 0."""
    candidate = _CRT_PRIMES[-1] - 2 if _CRT_PRIMES else (1 << 62) - 1
    while len(_CRT_PRIMES) <= i:
        if is_prime(candidate):
            _CRT_PRIMES.append(candidate)
        candidate -= 2
    return _CRT_PRIMES[i]


def _twin_classes(a: Sequence[Sequence[int]]) -> list[int]:
    """Each row's class, numbered by first appearance.

    Rows i and j share a class when rows i and j of A + I are equal.  On an
    adjacency matrix those rows are closed neighbourhoods, so the classes
    are the true twins.
    """
    first: dict[tuple[int, ...], int] = {}
    return [
        first.setdefault((*row[:i], row[i] + 1, *row[i + 1 :]), len(first))
        for i, row in enumerate(a)
    ]


def _twin_quotient(
    a: Sequence[Sequence[int]], labels: Sequence[int], z: int
) -> list[list[int]]:
    """Q = z B'·diag(s) - I over C's twin classes ``labels``, C = ``a``
    (see ``_block_factor``): a class of s vertices holds z s elements."""
    first: dict[int, int] = {}
    sizes: list[int] = []
    for i, c in enumerate(labels):
        if first.setdefault(c, i) == i:
            sizes.append(0)
        sizes[c] += z
    return [
        [(a[i][j] + (i == j)) * s - (i == j) for j, s in zip(first.values(), sizes)]
        for i in first.values()
    ]


def _spot_check(
    quotient: CharPoly,
    a: Sequence[Sequence[int]],
    labels: Sequence[int],
    z: int = 1,
) -> None:
    """Check (t + 1)^(c - r) q(t) = det(tI - W) at t in {0, 1, -1} by
    Bareiss on the c x c matrix W = z(C + I) - I, C = ``a``, for
    q = ``quotient`` of degree r (see ``_block_factor``; with z = 1, W is C
    itself).

    Before each determinant, each row of tI - W has the row of the previous
    member of its class in ``labels`` (the twin classes) subtracted, both
    taken from tI - W.  That is a product by a unit lower-triangular
    matrix, so the determinant is the same whatever the labels are: wrong
    classes cannot hide a wrong polynomial, and the check stays independent
    of the twin quotient.  For true twins j < i the difference row is
    (t + 1)(e_i - e_j), which the lazy elimination updates once, at step j,
    before it becomes the pivot.
    """
    twins = len(a) - quotient.degree
    last: dict[int, int] = {}
    previous = []
    for i, c in enumerate(labels):
        previous.append(last.get(c, -1))
        last[c] = i
    # -W off the diagonal; the diagonal of tI - W, t + 1 - z, is added per t
    scale = -z
    negated = [[scale * x for x in row] for row in a]
    for t in (0, 1, -1):
        shifted = []
        for i, row in enumerate(negated):
            row = row.copy()
            row[i] += t + 1 - z
            shifted.append(row)
        reduced = [
            row if p < 0 else [x - y for x, y in zip(row, shifted[p])]
            for row, p in zip(shifted, previous)
        ]
        if (t + 1) ** twins * quotient.evaluate(t) != exact_determinant(reduced):
            raise SpectralCheckError(
                f"characteristic polynomial failed determinant check at t={t}"
            )


def exact_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Fraction-free Bareiss determinant over the integers, zero factors skipped.

    Bareiss elimination with row swaps: with P_k = a^(k)_kk the k-th pivot
    and P_-1 = 1, step k sets, for every row i > k and column j > k,
    a^(k+1)_ij = (P_k a^(k)_ij - a^(k)_ik a^(k)_kj) / P_(k-1).  Every
    a^(k)_ij is a minor of the row-swapped matrix (rows 0..k-1 and i,
    columns 0..k-1 and j), so every division is exact, and the determinant
    is the last pivot times the sign of the swaps.

    When the factor a^(k)_ik is zero the step only rescales row i by
    P_k / P_(k-1), so such a row is left stale: it keeps its level s, the
    number of steps that last updated it, and its entries a^(s)_ij.  Over
    the skipped steps the ratios telescope, a^(k)_ij = a^(s)_ij P_(k-1) /
    P_(s-1).  Hence:

    - a stale entry is zero exactly when the current one is, the pivots
      being nonzero, so the pivot search and the factor test read stale
      entries;
    - substituted into the step, the P_(k-1) cancels: a row with a nonzero
      factor becomes a^(k+1)_ij = (P_k a^(s)_ij - a^(s)_ik a^(k)_kj) /
      P_(s-1);
    - the pivot row is brought up to date as a^(k)_kj = a^(s)_kj P_(k-1) /
      P_(s-1); at the last step, k = n - 1, that gives the last pivot.

    Each quotient is a true Bareiss entry, so every division stays exact.
    A swap exchanges two rows not yet used as pivots, together with their
    levels, and leaves the minors of the pivot rows unchanged.
    """
    a = [list(map(_exact_int, row)) for row in matrix]
    n = len(a)
    for i, row in enumerate(a):
        if len(row) != n:
            raise NotSymmetricError(f"row {i} has {len(row)} entries, expected {n}")
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


def integer_spectrum(
    poly: CharPoly, max_abs_root: int
) -> tuple[Spectrum, CharPoly]:
    """Extract all integer roots with |root| <= max_abs_root.

    Roots at zero are peeled off by stripping trailing zero coefficients;
    the remaining candidates are scanned from +bound down to -bound and
    divided out by exact synthetic division to full multiplicity.  By the
    rational root theorem only divisors of the current constant term are
    tried; each quotient's constant term divides the one before, so no
    root is missed.  The returned remainder has no integer roots within
    the bound, and the spectrum is complete exactly when the remainder is
    constant.
    """
    desc = list(reversed(poly.coeffs))
    found: list[tuple[int, int]] = []

    zeros = 0
    while len(desc) > 1 and desc[-1] == 0:
        desc.pop()
        zeros += 1
    if zeros:
        found.append((0, zeros))

    for r in range(max_abs_root, -max_abs_root - 1, -1):
        if r == 0 or desc[-1] % r:
            continue
        mult = 0
        while len(desc) > 1:
            quotient, rem = _divide_linear(desc, r)
            if rem != 0:
                break
            desc = quotient
            mult += 1
        if mult:
            found.append((r, mult))

    remainder = CharPoly(tuple(reversed(desc)))
    spectrum = spectrum_from_pairs(found, complete=remainder.degree == 0)
    return spectrum, remainder


def _divide_linear(desc: list[int], r: int) -> tuple[list[int], int]:
    # synthetic division of a descending-coefficient polynomial by (x - r)
    out = [desc[0]]
    for c in desc[1:-1]:
        out.append(out[-1] * r + c)
    rem = out[-1] * r + desc[-1]
    return out, rem


def is_integral(graph: CommutingGraph, z: int = 1) -> SpectralAnalysis:
    """Decide integrality of the adjacency spectrum of the graph in which
    each vertex of ``graph`` stands for ``z`` true twins, exactly.

    With z = 1 that is ``graph`` itself.  A commuting graph is decided on
    its center's cosets (``graphs.coset_graph``) with z = |Z|: each block
    of c cosets stands for c z elements (``_block_factor``).  Each
    distinct connected block, read from the adjacency bitmasks, is reduced
    to its twin quotient Q, computed and spot-checked once.  Q's integer
    roots are found within its largest row sum, a vertex degree of the
    element graph, and -1 gains the k - r roots that the k = c z element
    vertices lost to their r twin classes.  The multiplicities add up over
    the blocks, and the remainder is the product of the block remainders:
    by unique factorisation of monic polynomials in Z[x] it is the product
    polynomial with every integer root divided out.  Each distinct block's
    record (``Block``), sized in element vertices, is kept in the result's
    ``blocks``.
    """
    adjacency = graph.adjacency
    blocks = _distinct_blocks(graph, lambda block: _bit_rows(adjacency, block))
    pairs: list[tuple[int, int]] = []
    records = []
    rests = []
    for key, count in blocks.items():
        quotient, bound = _block_factor(key, z)
        spectrum, rest = integer_spectrum(quotient, bound)
        size = len(key) * z
        pairs.append((-1, (size - quotient.degree) * count))
        pairs.extend((value, mult * count) for value, mult in spectrum.pairs)
        rests.append((rest.coeffs, count))
        records.append(Block(size, count, quotient))
    remainder = _power_product(rests)
    spectrum = spectrum_from_pairs(pairs, complete=len(remainder) == 1)
    return SpectralAnalysis(
        integral=spectrum.complete,
        spectrum=spectrum,
        remainder=CharPoly(tuple(remainder)),
        blocks=tuple(records),
    )


# maps the ASCII digits of a binary string to the bytes 0 and 1
_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bit_rows(adjacency: Sequence[int], block: tuple[int, ...]) -> Iterator[bytes]:
    """The block's rows of the 0/1 matrix of ``adjacency`` on its columns.

    Bit j of ``adjacency[i]`` is character n - 1 - j of its n-digit binary
    string, so one ``itemgetter`` per block picks the block's columns out of
    each row's digits, translated to the bytes 0 and 1.  A row's string is
    built only when the row is read.
    """
    n = len(adjacency)
    columns = [n - 1 - j for j in block]
    if len(columns) > 1:
        pick = itemgetter(*columns)
    else:  # itemgetter would return the one entry bare
        pick = lambda digits, c=columns[0]: digits[c : c + 1]  # noqa: E731
    for i in block:
        digits = format(adjacency[i], f"0{n}b").encode().translate(_BINARY_DIGITS)
        yield bytes(pick(digits))


def spectra_agree(a: Spectrum, b: Spectrum) -> bool:
    """Exact multiset equality of two complete spectra."""
    if not a.complete or not b.complete:
        raise IncompleteSpectrumError("can only compare complete spectra")
    return a.pairs == b.pairs


def _blocks_product(blocks: Sequence[Block]) -> CharPoly:
    """det(xI - A) from the records of A's distinct blocks.

    Each block contributes (x + 1)^(k - r) det(xI - Q), ``count`` times.
    The powers of x + 1 are pooled and expanded once, by the binomial
    theorem, and multiplied into the product of the Q polynomials.
    """
    twins = sum((b.size - b.classes) * b.count for b in blocks)
    factors = [(b.quotient.coeffs, b.count) for b in blocks]
    factors.append(([comb(twins, i) for i in range(twins + 1)], 1))
    return CharPoly(tuple(_power_product(factors)))


def _power_product(factors: Iterable[tuple[Sequence[int], int]]) -> list[int]:
    """The product of each coefficient list taken ``count`` times, ascending."""
    product = [1]
    for coeffs, count in factors:
        for _ in range(count):
            product = _poly_mul(product, coeffs)
    return product


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out
