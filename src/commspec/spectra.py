"""Exact characteristic polynomials and integer spectra of adjacency matrices.

Everything here runs on arbitrary-precision integers; no floating point is
involved anywhere, so an "integral" verdict is a certificate rather than an
estimate.  One kernel, ``_block_factor``, takes the rows of M = C + I, for
C a symmetric integer matrix with a zero diagonal, to the proved and
spot-checked polynomial of C's twin quotient.  In a commuting graph x and
y are adjacent when xy = yx, a reflexive relation: M is that relation, and
each row of M is an element's centralizer, its closed neighbourhood.
Every step of the kernel reads M, so each caller builds M once and no step
corrects the diagonal.  ``is_integral`` reads a graph one connected block
at a time: det(xI - A) is the product of the blocks' polynomials, so the
spectrum is the union of the blocks' spectra, and each distinct block goes
through the kernel and is searched for integer roots once.  ``char_poly``
sends its whole matrix through the kernel in one call.  Each vertex of the
graph that is read may stand for z true twins.  A commuting graph is read
on the non-central cosets of its center Z, with z = |Z|, because the
members of a coset are true twins (``graphs.coset_graph``); its element
graph is never built for the verdict.  So a block C of c vertices stands
for a block A of k = c z vertices, with A + I = M (x) J_z.  A's true twins
(equal rows of A + I; in a commuting graph, elements with the same
centralizer) are merged first, and they are the equal rows of M: with r
classes of sizes s_i, det(xI - A) = (x + 1)^(k - r) det(xI - Q) for the
r x r matrix Q = z B' diag(s) - I, B' the rows of M on one member per
class, whose absolute row sums are those of A (proof, with the coset
identity, in ``_block_factor``), so a clique becomes one row.  The classes
are lists of M's row indices, each in ascending order and the lists in
order of their first member.  Q's eigenvalues are real, so its
coefficients' absolute values sum to at most (S + 1)^r, with
r S^2 >= tr(Q^2) (Maclaurin's inequality; proof in ``_block_factor``).  Q
is reduced to upper Hessenberg form in one pass modulo the least power of
the Mersenne prime 2^61 - 1 that exceeds twice that bound, and the
symmetric residues are the integer coefficients (Cohen, "A Course in
Computational Algebraic Number Theory", the Hessenberg method; Dumas,
Pernet and Wan, "Efficient computation of the characteristic polynomial",
ISSAC 2005).  Modulo a prime power every nonzero entry is a power of the
prime times a unit, so a column without a unit pivots on its entry of
least power, which divides the rest, and the pass never stalls.  The
pass's row and column operations touch only the nonzero entries of the
pivot row and of the target columns.  The polynomial is then spot-checked
against an independent fraction-free Bareiss determinant at t in
{0, 1, 2} of the c x c matrix W = zM - I, which is C when z = 1, its
vertices put in ascending order of their nonzero counts when M has more
than one twin class, so that the sparsest rows are eliminated first.  Each
row of tI - W first has the row of the next member of its twin class
subtracted, when the two rows of M are equal: a unit upper-triangular
change that keeps the determinant whatever the classes are, so the check
does not rely on the quotient, and that turns each such row into
(t + 1)(e_i - e_j).  So t = -1 would check nothing on a block with twins:
both sides are 0 there.  The last member of each class keeps its row and
is eliminated after the others, so a clique costs O(c) updates per point,
not O(c^2).  The elimination keeps each row as its nonzero entries and
updates only the columns where the pivot row is nonzero, since a step only
rescales every other entry by a ratio of pivots; a skipped entry keeps its
own level, the step that last wrote it, and is brought up to date in one
exact division when it is next read (proof in ``exact_determinant``).
Integer roots are found among the divisors of the lowest nonzero
coefficient, bounded by Q's largest row sum, a degree of A.  Each distinct
block is kept as a record (``Block``): its size k, the number of blocks
that share its submatrix, its number r of twin classes and det(xI - Q).  A
block is complete exactly when r = 1, so the records are also the graph's
component structure.  Calls that share a ``memo`` share their blocks too,
keyed on the block's M and on z, since the matrix read depends on both:
one ``suite`` run proves each distinct block once across all its groups.
"""

from __future__ import annotations

from itertools import compress
from math import comb, gcd, isqrt
from operator import itemgetter, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    NonzeroDiagonalError,
    NotMonicError,
    NotSymmetricError,
    ParameterOutOfRange,
    SpectralCheckError,
)
from .graphs import CommutingGraph, connected_components
from .groups import _tuple_picker


class _CharPolyFields(NamedTuple):
    coeffs: tuple[int, ...]


class CharPoly(_CharPolyFields):
    """Monic integer polynomial det(xI - A), constant coefficient first.

    Every coefficient must have type int itself, so a float or a bool
    raises ``TypeError`` and the arithmetic on the coefficients stays exact.
    The checks run in ``__new__``, which ``_make``, ``_replace``, ``pickle``
    and ``copy`` all go through.
    """

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]):
        for c in coeffs:
            if type(c) is not int:
                raise TypeError(f"coefficients must be of type int, got {c!r}")
        if not coeffs:
            raise NotMonicError("a polynomial needs at least one coefficient")
        if coeffs[-1] != 1:
            raise NotMonicError(f"leading coefficient is {coeffs[-1]}, not 1")
        return super().__new__(cls, coeffs)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


class Spectrum(NamedTuple):
    """Integer eigenvalue/multiplicity pairs, eigenvalues strictly decreasing.

    A spectrum holds only the integer roots it was given; whether they are
    all of a polynomial's roots is read off the remainder that goes with
    it (``SpectralAnalysis.integral``).  Use :func:`spectrum_from_pairs` to
    canonicalize.
    """

    pairs: tuple[tuple[int, int], ...]


def spectrum_from_pairs(pairs: Iterable[tuple[int, int]]) -> Spectrum:
    """Merge duplicate eigenvalues, drop empty entries, sort descending."""
    acc: dict[int, int] = {}
    for value, mult in pairs:
        if mult <= 0:
            continue
        acc[value] = acc.get(value, 0) + mult
    ordered = tuple(sorted(acc.items(), key=lambda p: -p[0]))
    return Spectrum(ordered)


def spectrum_json(spectrum: Spectrum) -> list[dict]:
    return [{"value": v, "multiplicity": k} for v, k in spectrum.pairs]


class Block(NamedTuple):
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


class SpectralAnalysis(NamedTuple):
    """Outcome of the exact integrality decision for one graph.

    ``spectrum`` holds the integer eigenvalues and ``remainder`` the
    factor of the polynomial that has no integer root; ``blocks`` holds one
    record per distinct connected block.
    """

    spectrum: Spectrum
    remainder: CharPoly
    blocks: tuple[Block, ...]

    @property
    def integral(self) -> bool:
        """Whether every eigenvalue is an integer: the remainder is 1."""
        return self.remainder.degree == 0

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

    After its checks, the diagonal is set to 1 and the rows of A + I go
    through ``_block_factor`` in one call, which gives det(xI - Q) for the
    twin quotient Q of r rows, and that is multiplied by (x + 1)^(n - r),
    expanded by the binomial theorem.  A disconnected matrix needs no
    splitting: vertices i and j in different components are never true
    twins, since row i of A + I holds 1 in column i and row j holds
    A_ji = 0 there, and each step of the kernel holds for any symmetric
    matrix.  A failed check raises
    :class:`SpectralCheckError`.
    """
    a = _int_rows(matrix)
    n = len(a)
    for i in range(n):
        if a[i][i] != 0:
            raise NonzeroDiagonalError(f"diagonal entry ({i},{i}) = {a[i][i]}")
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise NotSymmetricError(f"entries ({i},{j}) and ({j},{i}) differ")
    if not a:
        return CharPoly((1,))
    for i, row in enumerate(a):
        row[i] = 1
    quotient = _block_factor(list(map(tuple, a)))[0]
    twins = n - quotient.degree
    binomials = [comb(twins, i) for i in range(twins + 1)]
    return CharPoly(tuple(_poly_mul(quotient.coeffs, binomials)))


def _block_factor(
    key: Sequence[Sequence[int]], z: int = 1
) -> tuple[CharPoly, int]:
    """det(xI - Q) for the twin quotient Q of A, and a root bound.

    ``key`` gives the rows of M = C + I, for C any symmetric integer matrix
    with a zero diagonal, each row a tuple or bytes: ``is_integral`` passes
    one connected block, ``char_poly`` a whole matrix, and no step below
    needs C to be connected.  The matrix read is A with A + I = M (x) J_z:
    each of the c vertices of C stands for z true twins (J_z is the z x z
    all-ones matrix).  With z = 1, A is C.  In a commuting graph, C is the
    graph on the non-central cosets of the center Z and z = |Z|: the
    members of a coset commute with each other and with exactly the
    members of the cosets their coset commutes with, so their rows of
    A + I are M (x) J_z.

    Coset identity: det(tI - A) = (t + 1)^(c(z - 1)) det(tI - W), with the
    c x c matrix W = zM - I.  Proof: J_z = V diag(z, 0, ..., 0) V^-1, where
    V's columns are the all-ones vector and e_1 - e_j for 1 < j <= z.
    Conjugating by I_c (x) V turns A + I = M (x) J_z into
    M (x) diag(z, 0, ..., 0), which a permutation of the basis makes
    zM (+) 0, so A is similar to W (+) -I_(c(z - 1)).

    Twin quotient: the twin classes of W are the equal rows of W + I = zM,
    so of M.  Let there be r of them, of sizes s_1..s_r, P the c x r
    class-indicator matrix and B' the r x r matrix of M on one member per
    class.  M is symmetric, so equal rows give equal columns and zM =
    P zB' P^T, whose nonzero eigenvalues are those of zB' P^T P =
    zB' diag(s).  So det(xI - W) = (x + 1)^(c - r) det(xI - Q), and
    det(xI - A) = (x + 1)^(cz - r) det(xI - Q), with Q = zB' diag(s) - I:
    Q_ii = z s_i - 1, and Q_ij = z s_j M_uv for members u, v of classes
    i != j.  A member u's twins v have M_uv = 1, so row i of Q has the
    absolute sum of a row of A at u, z (sum of |M_uv| over v) - 1; the
    largest, R, returned second, bounds Q's eigenvalues and so its integer
    roots.  Q's polynomial is spot-checked against W (``_spot_check``),
    never expanded by (x + 1)^(cz - r); a failed check raises
    :class:`SpectralCheckError`.

    Coefficient bound: Q + I = B' diag(s), with B' symmetric and s > 0, is
    similar to diag(s)^(1/2) B' diag(s)^(1/2), a real symmetric matrix, so
    Q's eigenvalues lambda_1..lambda_r are real and their squares sum to
    tr(Q^2).  Let S be the least integer with r S^2 >= tr(Q^2).  By the
    power-mean inequality the mean m of the |lambda_i| is at most
    (tr(Q^2)/r)^(1/2) <= S, and by Maclaurin's inequality (Hardy, Littlewood
    and Polya, "Inequalities", ch. 2) e_i(|lambda|) <= C(r, i) m^i.  The
    coefficient of x^(r - i) is +-e_i(lambda), at most e_i(|lambda|) in
    absolute value, so the coefficients' absolute values sum to at most
    (S + 1)^r, the bound handed to ``_modular_char_poly``.  Every
    |lambda_i| <= R gives tr(Q^2) <= r R^2, so S <= R and the bound is never
    looser than the row-sum bound (R + 1)^r.

    Vertex order: when r > 1, M's rows and columns are first permuted alike
    by ascending number of nonzero entries in a row, a stable sort that
    keeps ties in the key's order, and the twin classes are found again on
    the permuted matrix.  P M P^T is similar to M, so Q's polynomial, R and
    the check's determinants are unchanged, while the elimination in
    ``_spot_check``, which updates only the rows with a nonzero entry in the
    pivot column, takes the sparsest pivots first (a static form of
    Markowitz's rule).  A complete block, r = 1, is the same matrix in any
    order and keeps the key's.  The classes (``_twin_classes``) reach the
    quotient and the check as lists of row indices of the matrix read.
    """
    classes = _twin_classes(key)
    if len(classes) > 1:
        zeros = [row.count(0) for row in key]
        order = sorted(range(len(key)), key=zeros.__getitem__, reverse=True)
        pick = itemgetter(*order)
        key = [pick(key[i]) for i in order]
        classes = _twin_classes(key)
    quotient = _twin_quotient(key, classes, z)
    r = len(quotient)
    trace = sum(
        x * y for row, col in zip(quotient, zip(*quotient)) for x, y in zip(row, col)
    )
    s = isqrt(trace // r)
    if s * s * r < trace:
        s += 1
    reduced = CharPoly(tuple(_modular_char_poly(quotient, (s + 1) ** r)))
    _spot_check(reduced, key, classes, z)
    return reduced, max(sum(map(abs, row)) for row in quotient)


# the Mersenne prime whose least power above twice the bound is the modulus
_MERSENNE = (1 << 61) - 1


def _modular_char_poly(a: list[list[int]], bound: int) -> list[int]:
    """Coefficients of det(xI - A), ascending, from their residues modulo M.

    ``bound`` is a B proven by the caller to bound every coefficient's
    absolute value (``_block_factor`` passes one from Q's real eigenvalues).
    M is the least power of the Mersenne prime 2**61 - 1 that exceeds 2B, so
    the symmetric residue in (-M/2, M/2] of a true coefficient is the
    coefficient itself.

    One Hessenberg pass over the ring Z/M gives every residue at once:
    the pass is a similarity, which preserves det(xI - A) over any
    commutative ring; the recurrence of ``_hessenberg_block_mod`` is a
    determinant expansion, so it needs no division; and splitting at a zero
    subdiagonal entry leaves a block-triangular determinant, the product of
    the diagonal blocks' determinants over any ring.  So the pass yields the
    true coefficients modulo any prime power M > 2B (``_char_poly_mod``).
    """
    modulus = _MERSENNE
    while modulus <= 2 * bound:
        modulus *= _MERSENNE
    half = modulus // 2
    return [c - modulus if c > half else c for c in _char_poly_mod(a, modulus)]


def _char_poly_mod(a: list[list[int]], p: int) -> list[int]:
    """det(xI - A) mod p, ascending, from an upper Hessenberg form of A.

    p must be a prime power P^e; the program passes powers of
    ``_MERSENNE``.  The pivot is the first unit of its column, else the
    first entry of least g = gcd(x, p).  Step m subtracts u_i times the
    pivot row from each row i > m, u_i = (x_i / g) (pivot / g)^-1 mod p,
    and adds u_i times column i to column m.  A nonzero x is P^v times a
    unit and gcd(x, p) = P^v, so g, the least such P^v, divides every x_i
    exactly; pivot / g is prime to P, so a unit, and u_i pivot = x_i mod p
    clears row i.  The step is the similarity by L (below), valid over any
    commutative ring; a unit pivot has g = 1.  So the pass never stops, and
    a non-unit subdiagonal entry is harmless: ``_hessenberg_block_mod``
    never divides.  Modulo a composite such as 105 the least gcd need not
    divide the column: 3 and 5 do not.

    Both operations of step m skip zeros.  The row operation updates a
    target row only in the columns where the pivot row is nonzero: where
    the pivot row holds 0 the entry x becomes x - u_i 0 = x.  The column
    operation updates only the rows with a nonzero entry in some target
    column: in any other row the sum of u_i times those entries is 0.
    """
    n = len(a)
    h = [[x % p for x in row] for row in a]
    for m in range(1, n - 1):
        col = m - 1
        column = [h[i][col] for i in range(m, n)]
        pivot = next((i for i, x in enumerate(column, m) if gcd(x, p) == 1), None)
        g = 1
        if pivot is None:
            if not any(column):
                continue
            g, pivot = min((gcd(x, p), i) for i, x in enumerate(column, m) if x)
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        # Similarity by the unit lower-triangular L = I - sum_i u_i e_i e_m^T:
        # subtract u_i * row m from each row i > m to clear column m-1 below
        # the subdiagonal, then add u_i * column i to column m.
        row_m = h[m]
        minus_inverse = p - pow(row_m[col] // g, -1, p)
        support = [(j, y) for j, y in enumerate(row_m[col:], col) if y]
        targets = []
        factors = []
        for i in range(m + 1, n):
            row_i = h[i]
            if row_i[col]:
                minus_u = row_i[col] // g * minus_inverse % p
                for j, y in support:
                    row_i[j] = (row_i[j] + minus_u * y) % p
                targets.append(i)
                factors.append(p - minus_u)
        if not targets:
            continue
        pick = _tuple_picker(targets)
        for row in h:
            picked = pick(row)
            if any(picked):
                row[m] = (row[m] + sum(map(mul, factors, picked))) % p
    # A zero subdiagonal entry splits H into diagonal blocks whose
    # polynomials multiply; the first block's is the starting product.
    cuts = [0, *(end for end in range(1, n) if h[end][end - 1] == 0), n]
    poly = _hessenberg_block_mod(h, 0, cuts[1], p)
    for start, end in zip(cuts[1:], cuts[2:]):
        block = _hessenberg_block_mod(h, start, end, p)
        poly = [c % p for c in _poly_mul(block, poly)]
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


def _twin_classes(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """The twin classes of the rows of M = ``a``, as lists of row indices.

    Rows i and j share a class when they are equal.  When M = A + I for an
    adjacency matrix A, the rows are closed neighbourhoods, so the classes
    are the true twins.  Members ascend, and the classes come in order of
    their first members.  The rows are tuples or bytes, so they are keys.
    """
    classes: dict[Sequence[int], list[int]] = {}
    for i, row in enumerate(a):
        classes.setdefault(row, []).append(i)
    return list(classes.values())


def _twin_quotient(
    a: Sequence[Sequence[int]], classes: Sequence[Sequence[int]], z: int
) -> list[list[int]]:
    """Q = z B'·diag(s) - I over M's twin ``classes``, M = ``a`` (see
    ``_block_factor``): B' is M read on each class's first member, and a
    class of s vertices holds z s elements."""
    firsts = [members[0] for members in classes]
    sizes = [z * len(members) for members in classes]
    return [
        [a[i][j] * s - (i == j) for j, s in zip(firsts, sizes)]
        for i in firsts
    ]


def _spot_check(
    quotient: CharPoly,
    a: Sequence[Sequence[int]],
    classes: Sequence[Sequence[int]],
    z: int = 1,
) -> None:
    """Check (t + 1)^(c - r) q(t) = det(tI - W) at t in {0, 1, 2} by
    Bareiss on the c x c matrix W = zM - I, M = ``a``, for q = ``quotient``
    of degree r (see ``_block_factor``; with z = 1, W is C = M - I).

    ``classes`` is any partition of the rows into lists of ascending row
    indices; ``_block_factor`` passes the twin classes.  Before each
    determinant, each row i of tI - W has the row of j, the next member of
    its list, subtracted when rows i and j of M are equal, both taken from
    tI - W; any other row is kept.  Since j > i, that is a product by a
    unit upper-triangular matrix, so the determinant is the same whatever
    the partition is: wrong classes cannot hide a wrong polynomial, and the
    check stays independent of the twin quotient.  The difference row is
    then (t + 1)(e_i - e_j), the pivot row of step i, which reaches only the
    rows with an entry in column i.  The last member of a class keeps its
    row of tI - W and is eliminated after the others, so a clique of c
    vertices costs O(c) updates per point.  At t = -1 the difference rows
    vanish and so does (t + 1)^(c - r) whenever c > r, so -1 is not a point.

    tI - W = (t + 1)I - zM, so the rows of -zM, whose diagonal is -z, and
    the difference rows, zero at (i, i) and (i, j), are built once, as
    their entries, and each point's matrix is a copy of them with t + 1
    added at (i, i) and subtracted at (i, j).
    """
    n = len(a)
    twins = n - quotient.degree
    successor = [-1] * n
    for members in classes:
        for i, j in zip(members, members[1:]):
            successor[i] = j
    columns = range(n)
    base = []
    for i, s in enumerate(successor):
        row = a[i]
        if s >= 0 and row == a[s]:
            entries = {i: 0, s: 0}
        else:
            successor[i] = -1
            entries = {j: -z * row[j] for j in compress(columns, row)}
        base.append(entries)
    index = _column_index(base)
    for t in (0, 1, 2):
        shifted = list(map(dict.copy, base))
        for i, s in enumerate(successor):
            row = shifted[i]
            row[i] += t + 1
            if s >= 0:
                row[s] -= t + 1
        if (t + 1) ** twins * quotient.evaluate(t) != _bareiss(shifted, index):
            raise SpectralCheckError(
                f"characteristic polynomial failed determinant check at t={t}"
            )


def exact_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Fraction-free Bareiss determinant over the integers, zeros skipped.

    Bareiss elimination with row swaps: with P_k = a^(k)_kk the k-th pivot
    and P_-1 = 1, step k sets, for every row i > k and column j > k,
    a^(k+1)_ij = (P_k a^(k)_ij - a^(k)_ik a^(k)_kj) / P_(k-1).  Every
    a^(k)_ij is a minor of the row-swapped matrix (rows 0..k-1 and i,
    columns 0..k-1 and j), so every division is exact, and the determinant
    is the last pivot times the sign of the swaps.

    When the factor a^(k)_ik or the pivot row's a^(k)_kj is zero the step
    only rescales a^(k)_ij by P_k / P_(k-1).  So each row is kept as its
    entries, and step k writes only the rows with a nonzero factor, in the
    columns where the pivot row is nonzero.  Every other entry is left
    stale: it keeps its own level s, the step that last wrote it (0 for an
    entry of the matrix), and its value a^(s)_ij.  Over the skipped steps
    the ratios telescope, a^(k)_ij = a^(s)_ij P_(k-1) / P_(s-1).  Hence:

    - a stale entry is zero exactly when the current one is, the pivots
      being nonzero, so the pivot search and the factor test read stale
      entries; an update that cancels stores 0, which reads as zero;
    - an entry that a step reads, the factor, the pivot row or an entry
      under the pivot row's support, is brought up to date as
      a^(s)_ij P_(k-1) / P_(s-1), one exact division; an absent entry is 0
      and is filled in;
    - a pivot row that no step has written holds level-0 entries, so
      a^(k)_kj = a_kj P_(k-1), and the step becomes
      a^(k+1)_ij = a_kk a^(k)_ij - a^(k)_ik a_kj, with no division.

    Each quotient is a true Bareiss entry, so every division stays exact.
    A swap exchanges two rows not yet used as pivots, with their entries
    and levels, and leaves the minors of the pivot rows unchanged.
    """
    a = _int_rows(matrix)
    columns = range(len(a))
    rows = [{j: row[j] for j in compress(columns, row)} for row in a]
    return _bareiss(rows, _column_index(rows))


def _int_rows(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows of a square matrix, each as a list, the one input check of
    ``char_poly`` and ``exact_determinant``.

    Every entry must have type int itself, so a float, a bool or an
    ``IntEnum`` member raises ``TypeError`` and the arithmetic stays exact;
    a row of the wrong length raises :class:`NotSymmetricError`.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    for i, row in enumerate(a):
        if len(row) != n:
            raise NotSymmetricError(f"row {i} has {len(row)} entries, expected {n}")
        for v in row:
            if type(v) is not int:
                raise TypeError(f"matrix entries must be of type int, got {v!r}")
    return a


def _column_index(rows: Sequence[dict[int, int]]) -> list[list[int]]:
    """For each column j, the rows with an entry in column j, ascending."""
    index: list[list[int]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j in row:
            index[j].append(i)
    return index


def _bareiss(rows: list[dict[int, int]], index: list[list[int]]) -> int:
    """The determinant of the square integer matrix whose row i holds the
    entries ``rows[i]``, a dict from column to value in which zeros may
    appear, by the elimination of ``exact_determinant``.

    ``index[j]`` must list every row with an entry in column j; it may list
    more rows, or a row twice.  The elimination overwrites ``rows`` and
    appends the rows it fills in to ``index``, which stays valid for any
    other matrix it was valid for.  Step k takes the row in position k as
    the pivot when its entry in column k is nonzero, and otherwise swaps in
    the first row listed for column k that has one.
    """
    n = len(rows)
    # levels[i] maps a column to the level of row i's entry there, 0 when
    # absent; None until a step first writes row i
    levels: list[dict[int, int] | None] = [None] * n
    # what a row used as a pivot is replaced by: it has no entries left
    done: dict[int, int] = {}
    order = None  # row at each position, once a swap has moved one
    sign = 1
    # divisors[s] = P_(s-1), the divisor of an entry at level s
    divisors = [1]
    for k, candidates in enumerate(index):
        r = k if order is None else order[k]
        if not rows[r].get(k):
            for r in candidates:
                if rows[r].get(k):
                    break
            else:
                return 0
            if order is None:
                order = list(range(n))
            p = order.index(r, k + 1)
            order[p] = order[k]
            order[k] = r
            sign = -sign
        row = rows[r]
        rows[r] = done
        level = levels[r]
        scale = divisors[k]
        pivot = row.pop(k)
        if level is None:  # no step has written the row: all at level 0
            multiplier, divisor, support = pivot, 1, row.items()
            pivot *= scale
        else:
            if (s := level.get(k, 0)) != k:
                pivot = pivot * scale // divisors[s]
            multiplier, divisor = pivot, scale
            support = []
            for j, y in row.items():
                if y:
                    if (s := level.get(j, 0)) != k:
                        y = y * scale // divisors[s]
                    support.append((j, y))
        for i in candidates:
            row_i = rows[i]
            factor = row_i.pop(k, 0)
            if not factor:
                continue
            level_i = levels[i]
            if level_i is None:
                level_i = levels[i] = {}
            if (s := level_i.get(k, 0)) != k:
                factor = factor * scale // divisors[s]
            for j, y in support:
                x = row_i.get(j)
                if x is None:
                    index[j].append(i)
                    x = 0
                elif x and (s := level_i.get(j, 0)) != k:
                    x = x * scale // divisors[s]
                row_i[j] = (multiplier * x - factor * y) // divisor
                level_i[j] = k + 1
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
    root is missed.  The scan stops once the remainder is constant.  The
    returned remainder has no integer roots within the bound, and the
    roots found are all of the polynomial's roots exactly when the
    remainder is constant.
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
        if len(desc) == 1:
            break  # the remainder is constant: no root is left to find
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

    return spectrum_from_pairs(found), CharPoly(tuple(reversed(desc)))


def _divide_linear(desc: list[int], r: int) -> tuple[list[int], int]:
    # synthetic division of a descending-coefficient polynomial by (x - r)
    out = [desc[0]]
    for c in desc[1:-1]:
        out.append(out[-1] * r + c)
    rem = out[-1] * r + desc[-1]
    return out, rem


def is_integral(
    graph: CommutingGraph,
    z: int = 1,
    memo: dict | None = None,
) -> SpectralAnalysis:
    """Decide integrality of the adjacency spectrum of the graph in which
    each vertex of ``graph`` stands for ``z`` true twins, exactly.

    With z = 1 that is ``graph`` itself.  A commuting graph is decided on
    its center's cosets (``graphs.coset_graph``) with z = |Z|: each block
    of c cosets stands for c z elements (``_block_factor``).  Each
    distinct connected block, read from the adjacency bitmasks as the rows
    of M = C + I, each vertex's own bit set, is reduced to its twin
    quotient Q, computed and spot-checked once.  Q's integer roots are
    found within its largest row sum, a vertex degree of the element graph,
    and -1 gains the k - r roots that the k = c z element
    vertices lost to their r twin classes.  The multiplicities add up over
    the blocks, and the remainder is the product of the block remainders:
    by unique factorisation of monic polynomials in Z[x] it is the product
    polynomial with every integer root divided out.  Each distinct block's
    record (``Block``), sized in element vertices, is kept in the result's
    ``blocks``.  A z below 1 raises :class:`ParameterOutOfRange`, and a z
    whose type is not int itself, a float or a bool included, raises
    ``TypeError``.

    ``memo``, a dict the caller owns, maps (block key, z) to Q's
    polynomial, its integer spectrum and its remainder, so that calls
    sharing it share their common blocks: a miss proves, spot-checks and
    searches the block and stores the result, and a hit reuses it.  That is
    exact by the argument that lets equal blocks of one graph share a
    result: the key is the block's exact submatrix of M, equal exactly when
    the submatrices of C are, and an equal M with an equal z is the same
    matrix W = zM - I, with the same proved and checked polynomial and the
    same roots.  z must be in the key, since Q depends on it.  Without a
    ``memo``, each call starts an empty one.

    A block is a clique exactly when every row, with its own bit set,
    equals the first such row: that row then holds every vertex of the
    block, since each row holds its own bit, and no other, since a row
    holds only neighbours in the block.  Its key, the c x c all-ones rows
    (``_clique_rows``), is built once per size c in a call and equals
    ``_bit_rows``'s, so a clique shares the memo entry and the proof of any
    other clique of its size; any other block's key is read from its rows
    (``_bit_rows``).
    """
    if type(z) is not int:
        raise TypeError(f"z must be of type int, got {z!r}")
    if z < 1:
        raise ParameterOutOfRange(f"each vertex stands for z >= 1 twins, got {z}")
    adjacency = graph.adjacency
    # Each block is keyed by its exact submatrix of M, rows and columns in
    # the block's sorted vertex order.  det(xI - B) is a function of B's
    # entries, so blocks with equal keys are the same matrix and share the
    # coefficients proved and checked for it; a key never merges two
    # different matrices.  Isomorphic blocks whose vertex orders give
    # different submatrices get different keys and are computed separately.
    counts: dict[tuple[bytes, ...], int] = {}
    cliques: dict[int, tuple[bytes, ...]] = {}
    for block in connected_components(graph):
        first = block[0]
        mask = adjacency[first] | 1 << first
        if all(adjacency[i] | 1 << i == mask for i in block):
            c = len(block)
            key = cliques.get(c) or cliques.setdefault(c, _clique_rows(c))
        else:
            key = tuple(_bit_rows(adjacency, block))
        counts[key] = counts.get(key, 0) + 1
    if memo is None:
        memo = {}
    pairs: list[tuple[int, int]] = []
    records = []
    remainder = [1]
    for key, count in counts.items():
        found = memo.get((key, z))
        if found is None:
            quotient, bound = _block_factor(key, z)
            found = memo[key, z] = (quotient, *integer_spectrum(quotient, bound))
        quotient, spectrum, rest = found
        size = len(key) * z
        pairs.append((-1, (size - quotient.degree) * count))
        pairs.extend((value, mult * count) for value, mult in spectrum.pairs)
        if rest.degree:  # a constant remainder of a monic polynomial is 1
            for _ in range(count):
                remainder = _poly_mul(remainder, rest.coeffs)
        records.append(Block(size, count, quotient))
    return SpectralAnalysis(
        spectrum=spectrum_from_pairs(pairs),
        remainder=CharPoly(tuple(remainder)),
        blocks=tuple(records),
    )


# maps the ASCII digits of a binary string to the bytes 0 and 1
_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bit_rows(adjacency: Sequence[int], block: tuple[int, ...]) -> Iterator[bytes]:
    """The block's rows of M = C + I on its columns, C the 0/1 matrix of
    ``adjacency``: row i is ``adjacency[i]`` with its own bit i set.

    Bit j of a row is character n - 1 - j of its n-digit binary string, so
    one ``itemgetter`` per block picks the block's columns out of each
    row's digits, translated to the bytes 0 and 1.  A row's string is built
    only when the row is read.
    """
    n = len(adjacency)
    pick = _tuple_picker([n - 1 - j for j in block])
    for i in block:
        row = adjacency[i] | 1 << i
        digits = format(row, f"0{n}b").encode().translate(_BINARY_DIGITS)
        yield bytes(pick(digits))


def _clique_rows(c: int) -> tuple[bytes, ...]:
    """``_bit_rows`` of a clique of c vertices: all ones."""
    return (b"\x01" * c,) * c


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out
