import copy
import itertools
import pickle
import random
import sys
from enum import IntEnum
from fractions import Fraction

import pytest

from commspec import spectra
from commspec.catalog import FamilySpec, build, parse_family
from commspec.cli import main
from commspec.errors import (
    BudgetExceeded,
    NonzeroDiagonalError,
    NotMonicError,
    NotSymmetricError,
    ParameterOutOfRange,
    SpectralCheckError,
)
from commspec.graphs import build_commuting_graph, connected_components, coset_graph
from commspec.groups import center, from_cayley_table, quotient_by_center
from commspec.predictions import _commuting_involutions, verify_group
from commspec.spectra import (
    CharPoly,
    char_poly,
    exact_determinant,
    integer_spectrum,
    is_integral,
    spectrum_from_pairs,
)

from oracles import (
    clique_union_spectrum,
    closed_rows,
    dense_bareiss,
    dense_char_poly_mod,
    expanded_char_poly,
    poly_product,
    raw_graph,
    row_sum_bound,
)
from permutation_groups import permutation_group, permutation_table

K3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
P3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_char_poly_of_empty_matrix_is_one():
    assert char_poly([]).coeffs == (1,)


def test_char_poly_k3():
    # det(xI - A) expanded by hand: x^3 - 3x - 2
    assert char_poly(K3).coeffs == (-2, -3, 0, 1)


def test_char_poly_p3():
    assert char_poly(P3).coeffs == (0, -2, 0, 1)


def test_char_poly_rejects_asymmetry_and_loops():
    with pytest.raises(NotSymmetricError):
        char_poly([[0, 1], [0, 0]])
    with pytest.raises(NotSymmetricError):
        char_poly([[0, 1], [1, 0, 0]])
    with pytest.raises(NonzeroDiagonalError):
        char_poly([[1, 0], [0, 0]])


class _Entry(IntEnum):
    ONE = 1


# an entry that is not an int itself is refused, whatever it equals: a float,
# a bool or an IntEnum member
_NOT_INT_ENTRIES = (1.0, True, _Entry.ONE)


def test_char_poly_rejects_floats():
    for one in _NOT_INT_ENTRIES:
        with pytest.raises(TypeError):
            char_poly([[0, one], [one, 0]])


def test_exact_determinant_rejects_floats():
    for one in _NOT_INT_ENTRIES:
        with pytest.raises(TypeError):
            exact_determinant([[1, 0], [0, one]])


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1, 0], [0]], "row 1 has 1 entries, expected 2"),
        ([[1, 0, 0], [0, 1, 0]], "row 0 has 3 entries, expected 2"),
    ],
)
def test_exact_determinant_rejects_a_ragged_matrix(matrix, message):
    with pytest.raises(NotSymmetricError) as info:
        exact_determinant(matrix)
    assert str(info.value) == message


def _laplace_det(matrix):
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * _laplace_det(minor)
    return total


def test_exact_determinant_hand_values():
    assert exact_determinant([[2, 3], [1, 4]]) == 5
    assert exact_determinant([[1, 2], [2, 4]]) == 0
    assert exact_determinant([[int(i == j) for j in range(4)] for i in range(4)]) == 1
    assert exact_determinant([]) == 1


def test_exact_determinant_matches_cofactor_expansion():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        for _ in range(8):
            matrix = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert exact_determinant(matrix) == _laplace_det(matrix)


def _fraction_det(matrix):
    # Gaussian elimination over the rationals, sharing no arithmetic with
    # the fraction-free elimination
    a = [[Fraction(v) for v in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            ratio = a[i][k] / a[k][k]
            a[i] = [x - ratio * y for x, y in zip(a[i], a[k])]
    return int(det)


def _sparse_signs(rng, n):
    return [[rng.choice((0, 0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(n)]


def _low_rank_product(rng, n):
    # B C with B n x r and C r x n, singular whenever r < n
    r = rng.randint(0, n)
    b = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
    c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
    return [[sum(x * y[j] for x, y in zip(row, c)) for j in range(n)] for row in b]


def _zero_leading_block(rng, n):
    # [[0, X], [Y, Z]] with a zero diagonal and sparse entries: the first
    # h pivots come from rows below, which are often stale when swapped up
    h = rng.randint(1, n)
    return [
        [
            0 if i == j or (i < h and j < h) else rng.choice((0, 0, 1, -1, 2))
            for j in range(n)
        ]
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "make", [_sparse_signs, _low_rank_product, _zero_leading_block]
)
def test_exact_determinant_matches_oracles_when_rows_stay_stale(make):
    # rows whose factor in the pivot column is zero skip the step; these
    # matrices leave many such rows, where small dense ones leave almost none
    rng = random.Random(13)
    nonzero = 0
    for n in range(1, 15):
        for _ in range(10):
            matrix = make(rng, n)
            det = exact_determinant(matrix)
            assert det == _fraction_det(matrix), matrix
            if n <= 7:
                assert det == _laplace_det(matrix), matrix
            nonzero += det != 0
    assert nonzero >= 20


def test_exact_determinant_matches_sympy_on_the_s5_block():
    # S5's 95-vertex block of non-central elements, shuffled; most factors
    # in its pivot columns are zero.  sympy's domain-matrix determinant
    # stands in for Matrix.det, which takes seconds per point on this block.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    graph = build_commuting_graph(
        from_cayley_table(permutation_table(5, False, random.Random(3)))
    )
    matrix = graph.to_matrix()
    block = max(connected_components(graph), key=len)
    assert len(block) == 95
    # the spot check's points, and -1, where the determinant is 0
    for t in (0, 1, 2, -1):
        shifted = [[(t if i == j else 0) - matrix[i][j] for j in block] for i in block]
        expected = DomainMatrix.from_Matrix(sympy.Matrix(shifted)).det()
        assert exact_determinant(shifted) == int(expected), t


def test_char_poly_agrees_with_determinant_on_c5():
    c5 = raw_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    poly = char_poly(c5.to_matrix())
    for t in range(-3, 4):
        shifted = [
            [(t if i == j else 0) - v for j, v in enumerate(row)]
            for i, row in enumerate(c5.to_matrix())
        ]
        assert poly.evaluate(t) == exact_determinant(shifted)


def test_integer_spectrum_of_k3():
    spectrum, remainder = integer_spectrum(char_poly(K3), 2)
    assert spectrum.pairs == ((2, 1), (-1, 2))
    assert remainder.degree == 0
    assert remainder.coeffs == (1,)


def test_integer_spectrum_with_irrational_part():
    spectrum, remainder = integer_spectrum(char_poly(P3), 2)
    assert spectrum.pairs == ((0, 1),)
    assert remainder.degree == 2
    assert remainder.coeffs == (-2, 0, 1)  # x^2 - 2


def test_integer_spectrum_of_power_of_x():
    poly = CharPoly((0, 0, 0, 0, 1))  # x^4
    spectrum, remainder = integer_spectrum(poly, 0)
    assert spectrum.pairs == ((0, 4),)
    assert remainder.degree == 0
    assert remainder.coeffs == (1,)


def test_non_monic_rejected():
    with pytest.raises(NotMonicError):
        CharPoly((1, 2))
    with pytest.raises(NotMonicError):
        CharPoly(())


@pytest.mark.parametrize(
    "coeffs",
    [(1.0,), (-4.0, 0.0, 1.0), (-4, 0, 1.0), (0, True), (True,), (Fraction(1),)],
)
def test_coefficients_must_be_exact_ints(coeffs):
    # a float, a bool or a Fraction is not an int itself, whatever it equals
    with pytest.raises(TypeError):
        CharPoly(coeffs)


@pytest.mark.parametrize(
    "coeffs, error",
    [
        ((1.0,), TypeError),
        ((-4, 0, True), TypeError),
        ((1, 2), NotMonicError),
        ((), NotMonicError),
    ],
)
def test_charpoly_checks_every_way_a_record_is_made(coeffs, error):
    # _replace and _make route through the checks; a record that bypassed
    # them is refused again when copied or unpickled
    with pytest.raises(error):
        CharPoly(coeffs)
    with pytest.raises(error):
        CharPoly((1,))._replace(coeffs=coeffs)
    with pytest.raises(error):
        CharPoly._make([coeffs])
    smuggled = tuple.__new__(CharPoly, (coeffs,))
    with pytest.raises(error):
        copy.copy(smuggled)
    with pytest.raises(error):
        pickle.loads(pickle.dumps(smuggled))


def test_charpoly_round_trips_keep_the_record():
    poly = CharPoly((2, -3, 1))
    same = [poly._replace(), CharPoly._make(poly), copy.copy(poly)]
    same += [copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))]
    for other in same:
        assert type(other) is CharPoly and other == poly


def test_spectral_analyses_with_different_blocks_differ():
    # a plain record compares and hashes by all of its fields
    analysis = is_integral(build_commuting_graph(build(FamilySpec.dihedral(4))))
    other = analysis._replace(blocks=())
    assert other.spectrum == analysis.spectrum
    assert other.remainder == analysis.remainder
    assert other != analysis and not (other == analysis)
    assert analysis._replace() == analysis
    assert hash(analysis._replace()) == hash(analysis)
    moved = analysis._replace(spectrum=spectrum_from_pairs([(1, 1)]))
    assert moved != analysis and not (moved == analysis)


def test_integer_spectrum_gets_no_float_polynomial():
    # x^2 - 4 with float coefficients: the root search used to divide out
    # 2.0 and -2.0 and return the remainder CharPoly((1.0,))
    with pytest.raises(TypeError):
        integer_spectrum(CharPoly((-4.0, 0.0, 1.0)), 2)
    assert integer_spectrum(CharPoly((-4, 0, 1)), 2) == (
        spectrum_from_pairs([(2, 1), (-2, 1)]),
        CharPoly((1,)),
    )


def test_char_poly_multiplication_and_linear_factors():
    poly = poly_product(CharPoly((-2, 1)), CharPoly((1, 1)), CharPoly((1, 1)))
    assert poly.coeffs == char_poly(K3).coeffs


def test_clique_union_spectrum_single_clique():
    assert clique_union_spectrum([5]).pairs == ((4, 1), (-1, 4))


def test_clique_union_spectrum_with_singletons():
    assert clique_union_spectrum([2, 1, 1, 1]).pairs == ((1, 1), (0, 3), (-1, 1))


def test_clique_union_spectrum_merges_equal_cliques():
    assert clique_union_spectrum([6, 6, 6, 6]).pairs == ((5, 4), (-1, 20))


def test_spectra_agree_is_order_independent():
    a = spectrum_from_pairs([(1, 3), (-1, 3)])
    b = spectrum_from_pairs([(-1, 3), (1, 3)])
    assert a == b


def test_spectra_agree_distinguishes_multiplicity():
    assert spectrum_from_pairs([(0, 1)]) != spectrum_from_pairs([(0, 2)])


def test_clique_union_matches_brute_force_for_q8(q8):
    analysis = is_integral(build_commuting_graph(q8))
    assert clique_union_spectrum([2, 2, 2]) == analysis.spectrum


def test_is_integral_d6(d6):
    analysis = is_integral(build_commuting_graph(d6))
    assert analysis.integral
    assert analysis.spectrum.pairs == ((1, 1), (0, 3), (-1, 1))


def test_is_integral_q8(q8):
    analysis = is_integral(build_commuting_graph(q8))
    assert analysis.integral
    assert analysis.spectrum.pairs == ((1, 3), (-1, 3))


def test_path_graph_is_not_integral():
    analysis = is_integral(raw_graph(3, [(0, 1), (1, 2)]))
    assert not analysis.integral
    assert analysis.remainder.degree == 2


def test_five_cycle_is_not_integral():
    analysis = is_integral(raw_graph(5, [(i, (i + 1) % 5) for i in range(5)]))
    assert not analysis.integral
    assert analysis.spectrum.pairs == ((2, 1),)
    assert analysis.remainder.degree == 4


def test_spectrum_canonicalization_merges_and_drops():
    spectrum = spectrum_from_pairs([(1, 2), (1, 1), (5, 0), (-1, 3)])
    assert spectrum.pairs == ((1, 3), (-1, 3))


def test_deflation_reconstructs_char_poly(d12):
    graph = build_commuting_graph(d12)
    analysis = is_integral(graph)
    product = analysis.remainder
    for value, mult in analysis.spectrum.pairs:
        for _ in range(mult):
            product = poly_product(product, CharPoly((-value, 1)))
    assert product == expanded_char_poly(analysis) == char_poly(graph.to_matrix())


def test_char_poly_handles_disconnected_input():
    # two triangles: spectrum {2^2, (-1)^4}
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    graph = raw_graph(6, edges)
    spectrum, remainder = integer_spectrum(char_poly(graph.to_matrix()), 2)
    assert spectrum.pairs == ((2, 2), (-1, 4))
    assert remainder.coeffs == (1,)


def _faddeev_leverrier(a):
    """Coefficients of det(xI - A), ascending; the divisions are exact."""
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for step in range(1, n + 1):
        am = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)] for row in a]
        q, r = divmod(-sum(am[i][i] for i in range(n)), step)
        assert r == 0
        coeffs[n - step] = q
        for i in range(n):
            am[i][i] += q
        m = am
    return coeffs


def _random_symmetric(rng, k):
    a = [[0] * k for _ in range(k)]
    split = rng.randint(0, k)  # no entries across the split: disconnected
    for i in range(k):
        for j in range(i + 1, k):
            if (i < split) == (j < split):
                a[i][j] = a[j][i] = rng.randint(-3, 3)
    return a


def test_is_integral_rejects_a_twin_count_below_one():
    # each vertex stands for z twins: z = 0 gave a "complete" spectrum of
    # blocks of size 0, and z = -1 negative sizes
    graph = coset_graph(build(parse_family("dihedral:3")))
    for z in (0, -1):
        with pytest.raises(ParameterOutOfRange):
            is_integral(graph, z)
    # z must have type int itself: True used to run as z = 1
    for z in (1.0, True, Fraction(2)):
        with pytest.raises(TypeError):
            is_integral(graph, z)


def test_char_poly_matches_faddeev_leverrier_on_random_matrices():
    rng = random.Random(2016)
    for k in range(13):
        for _ in range(6):
            a = _random_symmetric(rng, k)
            assert list(char_poly(a).coeffs) == _faddeev_leverrier(a)


def _spy_char_poly_mod(monkeypatch):
    """Record the modulus of every call of _char_poly_mod."""
    calls = []
    original = spectra._char_poly_mod
    monkeypatch.setattr(
        spectra,
        "_char_poly_mod",
        lambda a, modulus: calls.append(modulus) or original(a, modulus),
    )
    return calls


# the Mersenne prime 2**61 - 1, whose powers are the engine's first moduli
_P = 2**61 - 1


def _mersenne_power(modulus):
    """The k with modulus = _P**k."""
    k = 1
    while _P**k < modulus:
        k += 1
    assert _P**k == modulus
    return k


# The modular engine is called directly: char_poly would hand it the twin
# quotient, a 1 x 1 matrix for K30 and a 3 x 3 one for the pivot matrices.


def test_char_poly_of_k30_takes_one_pass_modulo_p_cubed(monkeypatch):
    k30 = [[int(i != j) for j in range(30)] for i in range(30)]
    bound = row_sum_bound(k30)
    assert bound == 30**30
    calls = _spy_char_poly_mod(monkeypatch)
    assert spectra._modular_char_poly(k30, bound) == _faddeev_leverrier(k30)
    # B = 30**30 is about 2**147, so 2B exceeds P**2, about 2**122
    [modulus] = calls
    assert modulus == _P**3 > 2 * 30**30


def test_pivot_column_without_a_unit_takes_one_pass(monkeypatch):
    # column 0 below the diagonal holds only P: nonzero modulo P**k, not a
    # unit, so P is the pivot
    a = [[0, _P, 0, 0], [_P, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]
    calls = _spy_char_poly_mod(monkeypatch)
    assert spectra._modular_char_poly(a, row_sum_bound(a)) == _faddeev_leverrier(a)
    [modulus] = calls
    assert _mersenne_power(modulus) > 1
    # char_poly merges the twins 2 and 3; column 0 of the 3 x 3 quotient
    # still holds only P below the diagonal
    calls.clear()
    assert char_poly(a) == CharPoly((_P**2, -2, -_P**2 - 3, 0, 1))
    [modulus] = calls
    _mersenne_power(modulus)


def test_pivot_skips_an_entry_that_is_not_a_unit(monkeypatch):
    # column 0 below the diagonal holds P and then 1, which becomes the pivot
    a = [[0, _P, 1, 0], [_P, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]
    calls = _spy_char_poly_mod(monkeypatch)
    assert spectra._modular_char_poly(a, row_sum_bound(a)) == _faddeev_leverrier(a)
    [modulus] = calls
    assert _mersenne_power(modulus) > 1


def test_pivot_is_the_entry_of_least_valuation():
    # column 0 below the diagonal holds 9 and then 3 modulo 3**5, no unit:
    # 3 divides 9 and becomes the pivot, while 9 could not clear the 3
    a = [[0, 9, 3, 0], [9, 0, 1, 1], [3, 1, 0, 1], [0, 1, 1, 0]]
    expected = [36, 187, 150, 0, 1]
    assert [c % 3**5 for c in _faddeev_leverrier(a)] == expected
    pivots = []
    assert dense_char_poly_mod(a, 3**5, pivots) == expected
    assert pivots[0] == 3
    assert spectra._char_poly_mod(a, 3**5) == expected


def _block_keys(group):
    graph = build_commuting_graph(group)
    matrix = graph.to_matrix()
    return {
        tuple(tuple(matrix[i][j] for j in block) for i in block)
        for block in connected_components(graph)
    }


def test_every_grid_s4_and_a5_block_takes_one_pass(grid, monkeypatch):
    blocks = set()
    for group in [g for _, _, g in grid] + [
        permutation_group(4, False),
        permutation_group(5, True),
    ]:
        blocks |= _block_keys(group)
    blocks = [
        ([list(row) for row in key], row_sum_bound(key)) for key in sorted(blocks)
    ]
    calls = _spy_char_poly_mod(monkeypatch)
    coeffs = [spectra._modular_char_poly(b, bound) for b, bound in blocks]
    assert len(calls) == len(blocks)
    for (b, _), modulus, c in zip(blocks, calls, coeffs):
        _mersenne_power(modulus)
        assert [x % modulus for x in c] == dense_char_poly_mod(b, modulus)


@pytest.mark.parametrize(
    "make_group, distinct",
    [
        (lambda: build(FamilySpec.heis(7)), 1),
        (lambda: build(FamilySpec.dihedral(40)), 2),
        (lambda: permutation_group(5, False), 2),
    ],
    ids=["heis:7", "dihedral:40", "S5"],
)
def test_one_modular_pass_per_distinct_block(make_group, distinct, monkeypatch):
    # S5: a 95-vertex block and six copies of K_4; char_poly reduces the
    # whole matrix's twin quotient in one pass
    group = make_group()
    assert len(_block_keys(group)) == distinct
    graph = build_commuting_graph(group)
    calls = _spy_char_poly_mod(monkeypatch)
    is_integral(graph)
    assert len(calls) == distinct
    char_poly(graph.to_matrix())
    assert len(calls) == distinct + 1
    for modulus in calls:
        _mersenne_power(modulus)


@pytest.mark.parametrize("degree, even", [(4, False), (5, True)])
def test_char_poly_matches_sympy_on_s4_and_a5(degree, even):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    graph = build_commuting_graph(permutation_group(degree, even))
    matrix = graph.to_matrix()
    expected = sympy.Poly(1, x)
    for component in connected_components(graph):
        block = sympy.Matrix([[matrix[i][j] for j in component] for i in component])
        expected *= block.charpoly(x)
    expected_coeffs = [int(c) for c in reversed(expected.all_coeffs())]
    assert list(char_poly(matrix).coeffs) == expected_coeffs


def test_char_poly_coefficients_within_proven_bound(grid):
    for name, _, group in grid:
        matrix = build_commuting_graph(group).to_matrix()
        bound = (max(sum(row) for row in matrix) + 1) ** len(matrix)
        assert all(abs(c) <= bound for c in char_poly(matrix).coeffs), name


def test_wrong_modular_coefficient_fails_the_determinant_check(monkeypatch):
    original = spectra._modular_char_poly

    def off_by_one(a, bound):
        coeffs = original(a, bound)
        coeffs[0] += 1
        return coeffs

    monkeypatch.setattr(spectra, "_modular_char_poly", off_by_one)
    with pytest.raises(SpectralCheckError):
        char_poly(K3)


def _block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    a = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            a[offset + i][offset : offset + len(b)] = row
        offset += len(b)
    return a


def _complete(m):
    return [[int(i != j) for j in range(m)] for i in range(m)]


P3_MIDDLE_FIRST = [[0, 1, 1], [1, 0, 0], [1, 0, 0]]  # P3 with its middle vertex first


@pytest.mark.parametrize(
    "blocks",
    [
        [_complete(4)] * 5,
        [P3, P3_MIDDLE_FIRST, P3, P3_MIDDLE_FIRST],
        [K3, P3, K3, P3],
        [[[0]]] * 6,
        [[[0]], _complete(3), [[0]], _complete(3), [[0]], P3, [[0]]],
    ],
    ids=["repeated-k4", "p3-two-orders", "k3-beside-p3", "isolated", "mixed"],
)
def test_repeated_blocks_give_the_exact_char_poly(blocks):
    a = _block_diagonal(*blocks)
    assert list(char_poly(a).coeffs) == _faddeev_leverrier(a)


def _block_pool(rng):
    """Blocks to lay side by side: weighted ones, possibly disconnected
    themselves, weighted ones with twins, cliques and isolated vertices."""
    return [
        _random_symmetric(rng, rng.randint(1, 5)),
        _weighted_blow_up(rng, rng.randint(1, 3), 3),
        _complete(rng.randint(2, 4)),
        [[0]],
    ]


def test_repeated_random_blocks_give_the_exact_char_poly():
    rng = random.Random(5)
    for _ in range(40):
        pool = _block_pool(rng)
        a = _block_diagonal(*(rng.choice(pool) for _ in range(rng.randint(1, 6))))
        # a random vertex order scatters the copies and their twins
        perm = list(range(len(a)))
        rng.shuffle(perm)
        shuffled = [[a[perm[i]][perm[j]] for j in perm] for i in perm]
        expected = _faddeev_leverrier(a)
        assert _faddeev_leverrier(shuffled) == expected
        assert list(char_poly(a).coeffs) == expected
        assert list(char_poly(shuffled).coeffs) == expected


def test_char_poly_makes_one_kernel_call(monkeypatch):
    calls = []
    original = spectra._block_factor
    monkeypatch.setattr(
        spectra,
        "_block_factor",
        lambda key, z=1: calls.append((len(key), z)) or original(key, z),
    )
    assert char_poly([]) == CharPoly((1,)) and calls == []
    rng = random.Random(6)
    matrices = [K3, P3, [[0]], _block_diagonal(K3, K3, [[0]], P3)]
    for _ in range(20):
        pool = _block_pool(rng)
        matrices.append(
            _block_diagonal(*(rng.choice(pool) for _ in range(rng.randint(1, 6))))
        )
    for a in matrices:
        calls.clear()
        char_poly(a)
        assert calls == [(len(a), 1)]


def _count_determinants(monkeypatch):
    """Count the spot check's eliminations."""
    calls = []
    original = spectra._bareiss
    monkeypatch.setattr(
        spectra,
        "_bareiss",
        lambda rows, index: calls.append(1) or original(rows, index),
    )
    return calls


@pytest.mark.parametrize(
    "spec, blocks, distinct",
    [(FamilySpec.heis(7), 8, 1), (FamilySpec.dihedral(40), 21, 2)],
    ids=["heis:7", "dihedral:40"],
)
def test_each_distinct_block_is_spot_checked_once(spec, blocks, distinct, monkeypatch):
    # heis:7: eight copies of K_42; dihedral:40: twenty copies of K_2 and a K_38
    graph = build_commuting_graph(build(spec))
    assert len(connected_components(graph)) == blocks
    calls = _count_determinants(monkeypatch)
    is_integral(graph)
    assert len(calls) == 3 * distinct
    # char_poly checks the whole matrix once
    char_poly(graph.to_matrix())
    assert len(calls) == 3 * distinct + 3


def test_block_cache_does_not_outlive_the_call(monkeypatch):
    graph = raw_graph(*_edges_of(_K3, _K3, _P3))
    calls = _count_determinants(monkeypatch)
    assert is_integral(graph) == is_integral(graph)
    # two distinct blocks, three points each, in each of the two calls
    assert len(calls) == 2 * 3 * 2


def test_wrong_coefficient_in_a_repeated_block_fails_the_check(monkeypatch):
    original = spectra._modular_char_poly

    def off_by_one(a, bound):
        coeffs = original(a, bound)
        coeffs[0] += 1
        return coeffs

    monkeypatch.setattr(spectra, "_modular_char_poly", off_by_one)
    with pytest.raises(SpectralCheckError):
        char_poly(_block_diagonal(K3, K3, K3))


def _full_scan_integer_spectrum(poly, max_abs_root):
    """Every candidate from +bound down to -bound, no divisor filter."""
    desc = list(reversed(poly.coeffs))
    found = []
    zeros = 0
    while len(desc) > 1 and desc[-1] == 0:
        desc.pop()
        zeros += 1
    if zeros:
        found.append((0, zeros))
    for r in range(max_abs_root, -max_abs_root - 1, -1):
        if r == 0:
            continue
        mult = 0
        while len(desc) > 1:
            quotient, rem = spectra._divide_linear(desc, r)
            if rem != 0:
                break
            desc = quotient
            mult += 1
        if mult:
            found.append((r, mult))
    return spectrum_from_pairs(found), CharPoly(tuple(reversed(desc)))


def test_divisor_candidates_match_full_scan_on_grid(grid):
    for name, _, group in grid:
        graph = build_commuting_graph(group)
        poly = char_poly(graph.to_matrix())
        bound = max(row.bit_count() for row in graph.adjacency)
        expected = _full_scan_integer_spectrum(poly, bound)
        assert integer_spectrum(poly, bound) == expected, name


def test_divisor_candidates_match_full_scan_on_random_polynomials():
    rng = random.Random(44)
    for _ in range(300):
        degree = rng.randint(0, 4)
        poly = CharPoly(tuple(rng.randint(-6, 6) for _ in range(degree)) + (1,))
        for _ in range(rng.randint(0, 5)):
            poly = poly_product(poly, CharPoly((-rng.randint(-6, 6), 1)))
        bound = rng.randint(0, 8)
        assert integer_spectrum(poly, bound) == _full_scan_integer_spectrum(poly, bound)


@pytest.mark.parametrize(
    "coeffs, bound, drawn",
    [
        ((-2, -3, 0, 1), 100, range(100, -3, -1)),  # K3: (x - 2)(x + 1)^2
        ((0, 0, 0, 1), 5, [5]),  # x^3: constant once the zeros are peeled
        ((0, -2, 0, 1), 5, range(5, -6, -1)),  # P3: x(x^2 - 2) keeps x^2 - 2
    ],
    ids=["k3", "x^3", "p3"],
)
def test_root_scan_ends_when_the_remainder_is_constant(
    monkeypatch, coeffs, bound, drawn
):
    # the candidates come from one range, from +bound down to -bound; the
    # scan draws one value past the last root, sees the remainder is
    # constant and stops, where it used to draw all 2 * bound + 1
    tried = []

    def counting_range(*args):
        for r in range(*args):
            tried.append(r)
            yield r

    monkeypatch.setattr(spectra, "range", counting_range, raising=False)
    poly = CharPoly(coeffs)
    assert integer_spectrum(poly, bound) == _full_scan_integer_spectrum(poly, bound)
    assert tried == list(drawn)


def test_is_integral_multiplies_only_nonconstant_remainders(monkeypatch, grid):
    # only the calls from is_integral count: the Hessenberg pass calls
    # _poly_mul too
    calls = []
    original = spectra._poly_mul

    def spy(a, b):
        if sys._getframe(1).f_code is is_integral.__code__:
            calls.append(tuple(b))
        return original(a, b)

    monkeypatch.setattr(spectra, "_poly_mul", spy)
    # every grid block is a clique, whose remainder is 1
    for name, spec, group in grid:
        assert verify_group(group, name, spec).analysis.integral, name
    assert calls == []
    # K3's remainder is 1; each of the two C5 blocks leaves (x^2 + x - 1)^2
    analysis = is_integral(_RAW_GRAPHS["k3-c5-mixed"])
    assert calls == [(1, -2, -1, 2, 1)] * 2
    assert analysis.remainder == CharPoly((1, -4, 2, 8, -5, -8, 2, 4, 1))


def test_hessenberg_pass_multiplies_only_the_blocks_after_the_first(
    monkeypatch, grid
):
    # the first diagonal block's polynomial starts the product, so each pass
    # makes one _poly_mul per block after it, where it used to multiply the
    # first block by [1] too
    passes = []
    original_pass = spectra._char_poly_mod

    def counted_pass(a, p):
        passes.append({"blocks": 0, "products": 0})
        return original_pass(a, p)

    def counter(original, key):
        def spy(*args):
            if sys._getframe(1).f_code is original_pass.__code__:
                passes[-1][key] += 1
            return original(*args)

        return spy

    monkeypatch.setattr(spectra, "_char_poly_mod", counted_pass)
    monkeypatch.setattr(
        spectra,
        "_hessenberg_block_mod",
        counter(spectra._hessenberg_block_mod, "blocks"),
    )
    monkeypatch.setattr(spectra, "_poly_mul", counter(spectra._poly_mul, "products"))
    for name, spec, group in grid:
        verify_group(group, name, spec)
    # a weight-2 edge on vertices 1 and 3 and a triangle on 0, 2 and 4: the
    # twin quotient's Hessenberg form splits
    weighted = [
        [0, 0, 1, 0, 1],
        [0, 0, 0, 2, 0],
        [1, 0, 0, 0, 1],
        [0, 2, 0, 0, 0],
        [1, 0, 1, 0, 0],
    ]
    assert char_poly(weighted) == CharPoly((8, 12, -2, -7, 0, 1))
    assert passes[-1]["blocks"] > 1
    assert [c["products"] for c in passes] == [c["blocks"] - 1 for c in passes]


def _dense_char_poly(graph):
    """The product of the modular engine's polynomials of the whole blocks.

    No twin quotient is taken, so this reference shares nothing with the
    reduction that is_integral and char_poly apply before the engine.
    """
    matrix = graph.to_matrix()
    poly = CharPoly((1,))
    for block in connected_components(graph):
        dense = [[matrix[i][j] for j in block] for i in block]
        block_poly = CharPoly(
            tuple(spectra._modular_char_poly(dense, row_sum_bound(dense)))
        )
        poly = poly_product(poly, block_poly)
    return poly


def _oracle_analysis(graph):
    """The whole graph's polynomial from its dense blocks, roots divided out."""
    bound = max((row.bit_count() for row in graph.adjacency), default=0)
    poly = _dense_char_poly(graph)
    return poly, integer_spectrum(poly, bound)


def _edges_of(*blocks):
    """Edge lists of the blocks laid side by side, with their vertex count."""
    edges = []
    offset = 0
    for size, block_edges in blocks:
        edges += [(u + offset, v + offset) for u, v in block_edges]
        offset += size
    return offset, edges


_P3 = (3, [(0, 1), (1, 2)])
_P3_MIDDLE_FIRST = (3, [(0, 1), (0, 2)])
_C5 = (5, [(i, (i + 1) % 5) for i in range(5)])
_K3 = (3, [(0, 1), (1, 2), (0, 2)])
_RAW_GRAPHS = {
    "empty": raw_graph(0, []),
    "isolated": raw_graph(*_edges_of((1, []), _K3, (1, []), (1, []))),
    "p3-c5-p3": raw_graph(*_edges_of(_P3, _C5, _P3)),
    "p3-two-orders": raw_graph(*_edges_of(_P3, _P3_MIDDLE_FIRST)),
    "k3-c5-mixed": raw_graph(*_edges_of(_K3, _C5, _K3, _C5, _K3)),
}


def _differential_cases(grid):
    cases = [(name, build_commuting_graph(group)) for name, _, group in grid]
    for label, degree, even, seed in (
        ("S4", 4, False, 11),
        ("A5", 5, True, 12),
        ("S5", 5, False, 13),
    ):
        table = permutation_table(degree, even, random.Random(seed))
        cases.append((label, build_commuting_graph(from_cayley_table(table))))
    rng = random.Random(22)
    for i in range(40):
        blown_up = _blow_up(rng, rng.randint(1, 6), rng.random(), 4)[0]
        plain = _random_graph(rng, rng.randint(0, 12), rng.random())
        cases += [(f"blow-up {i}", blown_up), (f"random {i}", plain)]
    return cases + list(_RAW_GRAPHS.items())


def _assert_matches_the_whole_polynomial(name, graph):
    poly, (spectrum, remainder) = _oracle_analysis(graph)
    analysis = is_integral(graph)
    assert analysis.spectrum == spectrum, name
    assert analysis.integral == (remainder.degree == 0), name
    assert analysis.remainder.coeffs == remainder.coeffs, name
    assert expanded_char_poly(analysis) == poly, name


def test_factored_analysis_matches_the_whole_polynomial(grid):
    for name, graph in _differential_cases(grid):
        _assert_matches_the_whole_polynomial(name, graph)


def test_repeated_non_integral_block_repeats_in_the_remainder():
    analysis = is_integral(_RAW_GRAPHS["p3-c5-p3"])
    # P3: x^3 - 2x leaves x^2 - 2; C5: (x - 2)(x^2 + x - 1)^2
    x2_minus_2 = CharPoly((-2, 0, 1))
    golden = CharPoly((-1, 1, 1))
    assert analysis.remainder == poly_product(x2_minus_2, x2_minus_2, golden, golden)
    assert analysis.spectrum.pairs == ((2, 1), (0, 2))


def test_verify_group_never_forms_the_whole_polynomial(d12, monkeypatch):
    calls = []
    original = spectra.char_poly
    monkeypatch.setattr(
        spectra, "char_poly", lambda m: calls.append(1) or original(m)
    )
    report = verify_group(d12, "D12", FamilySpec.dihedral(6))
    assert calls == []
    # the analysis holds the block records, never the product
    assert not hasattr(report.analysis, "char_poly")
    graph = build_commuting_graph(d12)
    assert expanded_char_poly(report.analysis) == _dense_char_poly(graph)


@pytest.mark.parametrize(
    "make_group",
    [
        lambda: build(FamilySpec.dihedral(6)),
        lambda: build(FamilySpec.heis(5)),
        lambda: build(FamilySpec.dihedral(40)),
        lambda: from_cayley_table(permutation_table(4, False, random.Random(11))),
    ],
    ids=["D12", "heis:5", "dihedral:40", "S4"],
)
def test_verify_group_walks_the_components_once_and_expands_nothing(
    make_group, monkeypatch
):
    group = make_group()
    walks = []
    original = connected_components

    def counted(graph):
        walks.append(graph.vertex_count)
        return original(graph)

    def no_binomials(*args):
        raise AssertionError("a block polynomial was expanded")

    monkeypatch.setattr("commspec.graphs.connected_components", counted)
    monkeypatch.setattr(spectra, "connected_components", counted)
    monkeypatch.setattr(spectra, "comb", no_binomials)
    report = verify_group(group, "group")
    # one walk, over the q - 1 non-central cosets of the center
    cosets = len(group.center_cosets.cosets) - 1
    assert walks == [cosets]
    assert report.vertex_count == cosets * report.center_size
    assert sum(report.analysis.component_sizes) == report.vertex_count
    monkeypatch.undo()
    graph = build_commuting_graph(group)
    assert expanded_char_poly(report.analysis) == _dense_char_poly(graph)


@pytest.mark.parametrize(
    "make_graph, z, distinct",
    [
        (lambda: build_commuting_graph(build(FamilySpec.heis(7))), 1, 1),
        (lambda: build_commuting_graph(build(FamilySpec.dihedral(40))), 1, 2),
        # the same groups on their cosets: eight K_6 and a K_19 beside
        # twenty isolated cosets, each coset standing for |Z| elements
        (lambda: coset_graph(build(FamilySpec.heis(7))), 7, 1),
        (lambda: coset_graph(build(FamilySpec.dihedral(40))), 2, 2),
        (lambda: _RAW_GRAPHS["p3-c5-p3"], 1, 2),
        (lambda: _RAW_GRAPHS["p3-c5-p3"], 3, 2),
        # the same path twice, in two vertex orders: two submatrices
        (lambda: _RAW_GRAPHS["p3-two-orders"], 1, 2),
        (lambda: _RAW_GRAPHS["empty"], 1, 0),
    ],
    ids=[
        "heis:7",
        "dihedral:40",
        "heis:7-cosets",
        "dihedral:40-cosets",
        "p3-c5-p3",
        "p3-c5-p3-z3",
        "p3-two-orders",
        "empty",
    ],
)
def test_is_integral_proves_and_checks_each_distinct_block_once(
    make_graph, z, distinct, monkeypatch
):
    graph = make_graph()
    modular = []
    original = spectra._modular_char_poly
    monkeypatch.setattr(
        spectra,
        "_modular_char_poly",
        lambda a, bound: modular.append(1) or original(a, bound),
    )
    determinants = []
    original_determinant = spectra._bareiss

    def counted(rows, index):
        determinants.append(len(rows))
        return original_determinant(rows, index)

    monkeypatch.setattr(spectra, "_bareiss", counted)
    analysis = is_integral(graph, z)
    assert len(modular) == distinct
    # each check runs on the block of the given graph, not on its z-fold
    # blow-up
    sizes = sorted(b.size // z for b in analysis.blocks)
    assert sorted(determinants) == sorted(sizes * 3)


def test_a_shared_memo_changes_no_analysis(monkeypatch):
    # one memo over many graphs and z values: each (block key, z) is proved
    # once, and every analysis, records included, equals the unshared one
    rng = random.Random(29)
    graphs = [_random_graph(rng, rng.randint(0, 7), rng.random()) for _ in range(30)]
    graphs += [_blow_up(rng, rng.randint(1, 4), rng.random(), 3)[0] for _ in range(10)]
    graphs += list(_RAW_GRAPHS.values())
    runs = [(graph, z, is_integral(graph, z)) for graph in graphs for z in (1, 2, 3)]
    proved = []
    original = spectra._block_factor
    monkeypatch.setattr(
        spectra,
        "_block_factor",
        lambda key, z, symmetries: proved.append((key, z))
        or original(key, z, symmetries),
    )
    memo = {}
    for graph, z, alone in runs:
        shared = is_integral(graph, z, memo)
        assert shared == alone and shared.blocks == alone.blocks
    assert len(proved) == len(set(proved)) == len(memo)
    # the graphs share blocks, so some calls were answered from the memo
    assert len(memo) < sum(len(alone.blocks) for _, _, alone in runs)


def _placed(n, blocks):
    """A graph on n positions: each block a list of (u, v) edges on the
    positions it names; a position in no edge is an isolated vertex."""
    return raw_graph(n, [edge for edges in blocks for edge in edges])


def _clique_on(positions):
    return [(u, v) for i, u in enumerate(positions) for v in positions[i + 1 :]]


def test_clique_keys_equal_the_keys_read_from_the_rows():
    # cliques of 1, 2, 3 and 60 vertices on scattered positions
    rng = random.Random(31)
    n = 100
    positions = rng.sample(range(n), 66)
    cliques = [sorted(positions[:1]), sorted(positions[1:3])]
    cliques += [sorted(positions[3:6]), sorted(positions[6:])]
    graph = _placed(n, [_clique_on(c) for c in cliques])
    blocks = connected_components(graph)
    for clique in cliques:
        assert tuple(clique) in blocks
    for block in blocks:
        read = tuple(spectra._bit_rows(graph.adjacency, block))
        assert spectra._clique_rows(len(block)) == read, block
        assert read == (b"\x01" * len(block),) * len(block), block
    # is_integral keys every block so: its memo holds the keys read
    memo = {}
    is_integral(graph, 2, memo)
    expected = {
        (tuple(spectra._bit_rows(graph.adjacency, block)), 2) for block in blocks
    }
    assert set(memo) == expected
    assert {len(key) for key, _ in memo} == {1, 2, 3, 60}


def test_a_shared_memo_proves_a_clique_once_wherever_it_sits(monkeypatch):
    # a 5-clique first on positions 0..4, then scattered among a 7-path
    first = _placed(5, [_clique_on(range(5))])
    clique = [1, 4, 6, 9, 11]
    path = [p for p in range(12) if p not in clique]
    second = _placed(12, [_clique_on(clique), list(zip(path, path[1:]))])
    alone = {graph: is_integral(graph, 3) for graph in (first, second)}
    proved = []
    original = spectra._block_factor
    monkeypatch.setattr(
        spectra,
        "_block_factor",
        lambda key, z, symmetries: proved.append(len(key))
        or original(key, z, symmetries),
    )
    memo = {}
    # the clique, then only the path, then nothing new
    for graph, sizes in ((first, [5]), (second, [5, 7]), (first, [5, 7])):
        shared = is_integral(graph, 3, memo)
        assert proved == sizes
        assert shared == alone[graph] and shared.blocks == alone[graph].blocks


def test_blocks_that_are_not_cliques_are_read_from_the_rows(monkeypatch):
    # a star with its center first, a 4-clique less one edge whose first
    # vertex is adjacent to all, and a path; each row of a clique with its
    # own bit is the block, and only these blocks fail that test
    star = [(2, 5), (2, 8), (2, 11)]
    almost = [(u, v) for u, v in _clique_on([0, 3, 6, 9]) if (u, v) != (6, 9)]
    path = [(1, 4), (4, 7)]
    graph = _placed(14, [star, almost, path, _clique_on([10, 12, 13])])
    read = []
    original = spectra._bit_rows
    monkeypatch.setattr(
        spectra,
        "_bit_rows",
        lambda adjacency, block: read.append(block) or original(adjacency, block),
    )
    analysis = is_integral(graph)
    assert sorted(read) == [(0, 3, 6, 9), (1, 4, 7), (2, 5, 8, 11)]
    assert not analysis.all_cliques
    assert sorted(b.classes for b in analysis.blocks) == [1, 3, 3, 4]


def _expanded(graph, z, rng):
    """The element graph (C + I) (x) J_z - I of ``graph`` C: each vertex
    replaced by z true twins, the members shuffled over the positions."""
    positions = list(range(graph.vertex_count * z))
    rng.shuffle(positions)

    def members(u):
        return positions[u * z : (u + 1) * z]

    edges = [
        (a, b)
        for u in range(graph.vertex_count)
        for i, a in enumerate(members(u))
        for b in members(u)[i + 1 :]
    ]
    edges += [(a, b) for u, v in graph.edges() for a in members(u) for b in members(v)]
    return raw_graph(len(positions), edges)


def _block_multiset(analysis):
    """(size, twin classes, Q's polynomial) once per connected block."""
    return sorted(
        (b.size, b.classes, b.quotient.coeffs)
        for b in analysis.blocks
        for _ in range(b.count)
    )


def test_coset_identity_matches_the_expanded_element_graph():
    rng = random.Random(27)
    graphs = [_random_graph(rng, rng.randint(0, 9), rng.random()) for _ in range(40)]
    graphs += [_blow_up(rng, rng.randint(1, 5), rng.random(), 3)[0] for _ in range(20)]
    graphs += list(_RAW_GRAPHS.values())
    assert not all(is_integral(graph).all_cliques for graph in graphs)
    for i, graph in enumerate(graphs):
        for z in (1, 2, 3, 4):
            cosets = is_integral(graph, z)
            elements = is_integral(_expanded(graph, z, rng))
            # the spectrum and the remainder decide the verdict; the blocks
            # are listed in different orders, and are compared below
            assert (cosets.spectrum, cosets.remainder) == (
                elements.spectrum,
                elements.remainder,
            ), (i, z)
            assert cosets.component_sizes == elements.component_sizes, (i, z)
            assert cosets.all_cliques == elements.all_cliques, (i, z)
            assert expanded_char_poly(cosets) == expanded_char_poly(elements), (i, z)
            assert _block_multiset(cosets) == _block_multiset(elements), (i, z)


def test_coset_identity_on_weighted_blocks():
    # det(xI - E) = (x + 1)^(cz - r) det(xI - Q) for E = (C + I) (x) J_z - I,
    # against Faddeev-LeVerrier on E itself
    rng = random.Random(28)
    for _ in range(30):
        c = _weighted_blow_up(rng, rng.randint(1, 3), 2)
        z = rng.randint(1, 3)
        k = len(c) * z
        e = [
            [c[i // z][j // z] + (i // z == j // z) - (i == j) for j in range(k)]
            for i in range(k)
        ]
        quotient, bound = spectra._block_factor(closed_rows(c), z)
        poly = quotient
        for _ in range(len(e) - quotient.degree):
            poly = poly_product(poly, CharPoly((1, 1)))
        assert list(poly.coeffs) == _faddeev_leverrier(e)
        assert bound == max(sum(map(abs, row)) for row in e)


def _random_raw_graphs():
    rng = random.Random(25)
    return [_random_graph(rng, rng.randint(1, 40), rng.random()) for _ in range(20)]


@pytest.mark.parametrize(
    "make_graphs",
    [
        lambda: [_s4_graph()],
        lambda: [build_commuting_graph(permutation_group(5, True))],
        lambda: [build_commuting_graph(permutation_group(5, False))],
        lambda: [build_commuting_graph(build(FamilySpec.heis(5)))],
        # the reflections of D6 and D10 are isolated vertices
        lambda: [build_commuting_graph(build(FamilySpec.dihedral(m))) for m in (3, 5)],
        lambda: [_RAW_GRAPHS["isolated"], _RAW_GRAPHS["empty"]],
        _random_raw_graphs,
    ],
    ids=["S4", "A5", "S5", "heis:5", "singletons", "raw-singletons", "random"],
)
def test_block_keys_are_the_bitwise_submatrices(make_graphs, monkeypatch):
    keys = []
    original = spectra._block_factor
    monkeypatch.setattr(
        spectra,
        "_block_factor",
        lambda key, z, symmetries: keys.append(key) or original(key, z, symmetries),
    )
    for graph in make_graphs():
        keys.clear()
        analysis = is_integral(graph)
        adjacency = graph.adjacency
        expected = {}
        for block in connected_components(graph):
            key = closed_rows([[adjacency[i] >> j & 1 for j in block] for i in block])
            expected[key] = expected.get(key, 0) + 1
        # one kernel call per distinct key, in the order of the records
        assert all(type(row) is bytes for key in keys for row in key)
        counts = [b.count for b in analysis.blocks]
        assert {tuple(map(tuple, k)): c for k, c in zip(keys, counts)} == expected
        assert len(keys) == len(expected)


# Twin quotient: the kernel reduces each block that is_integral reads, and
# the whole matrix that char_poly reads, to one row per twin class, while
# the Bareiss oracle keeps every row.


def _blow_up(rng, base_size, edge_chance, max_part):
    """A random graph with each vertex replaced by a clique or an independent set.

    Returns the graph, shuffled, with its clique parts (true twins) and its
    independent parts (false twins) as lists of vertex positions.
    """
    base = [
        (u, v)
        for u in range(base_size)
        for v in range(u + 1, base_size)
        if rng.random() < edge_chance
    ]
    parts = [list(range(rng.randint(1, max_part))) for _ in range(base_size)]
    cliques = [rng.random() < 0.5 for _ in range(base_size)]
    names = [(b, i) for b, part in enumerate(parts) for i in part]
    rng.shuffle(names)
    position = {name: p for p, name in enumerate(names)}
    edges = [
        (position[b, i], position[c, j])
        for b, c in base
        for i in parts[b]
        for j in parts[c]
    ]
    edges += [
        (position[b, i], position[b, j])
        for b, part in enumerate(parts)
        if cliques[b]
        for i in part
        for j in part[i + 1 :]
    ]
    grouped = [[position[b, i] for i in part] for b, part in enumerate(parts)]
    return (
        raw_graph(len(names), edges),
        [g for g, c in zip(grouped, cliques) if c],
        [g for g, c in zip(grouped, cliques) if not c],
    )


def _random_graph(rng, n, edge_chance):
    return raw_graph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < edge_chance
        ],
    )


def test_twin_classes_merge_true_twins_and_keep_false_twins_apart():
    rng = random.Random(21)
    for _ in range(40):
        graph, cliques, independents = _blow_up(rng, rng.randint(1, 6), 0.4, 4)
        classes = spectra._twin_classes(closed_rows(graph.to_matrix()))
        labels = {v: c for c, members in enumerate(classes) for v in members}
        for part in cliques:
            assert len({labels[v] for v in part}) == 1
        for part in independents:
            assert len({labels[v] for v in part}) == len(part)
        closed = [graph.adjacency[v] | 1 << v for v in range(graph.vertex_count)]
        pairs = [(u, v) for u in range(len(closed)) for v in range(u)]
        assert [labels[u] == labels[v] for u, v in pairs] == [
            closed[u] == closed[v] for u, v in pairs
        ]


def test_twin_classes_are_ordered_member_lists():
    rng = random.Random(33)
    matrices = [[]]
    for _ in range(60):
        n = rng.randint(1, 12)
        matrices += [
            _random_symmetric(rng, n),
            _weighted_blow_up(rng, rng.randint(1, 4), 4),
            _blow_up(rng, rng.randint(1, 5), rng.random(), 4)[0].to_matrix(),
            _random_graph(rng, n, rng.random()).to_matrix(),
        ]
    for a in matrices:
        closed = closed_rows(a)
        classes = spectra._twin_classes(closed)
        # a partition of range(c) into ascending lists, ordered by first member
        assert sorted(i for members in classes for i in members) == list(range(len(a)))
        assert all(members == sorted(members) for members in classes)
        firsts = [members[0] for members in classes]
        assert firsts == sorted(firsts)
        # two rows share a list exactly when their rows of A + I are equal
        label = {i: k for k, members in enumerate(classes) for i in members}
        for i in range(len(a)):
            for j in range(i):
                assert (label[i] == label[j]) == (closed[i] == closed[j])


def test_quotient_matches_the_whole_polynomial_on_generated_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.floats(0, 1),
        st.integers(1, 5),
        st.booleans(),
    )
    def check(seed, base_size, edge_chance, max_part, blown_up):
        rng = random.Random(seed)
        if blown_up:
            graph = _blow_up(rng, base_size, edge_chance, max_part)[0]
        else:
            graph = _random_graph(rng, base_size * max_part, edge_chance)
        _assert_matches_the_whole_polynomial(seed, graph)

    check()


def test_subtracting_earlier_rows_keeps_the_determinant():
    # the oracle's twin preconditioning, under arbitrary maps i -> p < i
    rng = random.Random(23)
    for n in range(1, 12):
        for _ in range(10):
            matrix = rng.choice([_sparse_signs, _low_rank_product])(rng, n)
            previous = [rng.randint(-1, i - 1) for i in range(n)]
            reduced = [
                row if p < 0 else [x - y for x, y in zip(row, matrix[p])]
                for row, p in zip(matrix, previous)
            ]
            det = exact_determinant(matrix)
            assert exact_determinant(reduced) == det == _fraction_det(matrix)


def _quotient_product(analysis):
    """The product of the records' Q polynomials, each taken count times: q
    with (x + 1)^(n - deg q) q(x) the whole graph's polynomial."""
    return poly_product(*(b.quotient for b in analysis.blocks for _ in range(b.count)))


def _random_partition(rng, n, parts):
    """range(n) cut at random into at most ``parts`` lists of ascending
    indices, in order of their first members: a partition that need not be
    the twin classes."""
    classes = {}
    for i in range(n):
        classes.setdefault(rng.randrange(parts), []).append(i)
    return sorted(classes.values())


def test_spot_check_accepts_the_true_polynomial_under_any_class_map():
    rng = random.Random(24)
    graphs = (
        _blow_up(rng, 5, 0.5, 3)[0],
        _RAW_GRAPHS["k3-c5-mixed"],
        build_commuting_graph(build(FamilySpec.dihedral(6))),
    )
    cases = [
        (closed_rows(graph.to_matrix()), _quotient_product(is_integral(graph)))
        for graph in graphs
    ]
    # where twins were merged, q is of lower degree than the whole polynomial
    assert [quotient.degree < len(matrix) for matrix, quotient in cases] == [
        False,
        True,
        True,
    ]
    for _ in range(20):
        for matrix, quotient in cases:
            # the true classes, every vertex alone, all in one list, and
            # random cuts, most of them wrong
            partitions = [
                spectra._twin_classes(matrix),
                [[i] for i in range(len(matrix))],
                [list(range(len(matrix)))],
            ]
            partitions += [_random_partition(rng, len(matrix), p) for p in (2, 3, 5)]
            wrong = CharPoly((quotient.coeffs[0] + 1, *quotient.coeffs[1:]))
            for classes in partitions:
                spectra._spot_check(quotient, matrix, classes)
                with pytest.raises(SpectralCheckError):
                    spectra._spot_check(wrong, matrix, classes)


def _s4_graph():
    return build_commuting_graph(
        from_cayley_table(permutation_table(4, False, random.Random(11)))
    )


def _s5_graph():
    return build_commuting_graph(permutation_group(5, False))


# S5's 95-vertex block reaches the check in ascending nonzero count, not in
# its key order (test_s5_block_reaches_the_determinant_in_ascending_nonzero_count)
@pytest.mark.parametrize(
    "make_graph",
    [lambda: raw_graph(4, [(0, 1), (1, 2), (2, 3)]), _s4_graph, _s5_graph],
    ids=["P4", "S4", "S5"],
)
def test_merging_non_twins_fails_the_determinant_check(make_graph, monkeypatch):
    graph = make_graph()
    block = max(connected_components(graph), key=len)
    matrix = graph.to_matrix()
    classes = spectra._twin_classes(
        closed_rows([[matrix[i][j] for j in block] for i in block])
    )
    # the block's first two vertices are not twins
    assert [members[0] for members in classes[:2]] == [0, 1]
    original = spectra._twin_classes

    def merge_the_first_two_classes(a):
        classes = original(a)
        if len(a) == len(block):
            classes = [sorted(classes[0] + classes[1]), *classes[2:]]
        return classes

    monkeypatch.setattr(spectra, "_twin_classes", merge_the_first_two_classes)
    with pytest.raises(SpectralCheckError):
        is_integral(graph)


def test_wrong_quotient_coefficient_fails_the_determinant_check(monkeypatch):
    original = spectra._modular_char_poly

    def off_by_one(a, bound):
        coeffs = original(a, bound)
        coeffs[-2] += 1
        return coeffs

    monkeypatch.setattr(spectra, "_modular_char_poly", off_by_one)
    heis3 = build_commuting_graph(build(FamilySpec.heis(3)))
    for graph in (heis3, _s4_graph(), _s5_graph()):
        with pytest.raises(SpectralCheckError):
            is_integral(graph)


def _modular_sizes(monkeypatch):
    sizes = []
    original = spectra._modular_char_poly
    monkeypatch.setattr(
        spectra,
        "_modular_char_poly",
        lambda a, bound: sizes.append((len(a), len(a[0]))) or original(a, bound),
    )
    return sizes


def test_clique_blocks_reduce_to_one_row(grid, monkeypatch):
    specs = ("heis:7", "metacyclic:12,6", "dihedral:40")
    groups = [g for _, _, g in grid] + [build(parse_family(s)) for s in specs]
    graphs = [build_commuting_graph(group) for group in groups]
    sizes = _modular_sizes(monkeypatch)
    for graph in graphs:
        is_integral(graph)
    assert sizes and set(sizes) == {(1, 1)}
    # char_poly reads the whole matrix: one row per clique component
    for graph in graphs:
        sizes.clear()
        char_poly(graph.to_matrix())
        components = len(connected_components(graph))
        assert sizes == [(components, components)]


def test_s5_block_reduces_to_fifty_rows(monkeypatch):
    graph = _s5_graph()
    sizes = _modular_sizes(monkeypatch)
    is_integral(graph)
    # the 95-vertex block and six copies of K_4
    assert sorted(sizes) == [(1, 1), (50, 50)]
    sizes.clear()
    char_poly(graph.to_matrix())
    # the whole matrix: the block's fifty rows and one row per K_4
    assert sizes == [(56, 56)]


def _weighted_blow_up(rng, base_size, max_part):
    """A symmetric matrix whose rows repeat a random weighted base's rows.

    The base is connected, has a zero diagonal and weights in -3..3.  Each
    base vertex becomes a class of members joined to each other by weight 1
    that share its base row; the members are shuffled.
    """
    base = [[0] * base_size for _ in range(base_size)]
    for i in range(1, base_size):
        j = rng.randrange(i)  # a spanning tree of nonzero weights
        base[i][j] = base[j][i] = rng.choice([-3, -2, -1, 1, 2, 3])
    for i in range(base_size):
        for j in range(i + 1, base_size):
            if not base[i][j]:
                base[i][j] = base[j][i] = rng.randint(-3, 3)
    owner = [b for b in range(base_size) for _ in range(rng.randint(1, max_part))]
    rng.shuffle(owner)
    return [
        [int(u != v) if b == c else base[b][c] for v, c in enumerate(owner)]
        for u, b in enumerate(owner)
    ]


def test_twin_quotient_of_weighted_rows(monkeypatch):
    rng = random.Random(26)
    quotients = []
    original = spectra._modular_char_poly
    monkeypatch.setattr(
        spectra,
        "_modular_char_poly",
        lambda a, bound: quotients.append(a) or original(a, bound),
    )
    for _ in range(60):
        a = _weighted_blow_up(rng, rng.randint(1, 5), 4)
        closed = set(closed_rows(a))
        quotients.clear()
        assert list(char_poly(a).coeffs) == _faddeev_leverrier(a)
        [q] = quotients
        assert len(q) == len(closed) and {len(row) for row in q} == {len(closed)}
        assert max(sum(map(abs, row)) for row in q) == max(
            sum(map(abs, row)) for row in a
        )


# Vertex order: a block with more than one twin class reaches the quotient
# and the check with its rows and columns in ascending nonzero count; a
# complete block keeps its key order.


def _permuted(a, order):
    return [[a[i][j] for j in order] for i in order]


def _group_blocks():
    """The largest blocks of the commuting graphs of S4, A5 and S5."""
    blocks = []
    for degree, even in ((4, False), (5, True), (5, False)):
        graph = build_commuting_graph(permutation_group(degree, even))
        matrix = graph.to_matrix()
        block = max(connected_components(graph), key=len)
        blocks.append([[matrix[i][j] for j in block] for i in block])
    return blocks


def test_block_factor_does_not_depend_on_the_vertex_order():
    rng = random.Random(29)
    cases = [(c, 1) for c in _group_blocks()]
    cases += [
        (_weighted_blow_up(rng, rng.randint(1, 5), 4), rng.randint(1, 3))
        for _ in range(20)
    ]
    cases += [(graph.to_matrix(), 1) for graph in _random_raw_graphs()]
    for c, z in cases:
        expected = spectra._block_factor(closed_rows(c), z)
        for _ in range(3):
            order = list(range(len(c)))
            rng.shuffle(order)
            key = closed_rows(_permuted(c, order))
            assert spectra._block_factor(key, z) == expected


def _shifted_minus_next_twin(c, t):
    """tI - C with each row minus the row of the next vertex that has the
    same row of C + I: the check's input for z = 1, from its statement."""
    shifted = [[t * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(c)]
    following = {}
    rows = [None] * len(c)
    closed = closed_rows(c)
    for i in reversed(range(len(c))):
        s = following.get(closed[i])
        following[closed[i]] = i
        rows[i] = (
            shifted[i] if s is None else [x - y for x, y in zip(shifted[i], shifted[s])]
        )
    return rows


def _dense(rows):
    """The square matrix whose row i holds the entries of the dict rows[i]."""
    return [[row.get(j, 0) for j in range(len(rows))] for row in rows]


def _determinant_inputs(monkeypatch):
    """Record each matrix the spot check eliminates, densely, before the
    elimination overwrites it, and check its determinant against the dense
    elimination's."""
    inputs = []
    original = spectra._bareiss

    def recorded(rows, index):
        matrix = _dense(rows)
        inputs.append(matrix)
        det = original(rows, index)
        assert det == dense_bareiss([row.copy() for row in matrix])
        return det

    monkeypatch.setattr(spectra, "_bareiss", recorded)
    return inputs


def test_s5_block_reaches_the_determinant_in_ascending_nonzero_count(monkeypatch):
    graph = _s5_graph()
    block = max(connected_components(graph), key=len)
    matrix = graph.to_matrix()
    c = [[matrix[i][j] for j in block] for i in block]
    counts = [sum(map(bool, row)) for row in c]
    order = sorted(range(len(c)), key=counts.__getitem__)  # stable
    assert order != sorted(order)  # the key order is not ascending
    ascending = _permuted(c, order)
    expected = [_shifted_minus_next_twin(ascending, t) for t in (0, 1, 2)]
    inputs = _determinant_inputs(monkeypatch)
    is_integral(graph)
    assert [m for m in inputs if len(m) == 95] == expected
    # char_poly orders the whole matrix the same way
    counts = [sum(map(bool, row)) for row in matrix]
    order = sorted(range(len(matrix)), key=counts.__getitem__)
    ascending = _permuted(matrix, order)
    inputs.clear()
    char_poly(matrix)
    assert inputs == [_shifted_minus_next_twin(ascending, t) for t in (0, 1, 2)]


@pytest.mark.parametrize("spec", ["heis:7", "dihedral:40"])
def test_complete_blocks_reach_the_determinant_in_key_order(spec, monkeypatch):
    graph = build_commuting_graph(build(parse_family(spec)))
    matrix = graph.to_matrix()
    keys = {
        tuple(tuple(matrix[i][j] for j in block) for i in block)
        for block in connected_components(graph)
    }
    # a clique is the same matrix in every order, so what shows that no
    # order was applied is that each block's twins are found once
    labelled = []
    original = spectra._twin_classes
    monkeypatch.setattr(
        spectra,
        "_twin_classes",
        lambda a: labelled.append(tuple(map(tuple, a))) or original(a),
    )
    inputs = _determinant_inputs(monkeypatch)
    assert is_integral(graph).all_cliques
    assert sorted(labelled) == sorted(map(closed_rows, keys))
    expected = [_shifted_minus_next_twin(k, t) for k in keys for t in (0, 1, 2)]
    assert sorted(inputs) == sorted(expected)


# Coefficient bound: _block_factor hands the engine (S + 1)^r, S the least
# integer with r S^2 >= tr(Q^2); the engine called directly keeps (R + 1)^k.


def _least_rms_bound(q):
    """The least S >= 0 with r S^2 >= tr(Q^2), counted up from 0."""
    r = len(q)
    trace = sum(q[i][j] * q[j][i] for i in range(r) for j in range(r))
    s = 0
    while r * s * s < trace:
        s += 1
    return s


def _engine_calls(monkeypatch):
    """Record (matrix, bound) for every call of _modular_char_poly."""
    calls = []
    original = spectra._modular_char_poly
    monkeypatch.setattr(
        spectra,
        "_modular_char_poly",
        lambda a, bound: calls.append((a, bound)) or original(a, bound),
    )
    return calls


def test_eigenvalue_bound_covers_the_coefficients(monkeypatch):
    rng = random.Random(30)
    cases = [(_random_symmetric(rng, rng.randint(1, 10)), 1) for _ in range(30)]
    cases += [
        (_weighted_blow_up(rng, rng.randint(1, 5), 3), z)
        for z in (1, 2, 3)
        for _ in range(10)
    ]
    cases += [(c, 1) for c in _group_blocks()]
    engine = spectra._modular_char_poly
    calls = _engine_calls(monkeypatch)
    for c, z in cases:
        spectra._block_factor(closed_rows(c), z)
    assert len(calls) == len(cases)
    # each part of a split takes the bound from its own S and rows: parts
    # of planted matrices, and of the S4 and S5 quotients
    unsplit = len(calls)
    for z in (1, 2, 3):
        for _ in range(10):
            a, gens = _planted_symmetries(rng, rng.randint(1, 3), rng.random())
            spectra._block_factor(closed_rows(a), z, gens)
    for degree in (4, 5):
        _split_analysis(permutation_group(degree, False))
    assert len(calls) > unsplit + 60
    tighter = 0
    for k, (q, bound) in enumerate(calls):
        s = _least_rms_bound(q)
        row_sum = max(sum(map(abs, row)) for row in q)
        assert bound == (s + 1) ** len(q)
        assert s <= row_sum
        assert sum(map(abs, _faddeev_leverrier(q))) <= bound
        assert engine(q, bound) == engine(q, row_sum_bound(q))
        tighter += k < unsplit and s < row_sum
    assert tighter > len(cases) // 2


def test_s5_quotient_needs_p_squared_under_the_eigenvalue_bound(monkeypatch):
    engine = spectra._modular_char_poly
    calls = _engine_calls(monkeypatch)
    moduli = _spy_char_poly_mod(monkeypatch)
    is_integral(_s5_graph())
    powers = {len(q): _mersenne_power(m) for (q, _), m in zip(calls, moduli)}
    # the 50-row quotient of the 95-vertex block, and K_4's one row
    assert powers == {50: 2, 1: 1}
    [(q, bound)] = [(q, bound) for q, bound in calls if len(q) == 50]
    # S = 3, so 2B has 102 bits, below P**2's 122
    assert bound == 4**50 and (2 * bound).bit_length() == 102
    # R = 10: under the row-sum bound (R + 1)^50, 2B has 174 bits and needs P**3
    assert row_sum_bound(q) == 11**50 and (2 * 11**50).bit_length() == 174
    moduli.clear()
    engine(q, row_sum_bound(q))
    [modulus] = moduli
    assert _mersenne_power(modulus) == 3


# The spot check's points: at t = -1 a block with twins has (t + 1)^(c - r)
# = 0 and difference rows that vanish, so both sides read 0 there.


@pytest.mark.parametrize(
    "degree, size, classes", [(4, 15, 9), (5, 95, 50)], ids=["S4", "S5"]
)
def test_a_polynomial_wrong_only_at_minus_one_fails_the_check(
    degree, size, classes, monkeypatch
):
    graph = build_commuting_graph(
        from_cayley_table(permutation_table(degree, False, random.Random(1)))
    )
    [block] = [b for b in is_integral(graph).blocks if b.classes > 1]
    assert (block.size, block.classes) == (size, classes)
    # q + 5x^2 - 5x equals q at 0 and 1, and at -1 both sides are 0, so it
    # passes the points {0, 1, -1}; at 2 it is off by 3^(c - r) 10
    q = block.quotient.coeffs
    wrong = CharPoly((q[0], q[1] - 5, q[2] + 5, *q[3:]))
    vertices = max(connected_components(graph), key=len)
    matrix = graph.to_matrix()
    c = [[matrix[i][j] for j in vertices] for i in vertices]
    for t in (0, 1, -1):
        shifted = [[t * (i == j) - x for j, x in enumerate(r)] for i, r in enumerate(c)]
        twins = (t + 1) ** (size - classes)
        assert twins * wrong.evaluate(t) == exact_determinant(shifted)
    original = spectra._modular_char_poly

    def wrong_only_at_minus_one(a, bound):
        coeffs = original(a, bound)
        if len(a) == classes:
            coeffs[1] -= 5
            coeffs[2] += 5
        return coeffs

    monkeypatch.setattr(spectra, "_modular_char_poly", wrong_only_at_minus_one)
    with pytest.raises(SpectralCheckError):
        is_integral(graph)


# Sparse Hessenberg pass: _char_poly_mod touches only the nonzero entries of
# the pivot row and of the target columns, and must give the residues of the
# dense pass in tests/oracles.py modulo any prime power.


def _random_square(rng, n, density, symmetric):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if symmetric else 0, n):
            if rng.random() < density:
                a[i][j] = rng.randint(-5, 5)
                if symmetric:
                    a[j][i] = a[i][j]
    return a


def _moduli():
    """P, P**2, P**3 and two small prime powers whose pivot columns often
    have nonzero entries but no unit."""
    return [_P, _P**2, _P**3, 3**5, 2**10]


def _assert_same_residues(a, modulus):
    """The sparse pass's residues, which must equal the dense pass's, and
    the number of pivots of the dense pass that are not units."""
    pivots = []
    sparse = spectra._char_poly_mod(a, modulus)
    assert sparse == dense_char_poly_mod(a, modulus, pivots), (a, modulus)
    return sparse, sum(g > 1 for g in pivots)


def test_sparse_pass_matches_the_dense_pass_on_random_matrices():
    rng = random.Random(31)
    non_units = 0
    for density in (0.1, 0.3, 1.0):
        for symmetric in (True, False):
            for _ in range(15):
                a = _random_square(rng, rng.randint(0, 12), density, symmetric)
                for modulus in _moduli():
                    non_units += _assert_same_residues(a, modulus)[1]
    # only the small prime powers have nonzero entries that are not units
    assert non_units > 0


def test_passes_match_faddeev_leverrier_modulo_prime_powers():
    # each entry of a matrix read modulo q**e is q**v times a number in
    # -2..2, for a random v <= e, so that many pivot columns have nonzero
    # entries but no unit and several valuations
    rng = random.Random(33)
    non_units = 0
    for q, e in ((3, 5), (5, 3), (7, 2), (2, 10), (_P, 1), (_P, 2)):
        modulus = q**e
        for symmetric in (True, False):
            for _ in range(20):
                n = rng.randint(0, 10)
                a = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i if symmetric else 0, n):
                        a[i][j] = q ** rng.randint(0, e) * rng.randint(-2, 2)
                        if symmetric:
                            a[j][i] = a[i][j]
                expected = [c % modulus for c in _faddeev_leverrier(a)]
                residues, count = _assert_same_residues(a, modulus)
                assert residues == expected, (a, modulus)
                non_units += count
    assert non_units >= 100


def test_sparse_pass_matches_the_dense_pass_on_weighted_blow_ups():
    rng = random.Random(32)
    for _ in range(20):
        a = _weighted_blow_up(rng, rng.randint(1, 5), 4)
        for modulus in _moduli():
            _assert_same_residues(a, modulus)


def test_sparse_pass_matches_the_dense_pass_on_the_group_quotients(monkeypatch):
    calls = _engine_calls(monkeypatch)
    for c in _group_blocks():
        spectra._block_factor(closed_rows(c), 1)
    # the twin quotients of S4's, A5's and S5's largest blocks; A5's is a
    # clique
    assert [len(q) for q, _ in calls] == [9, 1, 50]
    for q, _ in calls:
        for modulus in _moduli():
            _assert_same_residues(q, modulus)


def test_sparse_and_dense_passes_agree_on_a_column_without_a_unit():
    # column 0 below the diagonal holds only P: nonzero modulo P**2, not a unit
    a = [[0, _P, 0, 0], [_P, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]
    residues, non_units = _assert_same_residues(a, _P**2)
    assert residues == [c % _P**2 for c in _faddeev_leverrier(a)]
    assert non_units == 1


# Sparse elimination: _bareiss keeps each row as its entries, updates only
# the pivot row's support, and gives each entry its own level.  The dense
# elimination in tests/oracles.py and elimination over the rationals are
# the oracles.


def _elimination_events(matrix):
    """The cases of Bareiss elimination on ``matrix`` that per-entry levels
    must get right, found by updating every entry at every step, with the
    first nonzero at or below the diagonal as pivot:

    - "swap": the pivot position holds 0 and a row below does not;
    - "stale": two or more steps only rescale a nonzero entry, at least one
      of them while updating the entry's row, before a step changes it;
    - "fill": a step makes a zero entry nonzero;
    - "cancel": a step with a nonzero factor and pivot-row entry makes a
      nonzero entry 0.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    ids = list(range(n))
    skipped = {}  # (row, column) -> (steps that only rescaled it, in its row's update)
    events = set()
    previous = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            break
        if p != k:
            events.add("swap")
            a[k], a[p] = a[p], a[k]
            ids[k], ids[p] = ids[p], ids[k]
        pivot = a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k]
            for j in range(k + 1, n):
                x, y = a[i][j], a[k][j]
                new = (pivot * x - factor * y) // previous
                key = (ids[i], j)
                if factor and y:
                    steps, within = skipped.pop(key, (0, False))
                    if steps >= 2 and within:
                        events.add("stale")
                    if not x and new:
                        events.add("fill")
                    if x and not new:
                        events.add("cancel")
                elif x:
                    steps, within = skipped.get(key, (0, False))
                    skipped[key] = (steps + 1, within or bool(factor))
                a[i][j] = new
        previous = pivot
    return events


def test_elimination_events_on_hand_cases():
    # step 0 cancels (1, 1) and leaves (2, 1) nonzero, so step 1 swaps
    assert _elimination_events([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == {
        "cancel",
        "swap",
    }
    # step 0 fills (1, 1)
    assert _elimination_events([[1, 1], [1, 0]]) == {"fill"}
    # step 0 updates row 3 and cancels (3, 1), so step 1 skips row 3; the
    # pivot rows of both steps hold 0 in column 3, and step 2 reads (3, 3)
    assert _elimination_events(
        [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]]
    ) == {"cancel", "stale"}


def test_exact_determinant_matches_the_dense_elimination_and_fractions():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = set()

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 9))
        entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
        row = st.lists(entry, min_size=n, max_size=n)
        matrix = data.draw(st.lists(row, min_size=n, max_size=n))
        plant = data.draw(st.sampled_from(("none", "repeat", "zero-corner")))
        if plant == "repeat" and n > 1:
            # a repeated row cancels to 0 where it meets its copy
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            matrix[i] = list(matrix[j])
        elif plant == "zero-corner":
            # the first pivot is 0, so a row below must be swapped up
            matrix[0][0] = 0
        seen.update(_elimination_events(matrix))
        det = exact_determinant(matrix)
        assert det == dense_bareiss([list(r) for r in matrix]) == _fraction_det(matrix)

    check()
    assert seen == {"swap", "stale", "fill", "cancel"}


def test_spot_check_determinants_match_the_dense_oracles(monkeypatch):
    # z in {1, 2, 3}: at t = z - 1 the diagonal t + 1 - z of tI - W is 0, so
    # the last member of each class has a zero diagonal at one point
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    inputs = _determinant_inputs(monkeypatch)
    zero_diagonal = set()

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.floats(0, 1),
        st.integers(1, 3),
        st.integers(1, 3),
    )
    def check(seed, base_size, edge_chance, max_part, z):
        graph = _blow_up(random.Random(seed), base_size, edge_chance, max_part)[0]
        inputs.clear()
        is_integral(graph, z)
        for m in inputs:
            assert dense_bareiss([row.copy() for row in m]) == _fraction_det(m)
            if any(m[i][i] == 0 for i in range(len(m))):
                zero_diagonal.add(z)

    check()
    assert zero_diagonal == {1, 2, 3}


class _CountedRow(dict):
    """A row of the elimination that counts, in ``touched[0]``, the entries
    read, written or probed through it."""

    def __init__(self, entries, touched):
        super().__init__(entries)
        self.touched = touched

    def get(self, key, default=None):
        self.touched[0] += 1
        return super().get(key, default)

    def pop(self, key, *default):
        self.touched[0] += 1
        return super().pop(key, *default)

    def __getitem__(self, key):
        self.touched[0] += 1
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self.touched[0] += 1
        super().__setitem__(key, value)

    def __contains__(self, key):
        self.touched[0] += 1
        return super().__contains__(key)

    def items(self):
        items = list(super().items())
        self.touched[0] += len(items)
        return items


def _clique(c):
    return [[int(i != j) for j in range(c)] for i in range(c)]


@pytest.mark.parametrize("c", [50, 100, 200])
@pytest.mark.parametrize("z", [1, 3])
def test_clique_check_touches_linearly_many_entries(c, z, monkeypatch):
    # each class member's difference row reaches only the class's last row,
    # in one column, so a point costs O(c) entries; the dense elimination
    # of the same matrix touches c^2 / 2
    original = spectra._bareiss
    touched = []

    def counted(rows, index):
        count = [0]
        det = original([_CountedRow(row, count) for row in rows], index)
        touched.append(count[0])
        return det

    monkeypatch.setattr(spectra, "_bareiss", counted)
    analysis = is_integral(raw_graph(c, [(u, v) for u in range(c) for v in range(u)]), z)
    assert analysis.spectrum.pairs == ((c * z - 1, 1), (-1, c * z - 1))
    assert len(touched) == 3
    assert c <= min(touched) and max(touched) <= 8 * c


@pytest.mark.parametrize("z", [1, 3])
def test_wrong_polynomial_fails_the_clique_check_under_any_class_map(z):
    rng = random.Random(26)
    c = 50
    key = closed_rows(_clique(c))
    true = CharPoly((1 - c * z, 1))
    wrong = CharPoly((2 - c * z, 1))
    for parts in range(1, 11):
        classes = _random_partition(rng, c, parts)
        spectra._spot_check(true, key, classes, z)
        with pytest.raises(SpectralCheckError):
            spectra._spot_check(wrong, key, classes, z)


def _path_matrix(k):
    """The path on k vertices: its k rows of C + I are k twin classes."""
    return [[int(abs(i - j) == 1) for j in range(k)] for i in range(k)]


def test_a_twin_quotient_past_the_budget_is_refused_before_the_pass(monkeypatch):
    # with the budget patched to 4 rows: a path on 5 vertices has 5 twin
    # classes and is refused before any Hessenberg pass, and one on 4 is
    # admitted; a clique of any size is one class
    passes = []
    original = spectra._modular_char_poly

    def counted(a, bound):
        passes.append(len(a))
        return original(a, bound)

    monkeypatch.setattr(spectra, "_modular_char_poly", counted)
    monkeypatch.setattr(spectra, "_MAX_TWIN_CLASSES", 4)
    message = "the twin quotient has 5 rows; the Hessenberg pass takes at most 4"
    with pytest.raises(BudgetExceeded) as info:
        char_poly(_path_matrix(5))
    assert str(info.value) == message
    path = raw_graph(5, [(i, i + 1) for i in range(4)])
    with pytest.raises(BudgetExceeded):
        is_integral(path)
    assert passes == []
    assert char_poly(_path_matrix(4)) == CharPoly((1, 0, -3, 0, 1))
    assert is_integral(raw_graph(9, [(i, j) for i in range(9) for j in range(i)])).integral
    assert passes == [4, 1]


def test_verify_reports_a_block_past_the_budget_as_one_error_line(monkeypatch, capsys):
    # prod:dihedral:3,dihedral:3 decides one block of 35 cosets in 24 twin
    # classes: with the budget patched to 23, verify ends with exit 1
    monkeypatch.setattr(spectra, "_MAX_TWIN_CLASSES", 23)
    assert main(["verify", "prod:dihedral:3,dihedral:3"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: the twin quotient has 24 rows; the Hessenberg pass takes at most 23\n"
    )
    monkeypatch.setattr(spectra, "_MAX_TWIN_CLASSES", 24)
    assert main(["verify", "prod:dihedral:3,dihedral:3"]) == 0


# Split: _block_factor splits Q by the commuting involutions among its
# candidates; without candidates it makes the unsplit pass, the oracle here.


def _planted_symmetries(rng, k, density):
    """A random symmetric 0/1 matrix with a zero diagonal, on shuffled rows,
    and k commuting involutions of its rows that keep it.

    Each orbit of E = (Z/2)^k is the subgroup of the generators t it lets
    act, on which t flips bit t; the others fix it.  Each orbit of E on the
    pairs of points gets one random bit.
    """
    orbits = [
        [t for t in range(k) if rng.random() < 0.6] for _ in range(rng.randint(1, 4))
    ]
    points = [
        (o, bits)
        for o, acting in enumerate(orbits)
        for bits in range(1 << k)
        if all(t in acting for t in range(k) if bits >> t & 1)
    ]
    index = {p: i for i, p in enumerate(points)}
    gens = [
        [index[o, bits ^ (t in orbits[o]) << t] for o, bits in points]
        for t in range(k)
    ]
    elements = [list(range(len(points)))]
    for g in gens:
        elements += [[g[x] for x in e] for e in elements]
    n = len(points)
    a = [[None] * n for _ in range(n)]
    for u in range(n):
        a[u][u] = 0
        for v in range(u + 1, n):
            if a[u][v] is None:
                bit = int(rng.random() < density)
                for e in elements:
                    a[e[u]][e[v]] = a[e[v]][e[u]] = bit
    place = list(range(n))  # point x becomes row place[x]
    rng.shuffle(place)
    shuffled = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            shuffled[place[x]][place[y]] = a[x][y]
    moved = []
    for g in gens:
        image = [0] * n
        for x in range(n):
            image[place[x]] = place[g[x]]
        moved.append(image)
    return shuffled, moved


def _part_sizes(monkeypatch):
    """Record the rows of every matrix _modular_char_poly receives."""
    sizes = []
    original = spectra._modular_char_poly
    monkeypatch.setattr(
        spectra,
        "_modular_char_poly",
        lambda a, bound: sizes.append(len(a)) or original(a, bound),
    )
    return sizes


@pytest.mark.parametrize("z", [1, 2, 3])
def test_planted_involutions_split_to_the_unsplit_polynomial(z, monkeypatch):
    rng = random.Random(43 + z)
    sizes = _part_sizes(monkeypatch)
    split = 0
    for _ in range(40):
        a, gens = _planted_symmetries(rng, rng.randint(1, 3), rng.random())
        key = closed_rows(a)
        sizes.clear()
        unsplit = spectra._block_factor(key, z)
        assert len(sizes) == 1
        r = sizes[0]
        sizes.clear()
        assert spectra._block_factor(key, z, gens) == unsplit
        assert sum(sizes) == r
        split += len(sizes) > 1
    # most planted matrices split: the others are one class, or their
    # involutions only swap twins
    assert split > 20


def _conjugations(group, elements):
    """For each coset a of G/Z in ``elements``, the map b -> a b a^-1 of
    the coset graph's vertices."""
    table = quotient_by_center(group).table
    inverse = [row.index(0) for row in table]
    return [
        tuple(table[table[a][b]][inverse[a]] - 1 for b in range(1, len(table)))
        for a in elements
    ]


def _split_analysis(group, candidates=None):
    """is_integral on the coset graph, split by ``candidates`` or, when
    None, by the candidates verify_group passes."""
    if candidates is None:
        candidates = _commuting_involutions(group)
    return is_integral(coset_graph(group), len(center(group)), None, lambda: candidates)


@pytest.mark.parametrize(
    "degree, parts",
    [(4, [6, 3]), (5, [22, 10, 10, 8]), (6, [73, 31, 31, 31, 31, 31, 31, 21])],
    ids=["S4", "S5", "S6"],
)
def test_group_quotients_split_to_the_unsplit_polynomial(degree, parts, monkeypatch):
    # the seed-1 tables: the S4 quotient of 9 rows, S5's of 50 and S6's of
    # 280, each from the block that is not a clique
    group = from_cayley_table(permutation_table(degree, False, random.Random(1)))
    sizes = _part_sizes(monkeypatch)
    split = _split_analysis(group)
    assert sorted(s for s in sizes if s > 1) == sorted(parts)
    [block] = [b for b in split.blocks if b.classes > 1]
    assert block.classes == sum(parts)
    sizes.clear()
    assert is_integral(coset_graph(group), len(center(group))) == split
    assert sorted(s for s in sizes if s > 1) == [sum(parts)]


def test_each_candidate_that_fails_a_test_is_dropped(monkeypatch):
    # S4's seed-1 table: one involution splits its 9-row quotient into parts
    # of 6 and 3 rows, and adding a candidate that fails a test changes
    # nothing; each failure is checked here on the maps of the twin classes
    group = from_cayley_table(permutation_table(4, False, random.Random(1)))
    table = quotient_by_center(group).table
    graph = coset_graph(group)
    block = max(connected_components(graph), key=len)
    row = {v: graph.adjacency[v] | 1 << v for v in block}
    classes = {}
    for v in block:
        classes.setdefault(row[v], []).append(v)

    def class_map(perm):
        return {row[v]: row[perm[v]] for v in block}

    def compose(f, g):
        return {c: f[g[c]] for c in g}

    candidates = _commuting_involutions(group)
    good = next(p for p in candidates if any(a != b for a, b in class_map(p).items()))
    involutions = [a for a in range(1, len(table)) if table[a][a] == 0]
    other = next(
        p
        for p in _conjugations(group, involutions)
        if compose(class_map(p), class_map(good)) != compose(class_map(good), class_map(p))
    )
    three = next(a for a in range(1, len(table)) if _power(table, a, 3) == 0)
    [turn] = _conjugations(group, [three])
    assert any(a != b for a, b in compose(class_map(turn), class_map(turn)).items())
    # two classes of one size whose swap is no automorphism of the block
    swap = next(
        perm
        for a, b in itertools.combinations(classes.values(), 2)
        if len(a) == len(b)
        for perm in [_swapped(len(graph.vertices), a, b)]
        if any(
            (graph.adjacency[perm[x]] >> perm[y] & 1) != (graph.adjacency[x] >> y & 1)
            for x in block
            for y in block
        )
    )
    sizes = _part_sizes(monkeypatch)
    unsplit = is_integral(graph, len(center(group)))
    assert sorted(sizes) == [1, 9]
    sizes.clear()
    assert _split_analysis(group, [good]) == unsplit
    assert sorted(sizes) == [1, 3, 6]
    bad = {
        "not an automorphism": swap,
        "not an involution": turn,
        "not commuting": other,
        "the identity": tuple(range(len(graph.vertices))),
        "a duplicate": good,
    }
    for name, extra in bad.items():
        sizes.clear()
        assert _split_analysis(group, [good, extra]) == unsplit, name
        assert sorted(sizes) == [1, 3, 6], name
        # alone, a candidate that is no involution of Q splits nothing, and
        # the other two split as the good one does
        sizes.clear()
        assert _split_analysis(group, [extra]) == unsplit, name
        alone = [1, 3, 6] if name in ("not commuting", "a duplicate") else [1, 9]
        assert sorted(sizes) == alone, name


def _power(table, a, k):
    x = 0
    for _ in range(k):
        x = table[x][a]
    return x


def _swapped(n, a, b):
    """The permutation of range(n) that swaps the members of the equally
    long lists a and b in order."""
    perm = list(range(n))
    for x, y in zip(a, b):
        perm[x], perm[y] = y, x
    return perm


@pytest.mark.parametrize("degree", [4, 5])
def test_a_wrong_part_fails_the_spot_check(degree, monkeypatch):
    # one coefficient of the largest part off by one
    group = from_cayley_table(permutation_table(degree, False, random.Random(1)))
    largest = {4: 6, 5: 22}[degree]
    original = spectra._modular_char_poly

    def off_by_one(a, bound):
        coeffs = original(a, bound)
        if len(a) == largest:
            coeffs[1] += 1
        return coeffs

    monkeypatch.setattr(spectra, "_modular_char_poly", off_by_one)
    with pytest.raises(SpectralCheckError):
        _split_analysis(group)


def test_the_candidate_source_is_asked_at_most_once():
    # two blocks that are not cliques, a path of 3 and one of 4, and a
    # triangle: the source is asked at the first of the paths only, and a
    # map that swaps two blocks reaches neither
    graph = raw_graph(10, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (7, 8), (8, 9), (7, 9)])
    asked = []
    flip = (2, 1, 0, 6, 5, 4, 3, 7, 8, 9)
    swap = (7, 8, 9, 3, 4, 5, 6, 0, 1, 2)

    def source():
        asked.append(1)
        return [flip, swap]

    memo = {}
    assert is_integral(graph, 2, memo, source) == is_integral(graph, 2)
    assert asked == [1]
    # every block from the memo: not asked
    assert is_integral(graph, 2, memo, source) == is_integral(graph, 2)
    assert asked == [1]
    # cliques only: not asked
    triangle = raw_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert is_integral(triangle, 1, None, source).all_cliques
    assert asked == [1]
