import random
from fractions import Fraction

import pytest

from commspec import spectra
from commspec.catalog import FamilySpec, build, parse_family
from commspec.errors import (
    IncompleteSpectrumError,
    NonzeroDiagonalError,
    NotMonicError,
    NotSymmetricError,
    ParameterOutOfRange,
    SpectralCheckError,
)
from commspec.graphs import build_commuting_graph, connected_components, coset_graph
from commspec.groups import _MR_BOUND, from_cayley_table, is_prime
from commspec.predictions import verify_group
from commspec.spectra import (
    CharPoly,
    char_poly,
    exact_determinant,
    integer_spectrum,
    is_integral,
    spectra_agree,
    spectrum_from_pairs,
)

from oracles import clique_union_spectrum, poly_product, raw_graph
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


def test_char_poly_rejects_floats():
    with pytest.raises(TypeError):
        char_poly([[0.0, 1.0], [1.0, 0.0]])


def test_exact_determinant_rejects_floats():
    with pytest.raises(TypeError):
        exact_determinant([[1, 0], [0, 1.0]])


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
    for t in (0, 1, -1):
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
    assert spectrum.complete
    assert remainder.coeffs == (1,)


def test_integer_spectrum_with_irrational_part():
    spectrum, remainder = integer_spectrum(char_poly(P3), 2)
    assert spectrum.pairs == ((0, 1),)
    assert not spectrum.complete
    assert remainder.coeffs == (-2, 0, 1)  # x^2 - 2


def test_integer_spectrum_of_power_of_x():
    poly = CharPoly((0, 0, 0, 0, 1))  # x^4
    spectrum, remainder = integer_spectrum(poly, 0)
    assert spectrum.pairs == ((0, 4),)
    assert spectrum.complete
    assert remainder.coeffs == (1,)


def test_non_monic_rejected():
    with pytest.raises(NotMonicError):
        CharPoly((1, 2))
    with pytest.raises(NotMonicError):
        CharPoly(())


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
    assert spectra_agree(a, b)


def test_spectra_agree_distinguishes_multiplicity():
    assert not spectra_agree(
        spectrum_from_pairs([(0, 1)]), spectrum_from_pairs([(0, 2)])
    )


def test_spectra_agree_requires_completeness():
    partial = spectrum_from_pairs([(0, 1)], complete=False)
    with pytest.raises(IncompleteSpectrumError):
        spectra_agree(partial, spectrum_from_pairs([(0, 1)]))


def test_clique_union_matches_brute_force_for_q8(q8):
    analysis = is_integral(build_commuting_graph(q8))
    assert spectra_agree(clique_union_spectrum([2, 2, 2]), analysis.spectrum)


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
    assert product.coeffs == analysis.char_poly.coeffs


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


def test_char_poly_matches_faddeev_leverrier_on_random_matrices():
    rng = random.Random(2016)
    for k in range(13):
        for _ in range(6):
            a = _random_symmetric(rng, k)
            assert list(char_poly(a).coeffs) == _faddeev_leverrier(a)


def _spy_char_poly_mod(monkeypatch):
    """Record (modulus, gave up) for every call of _char_poly_mod."""
    calls = []
    original = spectra._char_poly_mod

    def spy(a, modulus):
        residues = original(a, modulus)
        calls.append((modulus, residues is None))
        return residues

    monkeypatch.setattr(spectra, "_char_poly_mod", spy)
    return calls


def _crt_factors(modulus):
    """The leading CRT primes whose product is modulus."""
    primes = []
    product = 1
    while product < modulus:
        primes.append(spectra._crt_prime(len(primes)))
        product *= primes[-1]
    assert product == modulus
    return primes


# The modular engine is called directly: char_poly would hand it the twin
# quotient, a 1 x 1 matrix for K30 and a 3 x 3 one for the pivot matrices.


def test_char_poly_of_k30_needs_three_primes(monkeypatch):
    k30 = [[int(i != j) for j in range(30)] for i in range(30)]
    calls = _spy_char_poly_mod(monkeypatch)
    assert spectra._multimodular_char_poly(k30) == _faddeev_leverrier(k30)
    # one pass, modulo a product of distinct CRT primes; B = 30**30 is about
    # 2**147, so 2B exceeds any product of two of them
    [(modulus, gave_up)] = calls
    assert not gave_up
    primes = _crt_factors(modulus)
    assert len(set(primes)) == len(primes) >= 3
    assert modulus > 2 * 30**30


def test_pivot_column_without_a_unit_falls_back_to_one_pass_per_prime(monkeypatch):
    p = spectra._crt_prime(0)
    # column 0 below the diagonal holds only p: nonzero modulo M, not a unit
    a = [[0, p, 0, 0], [p, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]
    calls = _spy_char_poly_mod(monkeypatch)
    assert spectra._multimodular_char_poly(a) == _faddeev_leverrier(a)
    (modulus, gave_up), *per_prime = calls
    assert gave_up
    assert per_prime == [(q, False) for q in _crt_factors(modulus)]


def test_pivot_skips_an_entry_that_is_not_a_unit(monkeypatch):
    p = spectra._crt_prime(0)
    # column 0 below the diagonal holds p and then 1, which becomes the pivot
    a = [[0, p, 1, 0], [p, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]
    calls = _spy_char_poly_mod(monkeypatch)
    assert spectra._multimodular_char_poly(a) == _faddeev_leverrier(a)
    [(modulus, gave_up)] = calls
    assert not gave_up
    assert p in _crt_factors(modulus)


def _distinct_blocks(group):
    graph = build_commuting_graph(group)
    matrix = graph.to_matrix()
    return {
        tuple(tuple(matrix[i][j] for j in block) for i in block)
        for block in connected_components(graph)
    }


def test_single_pass_agrees_with_per_prime_path(grid, monkeypatch):
    blocks = set()
    for group in [g for _, _, g in grid] + [
        permutation_group(4, False),
        permutation_group(5, True),
    ]:
        blocks |= _distinct_blocks(group)
    blocks = [[list(row) for row in key] for key in sorted(blocks)]
    calls = _spy_char_poly_mod(monkeypatch)
    single = [spectra._multimodular_char_poly(b) for b in blocks]
    assert len(calls) == len(blocks) and not any(g for _, g in calls)
    # refuse every composite modulus, forcing the Garner path
    original = spectra._char_poly_mod
    monkeypatch.setattr(
        spectra,
        "_char_poly_mod",
        lambda a, modulus: original(a, modulus) if modulus < 2**62 else None,
    )
    assert [spectra._multimodular_char_poly(b) for b in blocks] == single


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
    # S5: a 95-vertex block and six copies of K_4
    group = make_group()
    assert len(_distinct_blocks(group)) == distinct
    calls = _spy_char_poly_mod(monkeypatch)
    char_poly(build_commuting_graph(group).to_matrix())
    assert len(calls) == distinct
    assert not any(gave_up for _, gave_up in calls)


def test_crt_primes_are_the_largest_primes_below_2_62():
    # published offsets of the ten largest primes below 2**62
    offsets = (57, 87, 117, 143, 153, 167, 171, 195, 203, 273)
    assert [2**62 - spectra._crt_prime(i) for i in range(10)] == list(offsets)


def _is_prime_by_trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_miller_rabin_agrees_with_trial_division():
    assert [n for n in range(3000) if is_prime(n)] == [
        n for n in range(3000) if _is_prime_by_trial_division(n)
    ]
    assert is_prime(2**61 - 1)
    assert is_prime(2**62 - 57)
    # a strong pseudoprime to the bases 2, 3, 5 and 7, a Carmichael number
    # and the square of a prime
    assert not is_prime(3215031751)
    assert not is_prime(561)
    assert not is_prime((2**31 - 1) ** 2)
    # the least strong pseudoprime to all 12 bases is past the exact range
    with pytest.raises(ParameterOutOfRange):
        is_prime(_MR_BOUND)
    assert not is_prime(_MR_BOUND + 1)  # even


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
    original = spectra._multimodular_char_poly

    def off_by_one(a):
        coeffs = original(a)
        coeffs[0] += 1
        return coeffs

    monkeypatch.setattr(spectra, "_multimodular_char_poly", off_by_one)
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


def test_repeated_random_blocks_give_the_exact_char_poly():
    rng = random.Random(5)
    for _ in range(12):
        pool = [_random_symmetric(rng, rng.randint(1, 5)) for _ in range(3)]
        a = _block_diagonal(*(rng.choice(pool) for _ in range(rng.randint(1, 5))))
        # a random vertex order scatters the copies and changes their keys
        perm = list(range(len(a)))
        rng.shuffle(perm)
        shuffled = [[a[perm[i]][perm[j]] for j in perm] for i in perm]
        assert list(char_poly(a).coeffs) == _faddeev_leverrier(a)
        assert char_poly(shuffled) == char_poly(a)


def _count_determinants(monkeypatch):
    calls = []
    original = spectra.exact_determinant
    monkeypatch.setattr(
        spectra, "exact_determinant", lambda m: calls.append(1) or original(m)
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
    char_poly(graph.to_matrix())
    assert len(calls) == 3 * distinct


def test_block_cache_does_not_outlive_the_call(monkeypatch):
    a = _block_diagonal(K3, K3, P3)
    calls = _count_determinants(monkeypatch)
    assert char_poly(a) == char_poly(a)
    assert len(calls) == 2 * 3 * 2


def test_wrong_coefficient_in_a_repeated_block_fails_the_check(monkeypatch):
    original = spectra._multimodular_char_poly

    def off_by_one(a):
        coeffs = original(a)
        coeffs[0] += 1
        return coeffs

    monkeypatch.setattr(spectra, "_multimodular_char_poly", off_by_one)
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
    remainder = CharPoly(tuple(reversed(desc)))
    return spectrum_from_pairs(found, complete=remainder.degree == 0), remainder


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


def _dense_char_poly(graph):
    """The product of the modular engine's polynomials of the whole blocks.

    No twin quotient is taken, so this reference shares nothing with the
    reduction that is_integral and char_poly apply before the engine.
    """
    matrix = graph.to_matrix()
    poly = CharPoly((1,))
    for block in connected_components(graph):
        dense = [[matrix[i][j] for j in block] for i in block]
        block_poly = CharPoly(tuple(spectra._multimodular_char_poly(dense)))
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
    assert analysis.integral == spectrum.complete, name
    assert analysis.remainder.coeffs == remainder.coeffs, name
    assert analysis.char_poly == poly, name


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
    assert "char_poly" not in vars(report.analysis)
    assert report.analysis.char_poly == _dense_char_poly(report.graph)
    assert "char_poly" in vars(report.analysis)


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
    assert sum(report.component_sizes) == report.vertex_count
    monkeypatch.undo()
    assert report.analysis.char_poly == _dense_char_poly(report.graph)


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
    original = spectra._multimodular_char_poly
    monkeypatch.setattr(
        spectra, "_multimodular_char_poly", lambda a: modular.append(1) or original(a)
    )
    determinants = []
    original_determinant = spectra.exact_determinant

    def counted(m):
        determinants.append(len(m))
        return original_determinant(m)

    monkeypatch.setattr(spectra, "exact_determinant", counted)
    analysis = is_integral(graph, z)
    assert len(modular) == distinct
    # each check runs on the block of the given graph, not on its z-fold
    # blow-up
    sizes = sorted(b.size // z for b in analysis.blocks)
    assert sorted(determinants) == sorted(sizes * 3)


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
            # equality covers the verdict, the spectrum and the remainder
            assert cosets == elements, (i, z)
            assert cosets.component_sizes == elements.component_sizes, (i, z)
            assert cosets.all_cliques == elements.all_cliques, (i, z)
            assert cosets.char_poly == elements.char_poly, (i, z)
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
        quotient, bound = spectra._block_factor(tuple(map(tuple, c)), z)
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
    original = spectra._distinct_blocks
    monkeypatch.setattr(
        spectra,
        "_distinct_blocks",
        lambda graph, rows: keys.append(original(graph, rows)) or keys[-1],
    )
    for graph in make_graphs():
        is_integral(graph)
        adjacency = graph.adjacency
        expected = {}
        for block in connected_components(graph):
            key = tuple(tuple(adjacency[i] >> j & 1 for j in block) for i in block)
            expected[key] = expected.get(key, 0) + 1
        blocks = keys.pop()
        assert all(type(row) is bytes for key in blocks for row in key)
        assert {tuple(map(tuple, k)): c for k, c in blocks.items()} == expected


# Twin quotient: is_integral and char_poly(matrix) reduce each block to one
# row per twin class, while the Bareiss oracle keeps the whole block.


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
        labels = spectra._twin_classes(graph.to_matrix())
        for part in cliques:
            assert len({labels[v] for v in part}) == 1
        for part in independents:
            assert len({labels[v] for v in part}) == len(part)
        closed = [graph.adjacency[v] | 1 << v for v in range(graph.vertex_count)]
        pairs = [(u, v) for u in range(len(closed)) for v in range(u)]
        assert [labels[u] == labels[v] for u, v in pairs] == [
            closed[u] == closed[v] for u, v in pairs
        ]


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
    blocks = analysis.blocks
    return CharPoly(
        tuple(spectra._power_product((b.quotient.coeffs, b.count) for b in blocks))
    )


def test_spot_check_accepts_the_true_polynomial_under_any_class_map():
    rng = random.Random(24)
    graphs = (
        _blow_up(rng, 5, 0.5, 3)[0],
        _RAW_GRAPHS["k3-c5-mixed"],
        build_commuting_graph(build(FamilySpec.dihedral(6))),
    )
    cases = [
        (graph.to_matrix(), _quotient_product(is_integral(graph))) for graph in graphs
    ]
    # where twins were merged, q is of lower degree than the whole polynomial
    assert [quotient.degree < len(matrix) for matrix, quotient in cases] == [
        False,
        True,
        True,
    ]
    for _ in range(20):
        for matrix, quotient in cases:
            labels = [rng.randint(0, 2) for _ in matrix]
            spectra._spot_check(quotient, matrix, labels)
            wrong = CharPoly((quotient.coeffs[0] + 1, *quotient.coeffs[1:]))
            with pytest.raises(SpectralCheckError):
                spectra._spot_check(wrong, matrix, labels)


def _s4_graph():
    return build_commuting_graph(
        from_cayley_table(permutation_table(4, False, random.Random(11)))
    )


@pytest.mark.parametrize(
    "make_graph",
    [lambda: raw_graph(4, [(0, 1), (1, 2), (2, 3)]), _s4_graph],
    ids=["P4", "S4"],
)
def test_merging_non_twins_fails_the_determinant_check(make_graph, monkeypatch):
    graph = make_graph()
    block = max(connected_components(graph), key=len)
    matrix = graph.to_matrix()
    labels = spectra._twin_classes([[matrix[i][j] for j in block] for i in block])
    assert labels[:2] == [0, 1]  # the block's first two vertices are not twins
    original = spectra._twin_classes

    def merge_the_first_two_classes(a):
        labels = original(a)
        if len(a) == len(block):
            labels = [0 if c == 1 else c - (c > 1) for c in labels]
        return labels

    monkeypatch.setattr(spectra, "_twin_classes", merge_the_first_two_classes)
    with pytest.raises(SpectralCheckError):
        is_integral(graph)


def test_wrong_quotient_coefficient_fails_the_determinant_check(monkeypatch):
    original = spectra._multimodular_char_poly

    def off_by_one(a):
        coeffs = original(a)
        coeffs[-2] += 1
        return coeffs

    monkeypatch.setattr(spectra, "_multimodular_char_poly", off_by_one)
    for graph in (build_commuting_graph(build(FamilySpec.heis(3))), _s4_graph()):
        with pytest.raises(SpectralCheckError):
            is_integral(graph)


def _modular_sizes(monkeypatch):
    sizes = []
    original = spectra._multimodular_char_poly
    monkeypatch.setattr(
        spectra,
        "_multimodular_char_poly",
        lambda a: sizes.append((len(a), len(a[0]))) or original(a),
    )
    return sizes


# each graph goes through both entry points, which share the block helper
_ANALYSES = (is_integral, lambda graph: char_poly(graph.to_matrix()))


def test_clique_blocks_reduce_to_one_row(grid, monkeypatch):
    specs = ("heis:7", "metacyclic:12,6", "dihedral:40")
    groups = [g for _, _, g in grid] + [build(parse_family(s)) for s in specs]
    graphs = [build_commuting_graph(group) for group in groups]
    sizes = _modular_sizes(monkeypatch)
    for analyse in _ANALYSES:
        sizes.clear()
        for graph in graphs:
            analyse(graph)
        assert sizes and set(sizes) == {(1, 1)}


def test_s5_block_reduces_to_fifty_rows(monkeypatch):
    graph = build_commuting_graph(permutation_group(5, False))
    sizes = _modular_sizes(monkeypatch)
    for analyse in _ANALYSES:
        sizes.clear()
        analyse(graph)
        # the 95-vertex block and six copies of K_4
        assert sorted(sizes) == [(1, 1), (50, 50)]


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
    original = spectra._multimodular_char_poly
    monkeypatch.setattr(
        spectra,
        "_multimodular_char_poly",
        lambda a: quotients.append(a) or original(a),
    )
    for _ in range(60):
        a = _weighted_blow_up(rng, rng.randint(1, 5), 4)
        closed = {
            tuple(x + (i == j) for j, x in enumerate(row)) for i, row in enumerate(a)
        }
        quotients.clear()
        assert list(char_poly(a).coeffs) == _faddeev_leverrier(a)
        [q] = quotients
        assert len(q) == len(closed) and {len(row) for row in q} == {len(closed)}
        assert max(sum(map(abs, row)) for row in q) == max(
            sum(map(abs, row)) for row in a
        )
