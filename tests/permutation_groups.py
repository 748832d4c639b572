"""Cayley tables of the symmetric and alternating groups, and relabelled
tables of any group, for the tests."""

import itertools


def permutation_table(degree, even, rng=None):
    """Cayley table of the symmetric or alternating group.

    The elements are in lexicographic order, identity first, unless rng is
    given; then they are shuffled.  The product is composition,
    (a*b)(x) = a(b(x)).
    """
    perms = list(itertools.permutations(range(degree)))
    if even:
        pairs = list(itertools.combinations(range(degree), 2))
        perms = [p for p in perms if sum(p[i] > p[j] for i, j in pairs) % 2 == 0]
    if rng is not None:
        rng.shuffle(perms)
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[x] for x in b)] for b in perms] for a in perms]


def permutation_group(degree, even):
    # imported here: console_checks reads only the tables, and runs commspec
    # in processes of its own
    from commspec.groups import from_cayley_table

    return from_cayley_table(permutation_table(degree, even))


def relabelled_table(table, rng):
    """The same group with its elements renamed by a random permutation that
    moves element 0, the identity of a table from from_cayley_table, off
    index 0."""
    n = len(table)
    assert n > 1, "a trivial group has no other labelling"
    perm = list(range(n))  # element a becomes perm[a]
    while perm[0] == 0:
        rng.shuffle(perm)
    old = [0] * n
    for a, new in enumerate(perm):
        old[new] = a
    return [[perm[table[a][b]] for b in old] for a in old]
