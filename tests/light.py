"""Light's associativity test, its generating set and a closure of its own,
kept as an oracle for the walk and the checks in ``groups``."""

from operator import itemgetter


def close(rows, gens, span):
    """Grow ``span`` in place to its closure under right multiplication by
    ``gens`` (breadth-first search) and return it."""
    queue = list(span)
    for x in queue:  # the loop also visits what it appends
        for g in gens:
            y = rows[x][g]
            if y not in span:
                span.add(y)
                queue.append(y)
    return span


def generating_set(rows):
    """Greedy generating set: each element not yet in the span, in index order.

    The span is the closure of {0} (the identity) under right
    multiplication by the generators chosen so far.
    """
    gens = []
    span = {0}
    for x in range(len(rows)):
        if x not in span:
            gens.append(x)
            close(rows, gens, span)
    return gens


def light_witness(rows):
    """The first (x, g, y) with (x*g)*y != x*(g*y) and g in the generating
    set, or None when there is none.

    Light's test (Clifford & Preston, *The Algebraic Theory of Semigroups*
    I, section 1.2) is exact for any table with a two-sided identity 0: the
    a with (x*a)*y == x*(a*y) for all x, y hold the identity and are closed
    under products, so they hold the span of the generators, which is
    every element.  It makes n*|S| row comparisons.
    """
    rows = [tuple(row) for row in rows]
    for g in generating_set(rows):
        right_of = itemgetter(*rows[g])
        for x, row_x in enumerate(rows):
            left = rows[row_x[g]]
            right = right_of(row_x)
            if left != right:
                y = next(y for y in range(len(left)) if left[y] != right[y])
                return x, g, y
    return None


def identity_to_front(table, e):
    """The relabelling from_cayley_table applies: swap elements 0 and e."""
    n = len(table)
    perm = list(range(n))
    perm[0], perm[e] = e, 0
    return [[perm[table[perm[i]][perm[j]]] for j in range(n)] for i in range(n)]
