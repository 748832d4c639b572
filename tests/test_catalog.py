import copy
import enum
import itertools
import pickle
import random
from functools import reduce

import pytest

from commspec import catalog, groups
from commspec.catalog import (
    _FAMILIES,
    FamilySpec,
    _rule,
    build,
    list_catalog,
    parse_family,
)
from commspec.errors import (
    AxiomViolation,
    IndexOutOfRange,
    NotPrimeError,
    ParameterOutOfRange,
    ParseError,
)
from commspec.graphs import build_commuting_graph
from commspec.groups import (
    Recognition,
    center,
    from_cayley_table,
    quotient_by_center,
    recognize_small,
)
from commspec.predictions import predict_family
from commspec.spectra import is_integral

from light import generating_set
from oracles import table_center_cosets
from permutation_groups import permutation_table


def _rule_group(mul, names):
    """``build``'s proof of the product rule ``mul`` on the named elements."""
    return groups._group(names, catalog._generator_row(mul, len(names)))


def _order_profile(group):
    return sorted(group.element_order(x) for x in range(group.order))


def test_grid_orders_match_closed_forms(grid):
    for name, spec, group in grid:
        assert group.order == spec.order(), name


def test_family_center_sizes_match_closed_forms(grid):
    for name, spec, group in grid:
        z = len(center(group))
        if spec.kind == "dicyclic":
            assert z == 2, name
        elif spec.kind == "u6n":
            assert z == spec.params[0], name
        elif spec.kind == "metacyclic":
            m, n = spec.params
            assert z == (n if m % 2 else 2 * n), name
        elif spec.kind == "dihedral":
            assert z == (1 if spec.params[0] % 2 else 2), name
        elif spec.kind in ("heis", "expp2"):
            assert z == spec.params[0], name


def test_family_quotient_tags(grid):
    # order-4 quotients of exponent 2 land on the square shape, larger
    # dihedral quotients keep their half-order parameter
    for name, spec, group in grid:
        tag = recognize_small(quotient_by_center(group))
        if spec.kind == "dicyclic":
            m = spec.params[0]
            expected = Recognition("zpzp", 2) if m == 2 else Recognition("dihedral", m)
        elif spec.kind == "u6n":
            expected = Recognition("dihedral", 3)
        elif spec.kind in ("metacyclic", "dihedral"):
            m = spec.params[0]
            if m % 2 == 1:
                expected = Recognition("dihedral", m)
            elif m == 4:
                expected = Recognition("zpzp", 2)
            else:
                expected = Recognition("dihedral", m // 2)
        elif spec.kind in ("heis", "expp2"):
            expected = Recognition("zpzp", spec.params[0])
        else:
            expected = Recognition("zpzp", 2)  # D8 x Zk, Q8 x Zk
        assert tag == expected, name


def test_dihedral_odd_center_is_trivial():
    for m in (3, 5, 7):
        assert len(center(build(FamilySpec.dihedral(m)))) == 1


def test_dihedral_even_center_has_two_elements():
    for m in (4, 6, 8):
        group = build(FamilySpec.dihedral(m))
        assert center(group) == (0, group.names.index(f"a^{m // 2}"))


def test_dicyclic_center(q8):
    assert center(q8) == (0, 2)
    q12 = build(FamilySpec.dicyclic(3))
    assert center(q12) == (0, q12.names.index("a^3"))


def test_metacyclic_center_sizes():
    # <b^2> for odd m, twice that for even m
    assert len(center(build(FamilySpec.metacyclic(3, 2)))) == 2
    assert len(center(build(FamilySpec.metacyclic(5, 3)))) == 3
    assert len(center(build(FamilySpec.metacyclic(4, 2)))) == 4
    assert len(center(build(FamilySpec.metacyclic(6, 1)))) == 2


def test_metacyclic_4_2():
    group = build(FamilySpec.metacyclic(4, 2))
    assert group.order == 16
    assert len(center(group)) == 4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_u6n_center_size_is_n(n):
    assert len(center(build(FamilySpec.u6n(n)))) == n


def test_heisenberg_2_is_the_order_8_dihedral_group():
    assert _order_profile(build(FamilySpec.heis(2))) == _order_profile(
        build(FamilySpec.dihedral(4))
    )


def test_exp_p_squared_2_is_the_quaternion_group():
    group = build(FamilySpec.expp2(2))
    assert _order_profile(group) == _order_profile(build(FamilySpec.dicyclic(2)))
    # exactly one involution separates it from the dihedral group
    assert _order_profile(group).count(2) == 1


def test_heisenberg_3():
    group = build(FamilySpec.heis(3))
    assert group.order == 27
    assert len(center(group)) == 3
    assert recognize_small(quotient_by_center(group)) == Recognition("zpzp", 3)
    assert max(_order_profile(group)) == 3  # exponent p for odd p


def test_exp_p_squared_3():
    group = build(FamilySpec.expp2(3))
    assert group.order == 27
    assert len(center(group)) == 3
    assert max(_order_profile(group)) == 9


def test_product_with_trivial_group_is_identity_operation(q8):
    product = build(FamilySpec.product(FamilySpec.dicyclic(2), FamilySpec.cyclic(1)))
    assert product.table == q8.table


def test_product_d8_z2():
    group = build(FamilySpec.product(FamilySpec.dihedral(4), FamilySpec.cyclic(2)))
    assert group.order == 16
    assert len(center(group)) == 4
    assert recognize_small(quotient_by_center(group)) == Recognition("zpzp", 2)


def _factor_specs(spec):
    """The specs G and H of the two groups that ``spec`` multiplies: for a
    product, all factors but the last and the last; for zpzp:p, z_p twice."""
    if spec.kind == "zpzp":
        return (FamilySpec.cyclic(*spec.params),) * 2
    *first, last = spec.factors
    return first[0] if len(first) == 1 else FamilySpec.product(*first), last


_PRODUCTS = [spec for _, spec in list_catalog() if spec.kind == "product"] + [
    parse_family(t)
    for t in "prod:dihedral:4,z2,z3 prod:heis:3,z2 zpzp:2 zpzp:3 zpzp:5".split()
]


def test_product_center_is_product_of_centers():
    # each product is built from its factors' rules alone; G and H are built
    # on their own here, and (a, b) sits at a*|H| + b
    for spec in _PRODUCTS:
        g, h = map(build, _factor_specs(spec))
        product = build(spec)
        hn = h.order
        g_range, h_range = range(g.order), range(hn)
        for a, b, c, d in itertools.product(g_range, h_range, g_range, h_range):
            entry = product.table[a * hn + b][c * hn + d]
            assert entry == g.table[a][c] * hn + h.table[b][d], spec.label()
        names = tuple(f"({x},{y})" for x in g.names for y in h.names)
        assert product.names == names, spec.label()
        expected = tuple(sorted(a * hn + b for a in center(g) for b in center(h)))
        assert center(product) == expected, spec.label()


def test_zpzp_build_recognized():
    assert recognize_small(build(FamilySpec.zpzp(2))) == Recognition("zpzp", 2)


@pytest.mark.parametrize(
    "factory, args",
    [
        (FamilySpec.dihedral, (1,)),
        (FamilySpec.dicyclic, (1,)),
        (FamilySpec.metacyclic, (2, 1)),
        (FamilySpec.metacyclic, (3, 0)),
        (FamilySpec.u6n, (0,)),
        (FamilySpec.cyclic, (0,)),
        # a spec built directly is checked like one from its constructor
        (FamilySpec, ("dihedral", (1,))),
        (FamilySpec, ("metacyclic", (3, -1))),
    ],
)
def test_parameter_ranges(factory, args):
    with pytest.raises(ParameterOutOfRange):
        factory(*args)


# a product, refused as a factor of another product
_D6_TIMES_Z2 = FamilySpec.product(FamilySpec.dihedral(3), FamilySpec.cyclic(2))


@pytest.mark.parametrize(
    "args, message",
    [
        (("foo",), "unknown family 'foo'"),
        (("dihedral", (3, 4)), "dihedral takes 1 parameter(s), got 2"),
        (("metacyclic", (3,)), "metacyclic takes 2 parameter(s), got 1"),
        (("cyclic", ()), "cyclic takes 1 parameter(s), got 0"),
        # fields the kind would ignore: the label would not parse back to the spec
        (
            ("dihedral", (3,), (FamilySpec.cyclic(2),)),
            "dihedral takes parameters, not factors",
        ),
        (
            ("product", (7,), (FamilySpec.cyclic(2), FamilySpec.cyclic(3))),
            "product takes factors, not parameters",
        ),
        # its label, prod:prod:dihedral:3,z2,z3, would not parse
        (
            ("product", (), (_D6_TIMES_Z2, FamilySpec.cyclic(3))),
            "a product factor cannot itself be a product",
        ),
    ],
)
def test_direct_construction_checks_kind_and_arity(args, message):
    with pytest.raises(ParseError) as info:
        FamilySpec(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("factory", [FamilySpec.heis, FamilySpec.expp2, FamilySpec.zpzp])
def test_prime_parameters(factory):
    # 561 is a Carmichael number, 3215031751 a strong pseudoprime to the
    # bases 2, 3, 5 and 7, and 10**30 is decided by its factor 2 past the
    # trial-division bound 2**32
    for value in (4, 1, 0, -3, 561, 3215031751, 10**30):
        with pytest.raises(NotPrimeError):
            factory(value)
    with pytest.raises(NotPrimeError):
        FamilySpec(factory.__name__, (4,))
    # past the bound with no factor below 2**16, so primality is not decided:
    # the square of a prime and a 17-digit prime
    for value in ((2**31 - 1) ** 2, 10**16 + 61):
        with pytest.raises(ParameterOutOfRange) as info:
            factory(value)
        assert str(info.value) == f"primes are tested only below 2**32, got {value}"
    # the largest prime below the bound is accepted without building anything
    assert factory(4294967291).params == (4294967291,)


@pytest.mark.parametrize(
    "text", ["dihedral:100000", "heis:65537", "prod:heis:17,heis:17"]
)
def test_a_group_past_the_order_bound_is_refused_before_it_is_built(
    text, monkeypatch
):
    # the order comes from the closed form, so neither the product rule nor
    # the walk over it is made
    calls = []
    monkeypatch.setattr(groups, "_orbit", lambda *args: calls.append("walk"))
    monkeypatch.setattr(catalog, "_rule", lambda spec: calls.append("rule"))
    spec = parse_family(text)
    with pytest.raises(ParameterOutOfRange) as info:
        build(spec)
    assert str(info.value) == (
        f"groups are built only up to 8192 elements, got {spec.order()}"
    )
    assert calls == []


def test_the_order_bound_admits_groups_up_to_it(monkeypatch):
    groups._check_order(2**13)
    with pytest.raises(ParameterOutOfRange):
        groups._check_order(2**13 + 1)
    monkeypatch.setattr(groups, "_MAX_ORDER", 8)
    assert build(FamilySpec.dihedral(4)).order == 8
    with pytest.raises(ParameterOutOfRange):
        build(FamilySpec.dihedral(5))


@pytest.mark.parametrize(
    "kind, params, factors, error",
    [
        ("dihedral", (1,), (), ParameterOutOfRange),
        ("dihedral", (3.0,), (), ParameterOutOfRange),
        ("heis", (4,), (), NotPrimeError),
        ("foo", (3,), (), ParseError),
        ("dihedral", (3,), (FamilySpec.cyclic(2),), ParseError),
        ("product", (), (FamilySpec.cyclic(2),), ParameterOutOfRange),
        ("product", (), (FamilySpec.cyclic(3), _D6_TIMES_Z2), ParseError),
    ],
)
def test_family_spec_checks_every_way_a_record_is_made(kind, params, factors, error):
    # _replace and _make route through the checks; a record that bypassed
    # them is refused again when copied or unpickled
    fields = (kind, params, factors)
    with pytest.raises(error):
        FamilySpec(*fields)
    with pytest.raises(error):
        FamilySpec.dihedral(3)._replace(kind=kind, params=params, factors=factors)
    with pytest.raises(error):
        FamilySpec._make(fields)
    smuggled = tuple.__new__(FamilySpec, fields)
    with pytest.raises(error):
        copy.copy(smuggled)
    with pytest.raises(error):
        pickle.loads(pickle.dumps(smuggled))


def test_family_spec_round_trips_keep_the_record():
    spec = FamilySpec.product(FamilySpec.heis(3), FamilySpec.cyclic(4))
    same = [spec._replace(), FamilySpec._make(spec), copy.copy(spec)]
    same += [copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))]
    for other in same:
        assert type(other) is FamilySpec and other == spec
        assert other.label() == spec.label()


def _lowest(kind, above=()):
    """The least valid parameters of ``kind``, raised to ``above`` where given."""
    least = [param.least for param in _FAMILIES[kind].params]
    for i, value in enumerate(above):
        least[i] = max(least[i], value)
    return tuple(least)


@pytest.mark.parametrize("kind", list(_FAMILIES))
def test_lowest_parameters_build_at_their_order(kind):
    spec = FamilySpec(kind, _lowest(kind))
    assert build(spec).order == spec.order()
    # one step below the least value of any parameter is refused
    for i, param in enumerate(_FAMILIES[kind].params):
        below = list(spec.params)
        below[i] -= 1
        error = NotPrimeError if param.op == "prime" else ParameterOutOfRange
        with pytest.raises(error):
            FamilySpec(kind, tuple(below))


@pytest.mark.parametrize(
    "kind", [kind for kind, family in _FAMILIES.items() if family.spectrum]
)
def test_closed_forms_hold_at_their_lowest_parameters(kind):
    spec = FamilySpec(kind, _lowest(kind, _FAMILIES[kind].spectrum_from))
    brute = is_integral(build_commuting_graph(build(spec)))
    assert brute.integral
    assert predict_family(spec).spectrum.pairs == brute.spectrum.pairs


class _Three(enum.IntEnum):
    THREE = 3


def test_product_needs_two_factors():
    with pytest.raises(ParameterOutOfRange):
        FamilySpec.product(FamilySpec.dihedral(3))


@pytest.mark.parametrize(
    "factory, args, message",
    [
        # unchecked, a float would be labelled "dihedral:3.0" and fail in the
        # build
        (FamilySpec.dihedral, (3.0,), "dihedral needs int parameters, got 3.0"),
        # unchecked, a bool would build Z1 labelled "zTrue"
        (FamilySpec.cyclic, (True,), "cyclic needs int parameters, got True"),
        # the type is checked before primality
        (FamilySpec.heis, (3.0,), "heis needs int parameters, got 3.0"),
        (FamilySpec.zpzp, ("5",), "zpzp needs int parameters, got '5'"),
        (
            FamilySpec.u6n,
            (_Three.THREE,),
            "u6n needs int parameters, got <_Three.THREE: 3>",
        ),
        # before any range check: m = 1 is out of range too
        (FamilySpec.metacyclic, (1, 2.0), "metacyclic needs int parameters, got 2.0"),
        (FamilySpec, ("dicyclic", (None,)), "dicyclic needs int parameters, got None"),
    ],
)
def test_parameters_must_be_exact_ints(factory, args, message):
    with pytest.raises(ParameterOutOfRange) as info:
        factory(*args)
    assert str(info.value) == message


def test_product_factors_must_be_specs():
    # unchecked, the factor would fail later, in label()
    with pytest.raises(ParseError) as info:
        FamilySpec.product("dihedral:3", FamilySpec.cyclic(2))
    assert str(info.value) == "product factor 'dihedral:3' is not a FamilySpec"
    # before the count of factors is checked
    with pytest.raises(ParseError):
        FamilySpec.product(3)



def test_catalog_contents():
    entries = list_catalog()
    assert len(entries) == 73
    as_dict = dict(entries)
    assert len(as_dict) == len(entries)  # names are unique
    assert as_dict["Q8"] == FamilySpec.dicyclic(2)
    assert as_dict["M(4,2)"] == FamilySpec.metacyclic(4, 2)
    assert as_dict["Heis(5)"] == FamilySpec.heis(5)
    assert as_dict["Heis(5)"].order() == 125


def test_parse_family_round_trips_catalog_labels():
    for _, spec in list_catalog():
        assert parse_family(spec.label()) == spec


@pytest.mark.parametrize(
    "text, spec",
    [
        ("dihedral:3", FamilySpec.dihedral(3)),
        ("metacyclic:4,2", FamilySpec.metacyclic(4, 2)),
        ("z6", FamilySpec.cyclic(6)),
        (
            "prod:dihedral:4,z3",
            FamilySpec.product(FamilySpec.dihedral(4), FamilySpec.cyclic(3)),
        ),
        ("prod:z2,z2", FamilySpec.product(FamilySpec.cyclic(2), FamilySpec.cyclic(2))),
        (
            "prod:metacyclic:4,2,z2",
            FamilySpec.product(FamilySpec.metacyclic(4, 2), FamilySpec.cyclic(2)),
        ),
    ],
)
def test_parse_family(text, spec):
    assert parse_family(text) == spec


@pytest.mark.parametrize(
    "text",
    ["prod:prod:z2,z3", "prod:z2,prod:z3,z4", "prod:z2,prod", "prod:" * 2000 + "z2"],
    ids=["first", "second", "bare", "2000-deep"],
)
def test_a_product_factor_cannot_be_a_product(text):
    # the comma split leaves a nested product one factor, so no nesting can
    # parse; 2000 levels used to recurse past the interpreter's limit
    with pytest.raises(ParseError) as info:
        parse_family(text)
    assert str(info.value) == "a product factor cannot itself be a product"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "dihedral",
        "dihedral:x",
        "dihedral:3,4",
        "foo:3",
        "prod:",
        "prod:z2",
        "prod:z2,,z2",
    ],
)
def test_parse_family_errors(text):
    with pytest.raises((ParseError, ParameterOutOfRange)):
        parse_family(text)


def _word(*terms):
    parts = [sym if e == 1 else f"{sym}^{e}" for sym, e in terms if e]
    return "".join(parts) or "1"


def _by_tuples(elements, mul, name):
    """A table by multiplying element tuples and looking each product up."""
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[mul(x, y)] for y in elements] for x in elements]
    return table, [name(e) for e in elements]


def _ab_name(e):
    return _word(("a", e[0]), ("b", e[1]))


def _reference_dihedral(m):
    elements = [(i, j) for j in range(2) for i in range(m)]

    def mul(x, y):
        i1, j1 = x
        i2, j2 = y
        i = (i1 + i2) if j1 == 0 else (i1 - i2)
        return (i % m, (j1 + j2) % 2)

    return _by_tuples(elements, mul, _ab_name)


def _reference_dicyclic(m):
    elements = [(i, j) for j in range(2) for i in range(2 * m)]

    def mul(x, y):
        i1, j1 = x
        i2, j2 = y
        i = (i1 + i2) if j1 == 0 else (i1 - i2)
        j = j1 + j2
        if j == 2:
            i += m
            j = 0
        return (i % (2 * m), j)

    return _by_tuples(elements, mul, _ab_name)


def _reference_metacyclic(m, n):
    elements = [(i, j) for j in range(2 * n) for i in range(m)]

    def mul(x, y):
        i1, j1 = x
        i2, j2 = y
        i = (i1 + i2) if j1 % 2 == 0 else (i1 - i2)
        return (i % m, (j1 + j2) % (2 * n))

    return _by_tuples(elements, mul, _ab_name)


def _reference_u6n(n):
    elements = [(j, i) for j in range(2 * n) for i in range(3)]

    def mul(x, y):
        j1, i1 = x
        j2, i2 = y
        i = (i1 + i2) if j2 % 2 == 0 else (i2 - i1)
        return ((j1 + j2) % (2 * n), i % 3)

    return _by_tuples(elements, mul, _ab_name)


def _reference_heis(p):
    elements = [(x, y, z) for x in range(p) for y in range(p) for z in range(p)]

    def mul(u, v):
        x1, y1, z1 = u
        x2, y2, z2 = v
        return ((x1 + x2) % p, (y1 + y2) % p, (z1 + z2 + x1 * y2) % p)

    return _by_tuples(elements, mul, lambda e: f"({e[0]},{e[1]},{e[2]})")


def _reference_expp2(p):
    if p == 2:
        return _reference_dicyclic(2)
    pp = p * p
    elements = [(i, j) for j in range(p) for i in range(pp)]
    twist = [pow(1 + p, j, pp) for j in range(p)]

    def mul(x, y):
        i1, j1 = x
        i2, j2 = y
        return ((i1 + i2 * twist[j1]) % pp, (j1 + j2) % p)

    return _by_tuples(elements, mul, _ab_name)


def _reference_cyclic(k):
    elements = [(i,) for i in range(k)]
    return _by_tuples(
        elements, lambda x, y: ((x[0] + y[0]) % k,), lambda e: _word(("z", e[0]))
    )


def _reference_product(g, h):
    """Pairs of the factors' elements, multiplied componentwise in their
    tables; ``g`` and ``h`` are (table, names) pairs."""
    (g_table, g_names), (h_table, h_names) = g, h
    elements = [(a, b) for a in range(len(g_table)) for b in range(len(h_table))]
    return _by_tuples(
        elements,
        lambda x, y: (g_table[x[0]][y[0]], h_table[x[1]][y[1]]),
        lambda e: f"({g_names[e[0]]},{h_names[e[1]]})",
    )


_REFERENCE = {
    "dihedral": _reference_dihedral,
    "dicyclic": _reference_dicyclic,
    "metacyclic": _reference_metacyclic,
    "u6n": _reference_u6n,
    "heis": _reference_heis,
    "expp2": _reference_expp2,
    "zpzp": lambda p: _reference_product(_reference_cyclic(p), _reference_cyclic(p)),
    "cyclic": _reference_cyclic,
}


def _reference_table(spec):
    """The (table, names) of ``spec``, each family table built by
    multiplying element tuples and looking every product up in a
    tuple -> index dict; nothing here calls the catalog's builders."""
    if spec.kind == "product":
        return reduce(_reference_product, map(_reference_table, spec.factors))
    return _REFERENCE[spec.kind](*spec.params)


_OFF_GRID = (
    "heis:7 metacyclic:12,6 dihedral:40 dicyclic:12 u6n:6 expp2:5 zpzp:5 "
    "prod:dihedral:4,z3,z2"
).split()
_PINNED = [spec for _, spec in list_catalog()] + [parse_family(t) for t in _OFF_GRID]


@pytest.mark.parametrize(
    "spec",
    # dict.fromkeys drops dicyclic:12, which is also on the grid
    list(dict.fromkeys(_PINNED)),
    ids=lambda spec: spec.label(),
)
def test_family_tables_match_the_tuple_construction(spec):
    # the index layouts keep the element order and names of normal-form
    # words multiplied as tuples
    group = build(spec)
    table, names = _reference_table(spec)
    assert group.table == tuple(map(tuple, table))
    assert group.names == tuple(names)


def _formula_names(spec):
    """Each element's name by the per-element formula: the word of its
    exponents at its index (``_word``), or the pair of its factors' names."""
    if spec.kind == "product":
        return reduce(
            lambda g, h: [f"({x},{y})" for x in g for y in h],
            map(_formula_names, spec.factors),
        )
    if spec.kind == "cyclic":
        return [_word(("z", i)) for i in range(spec.params[0])]
    if spec.kind == "u6n":  # a^j b^i at 3j + i
        a_order = 2 * spec.params[0]
        return [_word(("a", j), ("b", i)) for j in range(a_order) for i in range(3)]
    # a^i b^j at j |a| + i
    a_order, b_order = {
        "dihedral": lambda m: (m, 2),
        "dicyclic": lambda m: (2 * m, 2),
        "metacyclic": lambda m, n: (m, 2 * n),
        "expp2": lambda p: (4, 2) if p == 2 else (p * p, p),
    }[spec.kind](*spec.params)
    return [_word(("a", i), ("b", j)) for j in range(b_order) for i in range(a_order)]


_NAMED = (
    [f"dihedral:{m}" for m in range(2, 13)]
    + [f"dicyclic:{m}" for m in range(2, 13)]
    + [f"metacyclic:{m},{n}" for m in range(3, 9) for n in range(1, 5)]
    + [f"u6n:{n}" for n in range(1, 7)]
    + [f"expp2:{p}" for p in (2, 3, 5)]
    + [f"z{k}" for k in range(1, 7)]
    + ["prod:dihedral:4,z1", "prod:dicyclic:2,z3", "prod:u6n:1,dihedral:2,z2"]
)


@pytest.mark.parametrize("label", _NAMED)
def test_names_follow_the_word_formula(label):
    spec = parse_family(label)
    assert build(spec).names == tuple(_formula_names(spec))


@pytest.mark.parametrize(
    "label, names",
    [
        # one power: the exponent 0 only
        ("z1", "1"),
        ("z3", "1 z z^2"),
        ("dihedral:2", "1 a b ab"),
        # the dicyclic branch of expp2
        ("expp2:2", "1 a a^2 a^3 b ab a^2b a^3b"),
        ("u6n:1", "1 b b^2 a ab ab^2"),
        ("metacyclic:3,1", "1 a a^2 b ab a^2b"),
        # D8xZ1 on the grid
        (
            "prod:dihedral:4,z1",
            "(1,1) (a,1) (a^2,1) (a^3,1) (b,1) (ab,1) (a^2b,1) (a^3b,1)",
        ),
    ],
)
def test_names_at_the_edges(label, names):
    assert build(parse_family(label)).names == tuple(names.split())


@pytest.mark.parametrize(
    "label",
    # z1 is the one-element table, whose identity row needs no product rule
    "dihedral:5 dicyclic:3 metacyclic:4,2 u6n:2 heis:3 expp2:3 expp2:2 zpzp:3 "
    "z6 z1 prod:dihedral:4,z3,z2".split(),
)
def test_composed_rows_match_the_product_rule(label):
    mul, names = _rule(parse_family(label))
    n = len(names)
    calls = []
    group = _rule_group(lambda x, y: calls.append(x) or mul(x, y), names)
    table = group.table
    assert all(table[x][y] == mul(x, y) for x in range(n) for y in range(n))
    assert list(group.generators) == generating_set(table)
    # only the rows of at most log2(n) generators call the rule
    assert len(calls) <= n * (n.bit_length() - 1)


def test_the_table_free_decomposition_matches_the_table_oracle():
    # the grid, three larger groups and the shuffled S4, A5 and S5 tables
    # as product rules: generators and every CenterCosets field, against
    # the whole table that is walked only afterwards
    labels = [spec.label() for _, spec in list_catalog()]
    labels += ["heis:13", "dihedral:300", "prod:heis:5,z4"]
    named = [(label, build(parse_family(label))) for label in labels]
    for name, degree, even in (("S4", 4, False), ("A5", 5, True), ("S5", 5, False)):
        table = from_cayley_table(permutation_table(degree, even, random.Random(1))).table
        names = [str(i) for i in range(len(table))]
        named.append((name, _rule_group(lambda u, v, t=table: t[u][v], names)))
    for name, group in named:
        found = group.center_cosets
        assert "table" not in vars(group), name
        table = group.table
        assert list(group.generators) == generating_set(table), name
        expected = table_center_cosets(table, group.generators)
        for field, value, oracle in zip(found._fields, found, expected):
            assert value == oracle, (name, field)


def test_a_non_associative_rule_of_permutation_rows_is_refused():
    # rows 1 and 3 permute 0..5 and start with 1 and 3, so they pass the
    # generator row checks, but row 3 fixes the points 4 and 5: the group
    # they generate is not regular
    rows = {1: (1, 2, 0, 4, 5, 3), 3: (3, 0, 1, 2, 4, 5)}
    with pytest.raises(AxiomViolation) as info:
        _rule_group(lambda u, v: rows[u][v], list("abcdef"))
    assert info.value.axiom == "associativity"
    assert str(info.value) == "associativity axiom violated: (3*2)*1 != 3*(2*1)"


@pytest.mark.parametrize(
    "spec", list(dict.fromkeys(_PINNED)), ids=lambda spec: spec.label()
)
def test_the_full_validator_accepts_each_catalog_table(spec):
    # the catalog skips the checks its construction proves; the outside
    # path runs them all and returns the same group and generating set
    group = build(spec)
    checked = from_cayley_table(group.table, group.names)
    assert checked == group
    assert checked.generators == group.generators


def _cyclic_4_except(bad, value):
    return lambda x, y: value if (x, y) == bad else (x + y) % 4


def _klein_except(bad, value):
    return lambda x, y: value if (x, y) == bad else x ^ y


@pytest.mark.parametrize(
    "mul, error, message",
    [
        (
            _cyclic_4_except((1, 2), True),
            IndexOutOfRange,
            "entry (1,2) = True not in 0..3",
        ),
        (
            _cyclic_4_except((1, 3), 3.0),
            IndexOutOfRange,
            "entry (1,3) = 3.0 not in 0..3",
        ),
        (
            _cyclic_4_except((1, 1), 4),
            IndexOutOfRange,
            "entry (1,1) = 4 not in 0..3",
        ),
        # the right value, but not an exact int
        (
            _cyclic_4_except((1, 2), _Three.THREE),
            IndexOutOfRange,
            "entry (1,2) = <_Three.THREE: 3> not in 0..3",
        ),
        (
            _cyclic_4_except((1, 1), -1),
            IndexOutOfRange,
            "entry (1,1) = -1 not in 0..3",
        ),
        # 2 is the second generator of the Klein four-group's table
        (_klein_except((2, 3), 5), IndexOutOfRange, "entry (2,3) = 5 not in 0..3"),
        (
            _cyclic_4_except((1, 0), 2),
            AxiomViolation,
            "identity axiom violated: 1*0 = 2, expected 1",
        ),
        (
            _klein_except((2, 0), 3),
            AxiomViolation,
            "identity axiom violated: 2*0 = 3, expected 2",
        ),
        (
            _cyclic_4_except((1, 3), 1),
            AxiomViolation,
            "inverse axiom violated: row 1 is not a permutation of 0..3",
        ),
    ],
)
def test_generator_rows_are_checked(mul, error, message):
    with pytest.raises(error) as caught:
        _rule_group(mul, ["a", "b", "c", "d"])
    assert str(caught.value) == message


def test_only_generator_rows_are_checked(monkeypatch):
    checked = []
    original = catalog._check_generator_row
    monkeypatch.setattr(
        catalog,
        "_check_generator_row",
        lambda g, row, valid: checked.append(g) or original(g, row, valid),
    )
    group = build(FamilySpec.heis(7))
    assert checked == list(group.generators) == [1, 7, 49]
