"""Constructors for the named group families on the verification grid.

Every fact about a family is stated once, in the ``_FAMILIES`` table keyed
by kind: its parameters and their ranges, its order, its product rule, its
closed-form spectrum where the paper displays one (with the least
parameters where it holds) and, for ``zpzp`` and ``dihedral``, the closed
form of any group with that central quotient.  ``FamilySpec`` validates
against the table when it is constructed; ``order``, ``build``,
``parse_family`` and the predictors in ``predictions`` read it.

Each family's elements are normal-form words (a^i b^j, or (x, y, z) for
the Heisenberg group) at fixed indices.  Its product rule is stated once,
as ``mul(u, v)`` on element indices, written by index arithmetic from the
defining relations, and its names join per-symbol power lists
(``_powers``).  A direct product's rule is made from its factors' rules
(``_product``): (a, b) sits at a*|H| + b and multiplies componentwise, and
its name is "(a,b)".  ``build`` hands the rule of the whole spec to
``groups._group``, once: no factor is built.  The proof there asks for the
rows of at most log2(n) generators, which ``_generator_row`` makes by
calling ``mul`` and checks entry by entry (``_check_generator_row``); no
other row is composed.  A product is thus proved a group without its
factors, and no catalog group is tabulated.
"""

from __future__ import annotations

import re
import sys
from functools import reduce
from math import prod
from typing import Callable, NamedTuple

from .errors import AxiomViolation, NotPrimeError, ParameterOutOfRange, ParseError
from .groups import (
    FiniteGroup,
    _check_entries,
    _check_order,
    _clip,
    _group,
    _integer,
    is_prime,
)

# A product rule: the index of the product of the elements at two indices.
_Mul = Callable[[int, int], int]
# A product rule on element indices and the element names, in index order.
_Rule = tuple[_Mul, list[str]]


class _SpecFields(NamedTuple):
    kind: str
    params: tuple[int, ...]
    factors: tuple["FamilySpec", ...]


class FamilySpec(_SpecFields):
    """Parameters of a group family, checked against its table entry.

    Only ``product`` holds ``factors``, and it holds no ``params``.  Each
    parameter must be of type int itself, and each factor a ``FamilySpec``
    that is not itself a product, so that every ``label`` parses back.
    The checks run in ``__new__``, which ``_make``, ``_replace``, ``pickle``
    and ``copy`` all go through.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        params: tuple[int, ...] = (),
        factors: tuple["FamilySpec", ...] = (),
    ):
        if kind == "product":
            if params:
                raise ParseError("product takes factors, not parameters")
            for factor in factors:
                if not isinstance(factor, FamilySpec):
                    raise ParseError(f"product factor {factor!r} is not a FamilySpec")
                if factor.kind == "product":
                    raise ParseError(_NESTED_PRODUCT)
            if len(factors) < 2:
                raise ParameterOutOfRange("product needs at least two factors")
            return super().__new__(cls, kind, params, factors)
        if kind not in _FAMILIES:
            raise ParseError(f"unknown family {kind!r}")
        if factors:
            raise ParseError(f"{kind} takes parameters, not factors")
        ranges = _params(kind, len(params))
        # of type int itself, as ``groups._check_entries`` requires of a table
        # entry: a bool would be labelled "True", and a float fails in the build
        for value in params:
            if type(value) is not int:
                raise ParameterOutOfRange(f"{kind} needs int parameters, got {value!r}")
        for param, value in zip(ranges, params):
            param.check(kind, value)
        return super().__new__(cls, kind, params, factors)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @staticmethod
    def dihedral(m: int) -> "FamilySpec":
        return FamilySpec("dihedral", (m,))

    @staticmethod
    def dicyclic(m: int) -> "FamilySpec":
        return FamilySpec("dicyclic", (m,))

    @staticmethod
    def metacyclic(m: int, n: int) -> "FamilySpec":
        return FamilySpec("metacyclic", (m, n))

    @staticmethod
    def u6n(n: int) -> "FamilySpec":
        return FamilySpec("u6n", (n,))

    @staticmethod
    def heis(p: int) -> "FamilySpec":
        return FamilySpec("heis", (p,))

    @staticmethod
    def expp2(p: int) -> "FamilySpec":
        return FamilySpec("expp2", (p,))

    @staticmethod
    def zpzp(p: int) -> "FamilySpec":
        return FamilySpec("zpzp", (p,))

    @staticmethod
    def cyclic(k: int) -> "FamilySpec":
        return FamilySpec("cyclic", (k,))

    @staticmethod
    def product(*factors: "FamilySpec") -> "FamilySpec":
        return FamilySpec("product", (), tuple(factors))

    def label(self) -> str:
        """Canonical CLI spelling of this spec."""
        if self.kind == "product":
            return "prod:" + ",".join(f.label() for f in self.factors)
        if self.kind == "cyclic":
            return f"z{self.params[0]}"
        return f"{self.kind}:" + ",".join(str(p) for p in self.params)

    def order(self) -> int:
        """Group order from the closed form, without building the table."""
        if self.kind == "product":
            return prod(f.order() for f in self.factors)
        return _FAMILIES[self.kind].order(*self.params)


def _powers(sym: str, k: int) -> list[str]:
    """The factors sym^e of a normal-form word for e in 0..k-1: "" for
    e = 0, ``sym`` for e = 1 and ``sym^e`` above.  A word joins one factor
    per symbol, and the empty word is "1"."""
    return [sym * e if e < 2 else f"{sym}^{e}" for e in range(k)]


def _cyclic_extension(a_order: int, b_order: int, twist: int, b_power: int) -> _Rule:
    """The group of words a^i b^j, element a^i b^j at index j*|a| + i.

    Relations: a^|a| = 1, b a b^-1 = a^twist and b^|b| = a^b_power.  Moving
    b^j1 past a^i2 gives a^i1 b^j1 a^i2 b^j2 = a^(i1 + twist^j1 i2) b^(j1 + j2),
    and b^(j1 + j2) picks up a^b_power when j1 + j2 reaches |b|.
    """

    def mul(u: int, v: int) -> int:
        j1, i1 = divmod(u, a_order)
        j2, i2 = divmod(v, a_order)
        i = i1 + pow(twist, j1, a_order) * i2
        j = j1 + j2
        if j >= b_order:
            i += b_power
            j -= b_order
        return j * a_order + i % a_order

    a, b = _powers("a", a_order), _powers("b", b_order)
    return mul, [(x + y) or "1" for y in b for x in a]


def _u6n(n: int) -> _Rule:
    # <a, b : a^2n = b^3 = 1, a^-1 b a = b^-1>, order 6n; a^j b^i at 3j + i,
    # and a^j1 b^i1 a^j2 b^i2 = a^(j1 + j2) b^((-1)^j2 i1 + i2)
    order_a = 2 * n

    def mul(u: int, v: int) -> int:
        j1, i1 = divmod(u, 3)
        j2, i2 = divmod(v, 3)
        return (j1 + j2) % order_a * 3 + ((i2 - i1) if j2 % 2 else (i1 + i2)) % 3

    a, b = _powers("a", order_a), _powers("b", 3)
    return mul, [(x + y) or "1" for x in a for y in b]


def _heisenberg(p: int) -> _Rule:
    # upper unitriangular 3x3 matrices over Z_p as (x, y, z) triples, at
    # x*p^2 + y*p + z; (x1, y1, z1)(x2, y2, z2) = (x1 + x2, y1 + y2,
    # z1 + z2 + x1*y2)
    pp = p * p

    def mul(u: int, v: int) -> int:
        x1, y1, z1 = u // pp, u // p % p, u % p
        x2, y2, z2 = v // pp, v // p % p, v % p
        return (x1 + x2) % p * pp + (y1 + y2) % p * p + (z1 + z2 + x1 * y2) % p

    names = [f"({x},{y},{z})" for x in range(p) for y in range(p) for z in range(p)]
    return mul, names


def _exp_p_squared(p: int) -> _Rule:
    # <a, b : a^(p^2) = 1, b^p = 1, b a b^-1 = a^(1+p)>, order p^3.
    # At p = 2 this presentation collapses onto the dihedral group, so the
    # quaternion group is returned instead to cover the second order-8 type.
    if p == 2:
        return _cyclic_extension(4, 2, -1, 2)  # dicyclic:2
    return _cyclic_extension(p * p, p, 1 + p, 0)


def _cyclic(k: int) -> _Rule:
    return (lambda u, v: (u + v) % k), [x or "1" for x in _powers("z", k)]


def _zpzp(p: int) -> _Rule:
    return _product(_cyclic(p), _cyclic(p))


def _product(g: _Rule, h: _Rule) -> _Rule:
    # (a, b) at a*|H| + b, multiplied componentwise by both rules
    (g_mul, g_names), (h_mul, h_names) = g, h
    hn = len(h_names)

    def mul(u: int, v: int) -> int:
        return g_mul(u // hn, v // hn) * hn + h_mul(u % hn, v % hn)

    return mul, [f"({a},{b})" for a in g_names for b in h_names]


class _Param(NamedTuple):
    """One parameter's range: ``name op bound`` for ``op`` ">=" or ">", or prime."""

    name: str
    op: str
    bound: int = 2

    @property
    def least(self) -> int:
        return self.bound + (self.op == ">")

    def check(self, kind: str, value: int) -> None:
        if self.op == "prime":
            if not is_prime(value):
                raise NotPrimeError(f"{kind} needs a prime, got {value}")
        elif value < self.least:
            raise ParameterOutOfRange(
                f"{kind} needs {self.name} {self.op} {self.bound}, got {value}"
            )


class _Family(NamedTuple):
    """One family's entry in ``_FAMILIES``."""

    params: tuple[_Param, ...]
    order: Callable[..., int]
    rule: Callable[..., _Rule]
    # the displayed closed form: the parameters give the source name and the
    # (eigenvalue, multiplicity) pairs of the whole spectrum
    spectrum: Callable[..., tuple[str, list[tuple[int, int]]]] | None = None
    # the least parameters where ``spectrum`` holds, where they exceed the
    # family's own least parameters
    spectrum_from: tuple[int, ...] = ()
    # the same for any group whose central quotient is this family's group,
    # from the parameter and the center size; it holds for every valid one
    quotient_spectrum: Callable[..., tuple[str, list[tuple[int, int]]]] | None = None


def _dihedral_spectrum(m: int) -> tuple[str, list[tuple[int, int]]]:
    if m % 2:
        return "dihedral-odd", [(m - 2, 1), (0, m), (-1, m - 2)]
    return "dihedral-even", [(m - 3, 1), (1, m // 2), (-1, 3 * m // 2 - 3)]


def _metacyclic_spectrum(m: int, n: int) -> tuple[str, list[tuple[int, int]]]:
    if m % 2:
        return "metacyclic-odd", [
            (m * n - n - 1, 1),
            (n - 1, m),
            (-1, 2 * m * n - m - n - 1),
        ]
    return "metacyclic-even", [
        (m * n - 2 * n - 1, 1),
        (2 * n - 1, m // 2),
        (-1, 2 * m * n - 2 * n - m // 2 - 1),
    ]


_AT_LEAST_2 = _Param("m", ">=", 2)
_PRIME = _Param("p", "prime")

_FAMILIES: dict[str, _Family] = {
    # <a, b : a^m = b^2 = 1, b a b^-1 = a^-1>
    "dihedral": _Family(
        params=(_AT_LEAST_2,),
        order=lambda m: 2 * m,
        rule=lambda m: _cyclic_extension(m, 2, -1, 0),
        spectrum=_dihedral_spectrum,
        spectrum_from=(3,),
        # one clique of size (m - 1)z and m cliques of size z; at m = 2 the
        # eigenvalues merge into the square shape's
        quotient_spectrum=lambda m, z: (
            "dihedral-quotient",
            [((m - 1) * z - 1, 1), (z - 1, m), (-1, (2 * m - 1) * z - m - 1)],
        ),
    ),
    # <a, b : a^2m = 1, b^2 = a^m, b a b^-1 = a^-1>
    "dicyclic": _Family(
        params=(_AT_LEAST_2,),
        order=lambda m: 4 * m,
        rule=lambda m: _cyclic_extension(2 * m, 2, -1, m),
        spectrum=lambda m: ("dicyclic", [(2 * m - 3, 1), (1, m), (-1, 3 * m - 3)]),
    ),
    # <a, b : a^m = b^2n = 1, b a b^-1 = a^-1>
    "metacyclic": _Family(
        params=(_Param("m", ">", 2), _Param("n", ">=", 1)),
        order=lambda m, n: 2 * m * n,
        rule=lambda m, n: _cyclic_extension(m, 2 * n, -1, 0),
        spectrum=_metacyclic_spectrum,
    ),
    "u6n": _Family(
        params=(_Param("n", ">=", 1),),
        order=lambda n: 6 * n,
        rule=_u6n,
        spectrum=lambda n: ("u6n", [(2 * n - 1, 1), (n - 1, 3), (-1, 5 * n - 4)]),
    ),
    "heis": _Family(params=(_PRIME,), order=lambda p: p**3, rule=_heisenberg),
    "expp2": _Family(params=(_PRIME,), order=lambda p: p**3, rule=_exp_p_squared),
    "zpzp": _Family(
        params=(_PRIME,),
        order=lambda p: p * p,
        rule=_zpzp,
        # p + 1 cliques of size (p - 1)z
        quotient_spectrum=lambda p, z: (
            "zpzp-quotient",
            [((p - 1) * z - 1, p + 1), (-1, (p * p - 1) * z - p - 1)],
        ),
    ),
    "cyclic": _Family(params=(_Param("k", ">=", 1),), order=lambda k: k, rule=_cyclic),
}


def _params(kind: str, count: int) -> tuple[_Param, ...]:
    """The parameter ranges of ``kind``, once ``count`` values fit them."""
    params = _FAMILIES[kind].params
    if count != len(params):
        raise ParseError(f"{kind} takes {len(params)} parameter(s), got {count}")
    return params


def _rule(spec: FamilySpec) -> _Rule:
    """The product rule and element names of ``spec``."""
    if spec.kind == "product":
        return reduce(_product, map(_rule, spec.factors))
    return _FAMILIES[spec.kind].rule(*spec.params)


def build(spec: FamilySpec) -> FiniteGroup:
    """Build and validate the group described by ``spec``, from the rows of
    its generators alone; no table is made (the proof is
    ``groups._group``'s).

    A spec whose order is above ``groups._MAX_ORDER`` raises
    ``ParameterOutOfRange`` before any product rule is made.
    """
    _check_order(spec.order())
    mul, names = _rule(spec)
    return _group(names, _generator_row(mul, len(names)))


def _generator_row(mul: _Mul, n: int) -> Callable[[int], tuple[int, ...]]:
    """The row y -> mul(g, y) of each g that ``groups._group`` asks for,
    checked by ``_check_generator_row``."""
    valid = frozenset(range(n))

    def generator_row(g: int) -> tuple[int, ...]:
        row = tuple([mul(g, y) for y in range(n)])
        _check_generator_row(g, row, valid)
        return row

    return generator_row


def _check_generator_row(
    g: int, row: tuple[int, ...], valid: frozenset[int]
) -> None:
    """Raise unless ``row`` holds exact ints, starts with g and permutes 0..n-1."""
    n = len(valid)
    _check_entries(g, row, valid)
    if row[0] != g:
        raise AxiomViolation("identity", f"{g}*0 = {row[0]}, expected {g}")
    if len(set(row)) != n:
        raise AxiomViolation(
            "inverse", f"row {g} is not a permutation of 0..{n - 1}"
        )


def list_catalog() -> list[tuple[str, FamilySpec]]:
    """The fixed desk-scale verification grid, in canonical order."""
    entries: list[tuple[str, FamilySpec]] = []
    for p in (2, 3, 5):
        entries.append((f"Heis({p})", FamilySpec.heis(p)))
        entries.append((f"ExpP2({p})", FamilySpec.expp2(p)))
    for k in (1, 2, 3, 4):
        entries.append(
            (f"D8xZ{k}", FamilySpec.product(FamilySpec.dihedral(4), FamilySpec.cyclic(k)))
        )
        entries.append(
            (f"Q8xZ{k}", FamilySpec.product(FamilySpec.dicyclic(2), FamilySpec.cyclic(k)))
        )
    for m in range(2, 13):
        entries.append((f"Q{4 * m}", FamilySpec.dicyclic(m)))
    for n in range(1, 7):
        entries.append((f"U{6 * n}", FamilySpec.u6n(n)))
    for m in range(3, 9):
        for n in range(1, 5):
            entries.append((f"M({m},{n})", FamilySpec.metacyclic(m, n)))
    for m in range(3, 21):
        entries.append((f"D{2 * m}", FamilySpec.dihedral(m)))
    return entries


_CYCLIC_TOKEN = re.compile(r"z([0-9]+)")

# A factor that is itself a product cannot be written: the comma split of
# the outer spec would leave it a single factor.
_NESTED_PRODUCT = "a product factor cannot itself be a product"


def parse_family(text: str) -> FamilySpec:
    """Parse a CLI family string like ``dicyclic:2`` or ``prod:dihedral:4,z3``."""
    text = text.strip()
    if not text:
        raise ParseError("empty group spec")
    match = _CYCLIC_TOKEN.fullmatch(text)
    if match:
        return FamilySpec.cyclic(*_int_params(text, [match.group(1)]))
    head, sep, rest = text.partition(":")
    if head == "prod":
        if not sep or not rest:
            raise ParseError("prod: needs comma-separated factors")
        return FamilySpec.product(*_parse_factors(rest))
    if head == "cyclic" or head not in _FAMILIES:  # cyclic is spelled z<k>
        raise ParseError(f"unknown family {_clip(head)!r}")
    if not sep:
        raise ParseError(f"{head} needs parameters, e.g. {head}:2")
    args = rest.split(",")
    _params(head, len(args))
    return FamilySpec(head, _int_params(text, args))


def _int_params(text: str, args: list[str]) -> tuple[int, ...]:
    """The parameter strings of the spec ``text`` as ints, for the ``z<k>``
    form and the family form alike.  ``_integer`` refuses all but an ASCII
    decimal numeral, and ``int`` a number with more digits than
    ``sys.get_int_max_str_digits()``; either is a :class:`ParseError`, which
    names the limit in the second case and shows ``text`` cut by ``_clip``."""
    params = []
    for arg in args:
        try:
            params.append(_integer(arg))
        except ValueError:
            shown = repr(_clip(text))
            digits = arg.strip()
            if digits.isascii() and digits.isdecimal():  # but too long for int()
                raise ParseError(
                    f"parameter in {shown} has {len(digits)} digits; int() takes "
                    f"at most {sys.get_int_max_str_digits()} "
                    "(sys.get_int_max_str_digits())"
                ) from None
            raise ParseError(f"non-integer parameter in {shown}") from None
    return tuple(params)


def _parse_factors(rest: str) -> list[FamilySpec]:
    # Regroup comma-separated tokens: a token naming a family (or z<k>)
    # starts a new factor; bare integers extend the previous factor's
    # parameter list (so prod:metacyclic:4,2,z2 parses as expected).
    pieces: list[str] = []
    for token in rest.split(","):
        token = token.strip()
        if not token:
            raise ParseError("empty factor in prod spec")
        if token.isdigit() and pieces:
            pieces[-1] += "," + token
        elif token.partition(":")[0] == "prod":
            raise ParseError(_NESTED_PRODUCT)
        else:
            pieces.append(token)
    return [parse_family(piece) for piece in pieces]
