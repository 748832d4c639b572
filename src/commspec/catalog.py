"""Constructors for the named group families on the verification grid.

Each family's elements are normal-form words (a^i b^j, or (x, y, z) for
the Heisenberg group) at fixed indices, and every table entry is the index
of a product, written by index arithmetic from the defining relations.
The table then runs through full axiom validation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import NotPrimeError, ParameterOutOfRange, ParseError
from .groups import FiniteGroup, from_cayley_table, is_prime

@dataclass(frozen=True)
class FamilySpec:
    """Parameters of a group family; use the named constructors."""

    kind: str
    params: tuple[int, ...] = ()
    factors: tuple["FamilySpec", ...] = ()

    @staticmethod
    def dihedral(m: int) -> "FamilySpec":
        if m < 2:
            raise ParameterOutOfRange(f"dihedral needs m >= 2, got {m}")
        return FamilySpec("dihedral", (m,))

    @staticmethod
    def dicyclic(m: int) -> "FamilySpec":
        if m < 2:
            raise ParameterOutOfRange(f"dicyclic needs m >= 2, got {m}")
        return FamilySpec("dicyclic", (m,))

    @staticmethod
    def metacyclic(m: int, n: int) -> "FamilySpec":
        if m <= 2:
            raise ParameterOutOfRange(f"metacyclic needs m > 2, got {m}")
        if n < 1:
            raise ParameterOutOfRange(f"metacyclic needs n >= 1, got {n}")
        return FamilySpec("metacyclic", (m, n))

    @staticmethod
    def u6n(n: int) -> "FamilySpec":
        if n < 1:
            raise ParameterOutOfRange(f"u6n needs n >= 1, got {n}")
        return FamilySpec("u6n", (n,))

    @staticmethod
    def heis(p: int) -> "FamilySpec":
        if not is_prime(p):
            raise NotPrimeError(f"heis needs a prime, got {p}")
        return FamilySpec("heis", (p,))

    @staticmethod
    def expp2(p: int) -> "FamilySpec":
        if not is_prime(p):
            raise NotPrimeError(f"expp2 needs a prime, got {p}")
        return FamilySpec("expp2", (p,))

    @staticmethod
    def zpzp(p: int) -> "FamilySpec":
        if not is_prime(p):
            raise NotPrimeError(f"zpzp needs a prime, got {p}")
        return FamilySpec("zpzp", (p,))

    @staticmethod
    def cyclic(k: int) -> "FamilySpec":
        if k < 1:
            raise ParameterOutOfRange(f"cyclic needs k >= 1, got {k}")
        return FamilySpec("cyclic", (k,))

    @staticmethod
    def product(*factors: "FamilySpec") -> "FamilySpec":
        if len(factors) < 2:
            raise ParameterOutOfRange("product needs at least two factors")
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
        if self.kind == "dihedral":
            return 2 * self.params[0]
        if self.kind == "dicyclic":
            return 4 * self.params[0]
        if self.kind == "metacyclic":
            return 2 * self.params[0] * self.params[1]
        if self.kind == "u6n":
            return 6 * self.params[0]
        if self.kind in ("heis", "expp2"):
            return self.params[0] ** 3
        if self.kind == "zpzp":
            return self.params[0] ** 2
        if self.kind == "cyclic":
            return self.params[0]
        prod = 1
        for f in self.factors:
            prod *= f.order()
        return prod


def _word(*terms: tuple[str, int]) -> str:
    parts = []
    for sym, e in terms:
        if e == 0:
            continue
        parts.append(sym if e == 1 else f"{sym}^{e}")
    return "".join(parts) or "1"


def _cyclic_extension(
    a_order: int, b_order: int, twist: int, b_power: int
) -> FiniteGroup:
    """The group of words a^i b^j, element a^i b^j at index j*|a| + i.

    Relations: a^|a| = 1, b a b^-1 = a^twist and b^|b| = a^b_power.  Moving
    b^j1 past a^i2 gives a^i1 b^j1 a^i2 b^j2 = a^(i1 + twist^j1 i2) b^(j1 + j2),
    and b^(j1 + j2) picks up a^b_power when j1 + j2 reaches |b|.  Entries
    are drawn from one list of indices, so the table shares its int objects.
    """
    n = a_order * b_order
    idx = list(range(n))
    # act[j][i]: the exponent of b^j a^i b^-j
    act = [
        [pow(twist, j, a_order) * i % a_order for i in range(a_order)]
        for j in range(b_order)
    ]
    table = []
    for j1 in range(b_order):
        for i1 in range(a_order):
            row = []
            for j2 in range(b_order):
                j = j1 + j2
                shift = i1 + b_power if j >= b_order else i1
                base = j % b_order * a_order
                row += [idx[base + (shift + k) % a_order] for k in act[j1]]
            table.append(row)
    names = [_word(("a", i), ("b", j)) for j in range(b_order) for i in range(a_order)]
    return from_cayley_table(table, names)


def _dihedral(m: int) -> FiniteGroup:
    # <a, b : a^m = b^2 = 1, b a b^-1 = a^-1>, order 2m
    return _cyclic_extension(m, 2, -1, 0)


def _dicyclic(m: int) -> FiniteGroup:
    # <a, b : a^2m = 1, b^2 = a^m, b a b^-1 = a^-1>, order 4m
    return _cyclic_extension(2 * m, 2, -1, m)


def _metacyclic(m: int, n: int) -> FiniteGroup:
    # <a, b : a^m = b^2n = 1, b a b^-1 = a^-1>, order 2mn
    return _cyclic_extension(m, 2 * n, -1, 0)


def _u6n(n: int) -> FiniteGroup:
    # <a, b : a^2n = b^3 = 1, a^-1 b a = b^-1>, order 6n; a^j b^i at 3j + i,
    # and a^j1 b^i1 a^j2 b^i2 = a^(j1 + j2) b^((-1)^j2 i1 + i2)
    order_a = 2 * n
    idx = list(range(3 * order_a))
    table = [
        [
            idx[(j1 + j2) % order_a * 3 + ((i2 - i1) if j2 % 2 else (i1 + i2)) % 3]
            for j2 in range(order_a)
            for i2 in range(3)
        ]
        for j1 in range(order_a)
        for i1 in range(3)
    ]
    names = [_word(("a", j), ("b", i)) for j in range(order_a) for i in range(3)]
    return from_cayley_table(table, names)


def _heisenberg(p: int) -> FiniteGroup:
    # upper unitriangular 3x3 matrices over Z_p as (x, y, z) triples, at
    # x*p^2 + y*p + z; (x1, y1, z1)(x2, y2, z2) = (x1 + x2, y1 + y2,
    # z1 + z2 + x1*y2).  For fixed x2 and y2 the p products run through z
    # cyclically from z1 + x1*y2, so each is two slices of one shared index
    # list.
    pp = p * p
    idx = list(range(pp * p))
    table = []
    for x1 in range(p):
        for y1 in range(p):
            for z1 in range(p):
                row = []
                for x2 in range(p):
                    for y2 in range(p):
                        base = (x1 + x2) % p * pp + (y1 + y2) % p * p
                        z = (z1 + x1 * y2) % p
                        row += idx[base + z : base + p]
                        row += idx[base : base + z]
                table.append(row)
    names = [f"({x},{y},{z})" for x in range(p) for y in range(p) for z in range(p)]
    return from_cayley_table(table, names)


def _exp_p_squared(p: int) -> FiniteGroup:
    # <a, b : a^(p^2) = 1, b^p = 1, b a b^-1 = a^(1+p)>, order p^3.
    # At p = 2 this presentation collapses onto the dihedral group, so the
    # quaternion group is returned instead to cover the second order-8 type.
    if p == 2:
        return _dicyclic(2)
    return _cyclic_extension(p * p, p, 1 + p, 0)


def _cyclic(k: int) -> FiniteGroup:
    table = [[(i + j) % k for j in range(k)] for i in range(k)]
    names = [_word(("z", i)) for i in range(k)]
    return from_cayley_table(table, names)


def _zpzp(p: int) -> FiniteGroup:
    return direct_product(_cyclic(p), _cyclic(p))


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element (a, b) is encoded as a*|H| + b."""
    hn = h.order
    n = g.order * hn
    table = [[0] * n for _ in range(n)]
    for a1 in range(g.order):
        for b1 in range(hn):
            row = table[a1 * hn + b1]
            ga = g.table[a1]
            hb = h.table[b1]
            for a2 in range(g.order):
                base = ga[a2] * hn
                for b2 in range(hn):
                    row[a2 * hn + b2] = base + hb[b2]
    names = [
        f"({g.names[a]},{h.names[b]})" for a in range(g.order) for b in range(hn)
    ]
    return from_cayley_table(table, names)


def build(spec: FamilySpec) -> FiniteGroup:
    """Build and validate the group described by ``spec``."""
    if spec.kind == "dihedral":
        return _dihedral(*spec.params)
    if spec.kind == "dicyclic":
        return _dicyclic(*spec.params)
    if spec.kind == "metacyclic":
        return _metacyclic(*spec.params)
    if spec.kind == "u6n":
        return _u6n(*spec.params)
    if spec.kind == "heis":
        return _heisenberg(*spec.params)
    if spec.kind == "expp2":
        return _exp_p_squared(*spec.params)
    if spec.kind == "zpzp":
        return _zpzp(*spec.params)
    if spec.kind == "cyclic":
        return _cyclic(*spec.params)
    if spec.kind == "product":
        group = build(spec.factors[0])
        for factor in spec.factors[1:]:
            group = direct_product(group, build(factor))
        return group
    raise ParameterOutOfRange(f"unknown family kind {spec.kind!r}")


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


_CYCLIC_TOKEN = re.compile(r"z(\d+)")

_INT_ARGS = {
    "dihedral": 1,
    "dicyclic": 1,
    "metacyclic": 2,
    "u6n": 1,
    "heis": 1,
    "expp2": 1,
    "zpzp": 1,
}


def parse_family(text: str) -> FamilySpec:
    """Parse a CLI family string like ``dicyclic:2`` or ``prod:dihedral:4,z3``."""
    text = text.strip()
    if not text:
        raise ParseError("empty group spec")
    match = _CYCLIC_TOKEN.fullmatch(text)
    if match:
        return FamilySpec.cyclic(int(match.group(1)))
    head, sep, rest = text.partition(":")
    if head == "prod":
        if not sep or not rest:
            raise ParseError("prod: needs comma-separated factors")
        return FamilySpec.product(*_parse_factors(rest))
    if head in _INT_ARGS:
        if not sep:
            raise ParseError(f"{head} needs parameters, e.g. {head}:2")
        args = rest.split(",")
        if len(args) != _INT_ARGS[head]:
            raise ParseError(
                f"{head} takes {_INT_ARGS[head]} parameter(s), got {len(args)}"
            )
        try:
            values = [int(a) for a in args]
        except ValueError:
            raise ParseError(f"non-integer parameter in {text!r}") from None
        return getattr(FamilySpec, head)(*values)
    raise ParseError(f"unknown family {head!r}")


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
        else:
            pieces.append(token)
    return [parse_family(piece) for piece in pieces]
