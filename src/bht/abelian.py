"""Closed-form homology, abelianization, character counts and perfectness.

Groups are described up to isomorphism by their primary decomposition:

>>> print(AbelianGroup([12]))
Z_12
>>> AbelianGroup([12]) == AbelianGroup([4, 3])
True
>>> print(AbelianGroup([2, 4, 4]))
Z_2 x Z_4 x Z_4
>>> print(AbelianGroup([]))
0

The homology of the groupoid underlying the group on a space with alphabet
sizes k_1..k_n and g = gcd(k_j - 1) is (Z/gZ)^C(n-1, i) in degree i,
independently of the root count:

>>> from bht.space import SpaceSpec
>>> print(homology(SpaceSpec(2, (3, 3), 5), 1))
Z_2
>>> print(homology(SpaceSpec(3, (3, 5, 3), 1), 1))
Z_2 x Z_2
"""

import math
from dataclasses import dataclass

from .errors import DomainError, NotDeterminedError
from .space import SpaceSpec


def _factorint(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


@dataclass(frozen=True, slots=True, init=False, repr=False)
class AbelianGroup:
    """Finite abelian group as a multiset of prime-power cyclic orders.

    Accepts any list of cyclic orders (0 denotes an infinite cyclic factor,
    1 is dropped); two instances compare equal exactly when the groups are
    isomorphic.  Printing uses ascending invariant factors.
    """

    rank: int
    primary: tuple[int, ...]

    def __init__(self, orders):
        rank = 0
        primary = []
        for d in orders:
            d = abs(int(d))
            if d == 0:
                rank += 1
            elif d > 1:
                primary.extend(sorted(_factorint(d).items()))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "primary", tuple(sorted(p ** e for p, e in primary)))

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.primary

    def order(self):
        """Number of elements, or None for an infinite group."""
        if self.rank:
            return None
        return math.prod(self.primary)

    def invariant_factors(self) -> list[int]:
        """Ascending invariant factor list (0 for each infinite factor).

        >>> AbelianGroup([2, 4, 4, 3]).invariant_factors()
        [2, 4, 12]
        """
        by_prime: dict[int, list[int]] = {}
        for q in self.primary:
            p = min(_factorint(q))
            by_prime.setdefault(p, []).append(q)
        for qs in by_prime.values():
            qs.sort(reverse=True)
        width = max((len(qs) for qs in by_prime.values()), default=0)
        factors = []
        for i in range(width):
            d = 1
            for qs in by_prime.values():
                if i < len(qs):
                    d *= qs[i]
            factors.append(d)
        return [0] * self.rank + factors[::-1]

    def __str__(self):
        if self.is_trivial():
            return "0"
        parts = ["Z" if d == 0 else "Z_%d" % d for d in self.invariant_factors()]
        return " x ".join(parts)

    def __repr__(self):
        return "AbelianGroup(%r)" % (self.invariant_factors(),)


def homology(space: SpaceSpec, i: int) -> AbelianGroup:
    """Degree-i homology: (Z/gZ)^C(n-1, i), independent of the root count."""
    if i < 0:
        raise DomainError("degree must be >= 0")
    return AbelianGroup([space.g] * math.comb(space.n - 1, i))


@dataclass(frozen=True, slots=True)
class CharacterFamily:
    """``count`` proper characters, each of the given order."""

    count: int
    order: int


def _families(space: SpaceSpec) -> tuple[CharacterFamily, ...]:
    """Cyclic factors of the abelianization, grouped as character families.

    For equal alphabet sizes k this is the seven-case table driven by the
    abelianization exact sequence; mixed alphabet sizes are covered only in
    the acyclic case g = 1, where the group is perfect.
    """
    if len(set(space.kbar)) > 1:
        if space.g == 1:
            return ()
        raise NotDeterminedError(
            "abelianization for mixed alphabet sizes with g = %d > 1 is not "
            "determined by the supported closed forms" % space.g
        )
    k, n = space.kbar[0], space.n
    if k % 2 == 0:
        return (CharacterFamily(n - 1, k - 1),)
    if n == 1:
        return (CharacterFamily(1, 2),)
    if k % 4 == 1:
        return (CharacterFamily(1, 2), CharacterFamily(n - 1, k - 1))
    if n == 2:
        return (CharacterFamily(1, 2 * k - 2),)
    return (CharacterFamily(n - 1, k - 1),)


def abelianization(space: SpaceSpec) -> AbelianGroup:
    """Abelianization of the full group of the space (see :func:`_families`).

    >>> from bht.space import SpaceSpec
    >>> print(abelianization(SpaceSpec(1, (3,), 1)))
    Z_2
    >>> print(abelianization(SpaceSpec(2, (7, 7), 1)))
    Z_12
    >>> print(abelianization(SpaceSpec(3, (5, 5, 5), 1)))
    Z_2 x Z_4 x Z_4
    >>> print(abelianization(SpaceSpec(2, (2, 2), 1)))
    0
    """
    return AbelianGroup([f.order for f in _families(space) for _ in range(f.count)])


@dataclass(frozen=True, slots=True)
class CharacterTable:
    """Proper characters grouped into families, plus the full dual group.

    The families list the generating characters in the customary counting
    style (e.g. "n-1 characters of order k-1"); the dual group of all
    characters is the abelianization itself and is reported alongside.
    """

    families: tuple[CharacterFamily, ...]
    dual_group: AbelianGroup

    @property
    def total(self) -> int:
        return sum(f.count for f in self.families)

    def __str__(self):
        if not self.families:
            return "no proper characters (dual group %s)" % self.dual_group
        body = "; ".join(
            "%d of order %d" % (f.count, f.order) for f in self.families
        )
        return "%s (dual group %s)" % (body, self.dual_group)


def proper_characters(space: SpaceSpec) -> CharacterTable:
    """Proper character families of the full group of the space.

    >>> from bht.space import SpaceSpec
    >>> proper_characters(SpaceSpec(1, (2,), 1)).families
    ()
    >>> proper_characters(SpaceSpec(1, (3,), 1)).families
    (CharacterFamily(count=1, order=2),)
    >>> proper_characters(SpaceSpec(2, (7, 7), 1)).families
    (CharacterFamily(count=1, order=12),)
    """
    dual = abelianization(space)
    return CharacterTable(() if dual.is_trivial() else _families(space), dual)


def is_perfect(space: SpaceSpec) -> bool:
    """Whether the full group equals its derived subgroup.

    True exactly when the abelianization vanishes; for mixed alphabet sizes
    with g > 1 the abelianization surjects onto the degree-one homology
    (Z/gZ)^(n-1), which is nontrivial, so the group is not perfect.
    """
    try:
        return abelianization(space).is_trivial()
    except NotDeterminedError:
        return False
