"""Closed-form homology, abelianization, character counts and perfectness.

Groups are described up to isomorphism by their invariant factors
d_1 | d_2 | ..., which gcd and lcm find without factoring any integer:

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
from collections import Counter
from dataclasses import dataclass

from .errors import DomainError, NotDeterminedError
from .space import SpaceSpec


@dataclass(frozen=True, slots=True, init=False, repr=False)
class AbelianGroup:
    """Finitely generated abelian group, by its ascending invariant factors.

    Accepts any list of cyclic orders (0 denotes an infinite cyclic factor,
    1 is dropped); ``factors`` lists a 0 for each infinite factor, then the
    finite factors d_1 | d_2 | ..., so two instances compare equal exactly
    when the groups are isomorphic.

    >>> AbelianGroup([2, 4, 4, 3]).factors
    (2, 4, 12)
    """

    factors: tuple[int, ...]

    def __init__(self, orders):
        zeros, chain = 0, []
        for d in orders:
            d = abs(int(d))
            if d == 0:
                zeros += 1
                continue
            # Z_c + Z_d = Z_gcd + Z_lcm: the gcd moves down the chain until
            # the factor below divides it
            i = len(chain)
            while d > 1 and i and d % chain[i - 1]:
                i -= 1
                chain[i], d = math.lcm(chain[i], d), math.gcd(chain[i], d)
            if d > 1:
                chain.insert(i, d)
        object.__setattr__(self, "factors", (0,) * zeros + tuple(chain))

    def is_trivial(self) -> bool:
        return not self.factors

    def __str__(self):
        return " x ".join("Z" if d == 0 else "Z_%d" % d for d in self.factors) or "0"

    def __repr__(self):
        return "AbelianGroup(%r)" % (list(self.factors),)


def homology(space: SpaceSpec, i: int) -> AbelianGroup:
    """Degree-i homology: (Z/gZ)^C(n-1, i), independent of the root count."""
    if i < 0:
        raise DomainError("degree must be >= 0")
    return AbelianGroup([space.g] * math.comb(space.n - 1, i) if space.g > 1 else [])


@dataclass(frozen=True, slots=True)
class CharacterFamily:
    """``count`` proper characters, each of the given order."""

    count: int
    order: int


def _orders(space: SpaceSpec) -> list[int]:
    """Cyclic orders whose sum is the abelianization.

    For equal alphabet sizes k this is the seven-case table driven by the
    abelianization exact sequence; mixed alphabet sizes are covered only in
    the acyclic case g = 1, where the group is perfect.
    """
    if len(set(space.kbar)) > 1:
        if space.g == 1:
            return []
        raise NotDeterminedError(
            "abelianization for mixed alphabet sizes with g = %d > 1 is not "
            "determined by the supported closed forms" % space.g
        )
    k, n = space.kbar[0], space.n
    if k % 2 == 0:
        return [k - 1] * (n - 1)
    if n == 1:
        return [2]
    if k % 4 == 1:
        return [2] + [k - 1] * (n - 1)
    if n == 2:
        return [2 * k - 2]
    return [k - 1] * (n - 1)


def abelianization(space: SpaceSpec) -> AbelianGroup:
    """Abelianization of the full group of the space (see :func:`_orders`).

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
    return AbelianGroup(_orders(space))


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
    # one family for each run of equal invariant factors
    runs = Counter(dual.factors)
    return CharacterTable(tuple(CharacterFamily(c, d) for d, c in runs.items()), dual)


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
