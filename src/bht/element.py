"""Prefix-exchange bisections and group elements with exact arithmetic.

A :class:`PrefixBijection` matches finitely many pairwise disjoint source
bricks with pairwise disjoint target bricks; on each matched pair it
transplants the per-dimension suffix, giving a homeomorphism between two
clopen sets.  A :class:`TableElement` is the full case (source = target =
whole space): an element of the prefix-exchange group of the space.

Composition refines the middle partitions against each other and rereads the
resulting cells, so the group law is exact.  Every composite, image, meet of
clopens and word-problem test reads its cells from
:func:`bht.space.compose_cells`, which visits only pairs of bricks that
really meet, builds each cell in one pass and keeps the brick of a side
that gains no letters (both, at an exact meet: a target of g that is a
source of f).

Validate input, not results: the constructors of both classes check cells
from outside (``textio.parse``, ``sampling``, library callers); whatever the
package derives from checked objects is correct by construction and built by
``_wrap``, unchecked.  Each check reads the whole list.  The roots and
letters of every brick go through one :meth:`bht.space.Brick.validate`
call, which looks for the first bad brick only when the batch fails.  The
disjointness check first tests the sorted neighbours' roots and dimension-0
words: two such keys nest only when one word is a prefix of the other, and
every key sorted between them extends the shorter, so when no neighbour's
key lies in the one before it the keys form a prefix code and the bricks
are disjoint, in any dimension count.  Otherwise every brick is looked up
in a :class:`bht.space.BrickIndex` of the sorted list, so the error names
the first brick of the list, in the order given, that meets another, and
its first partner.  Coverage sums, over the bricks, products of powers
read from one column of word lengths per dimension.
``compose``, ``invert`` and ``canonicalize`` keep the sorted output of
:func:`bht.space.merge_families` as it is.  For one-dimensional spaces the
canonical form is the classical reduced table and is unique per element; in
higher dimensions it is a deterministic normal form and equality is decided
semantically (``equals``), never by comparing cell lists.
"""

from dataclasses import dataclass
from itertools import chain
from operator import mul
from typing import Iterable

from .errors import DomainError, OverlapError
from .space import (
    Brick, BrickIndex, Cell, Clopen, RationalPoint, SpaceSpec, compose_cells, merge_families,
)


def _head_inside(b: Brick, a: Brick) -> bool:
    """Whether b's root and dimension-0 word lie in a's: the roots agree and
    a's word is a prefix of b's."""
    w = a.words[0]
    return b.root == a.root and b.words[0][:len(w)] == w


def _check_disjoint(side: str, bricks: list[Brick]):
    """Raise on the first brick that meets another, naming its first partner.

    A list whose roots and dimension-0 words form a prefix code, as its
    sorted neighbours show (see the module docstring), passes at once.
    """
    ordered = sorted(bricks)
    if not any(map(_head_inside, ordered[1:], ordered)):
        return
    index = BrickIndex(ordered)
    for i, b in enumerate(bricks):
        hits = index.meeting(b)
        if len(hits) > 1:
            # ordered[j] is bricks[order[j]]
            order = sorted(range(len(bricks)), key=bricks.__getitem__)
            partner = min(order[j] for j in hits if order[j] != i)
            raise OverlapError(side, b, bricks[partner])


def _covers(space: SpaceSpec, bricks: list[Brick]) -> bool:
    """Whether pairwise disjoint bricks cover the space, in exact integers.

    With D_j the deepest word length in dimension j, the space is r * prod_j
    k_j^D_j bricks of that depth, and a brick with words w_j holds
    prod_j k_j^(D_j - |w_j|) of them.  The word lengths are read one column
    (dimension) at a time.
    """
    held = [1] * len(bricks)
    whole = space.r
    for k, column in zip(space.kbar, zip(*[b.words for b in bricks])):
        lengths = list(map(len, column))
        deepest = max(lengths)
        # powers[i] = k^(deepest - i)
        powers = [k ** (deepest - i) for i in range(deepest + 1)]
        held = map(mul, held, map(powers.__getitem__, lengths))
        whole *= powers[0]
    return sum(held) == whole


@dataclass(frozen=True, slots=True, init=False, repr=False)
class PrefixBijection:
    """Finite matching of disjoint source bricks to disjoint target bricks.

    Equality is syntactic on the cell list and holds only between objects of
    the same class, so a table never equals a bisection.
    """

    space: SpaceSpec
    cells: tuple[Cell, ...]

    def __init__(self, space: SpaceSpec, cells: Iterable[Cell]):
        cells = sorted(map(tuple, cells))
        Brick.validate(space, list(chain.from_iterable(cells)))
        sources = [d for d, _ in cells]
        targets = sorted(r for _, r in cells)
        _check_disjoint("source", sources)
        _check_disjoint("target", targets)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "cells", tuple(cells))

    def __repr__(self):
        return "%s(%d cells over %s)" % (type(self).__name__, len(self.cells), self.space)

    @property
    def source(self) -> Clopen:
        return Clopen._wrap(self.space, [d for d, _ in self.cells])

    @property
    def image(self) -> Clopen:
        return Clopen._wrap(self.space, [r for _, r in self.cells])

    @classmethod
    def _wrap(cls, space: SpaceSpec, cells: list[Cell]):
        """Build from sorted cells derived from validated objects, unchecked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "space", space)
        object.__setattr__(obj, "cells", tuple(cells))
        return obj


@dataclass(frozen=True, slots=True, init=False, repr=False)
class TableElement(PrefixBijection):
    """Full bisection: a prefix-exchange homeomorphism of the whole space.

    Instances keep whatever cell partition they were built with; use
    :func:`canonicalize` for the normal form and :func:`equals` to compare.
    Syntactic ``==`` compares cell lists only.
    """

    def __init__(self, space: SpaceSpec, cells: Iterable[Cell]):
        PrefixBijection.__init__(self, space, cells)
        if not _covers(space, [d for d, _ in self.cells]):
            raise DomainError("source bricks do not cover the space")
        if not _covers(space, [r for _, r in self.cells]):
            raise DomainError("target bricks do not cover the space")


@dataclass(frozen=True, slots=True)
class Multisection:
    """Order-3 element cycling three disjoint clopens, identity elsewhere."""

    element: TableElement
    sets: tuple[Clopen, Clopen, Clopen]


def identity(space: SpaceSpec) -> TableElement:
    b = [space.root_brick(i) for i in range(space.r)]
    return TableElement._wrap(space, [(x, x) for x in b])


def extend_by_identity(space: SpaceSpec, cells: list[Cell]) -> TableElement:
    """Canonical table acting by ``cells`` (a bisection of a clopen onto
    itself) and as the identity off its source."""
    rest = Clopen._wrap(space, [d for d, _ in cells]).complement()
    return TableElement._wrap(space, merge_families(space, cells + [(x, x) for x in rest.bricks]))


def inverse_cells(g: PrefixBijection) -> list[Cell]:
    """The cells of g^-1 as g lists them, unsorted and unmerged."""
    return [(r, d) for d, r in g.cells]


def compose_partial(f: PrefixBijection, g: PrefixBijection) -> PrefixBijection:
    """Partial composite f after g, defined where the images line up."""
    f.space.check_same(g.space)
    return PrefixBijection._wrap(f.space, sorted(compose_cells(f.cells, g.cells)))


def invert_partial(b: PrefixBijection) -> PrefixBijection:
    return PrefixBijection._wrap(b.space, sorted(inverse_cells(b)))


def compose(f: TableElement, g: TableElement) -> TableElement:
    """Group law: apply g first, then f; the result is canonicalized."""
    f.space.check_same(g.space)
    return TableElement._wrap(f.space, merge_families(f.space, compose_cells(f.cells, g.cells)))


def invert(g: TableElement) -> TableElement:
    """Inverse table, canonicalized."""
    return TableElement._wrap(g.space, merge_families(g.space, inverse_cells(g)))


def canonicalize(g: TableElement) -> TableElement:
    """Merge complete sibling cell families (see :func:`bht.space.merge_families`)."""
    return TableElement._wrap(g.space, merge_families(g.space, g.cells))


def identity_cells(cells: Iterable[Cell]) -> bool:
    """Whether every cell has equal source and target brick.

    On the cells of a table, or the raw cells of a composite of tables, the
    test is exact on any cell partition, canonical or not.  A cell with
    distinct source and target bricks moves a dense subset of its source
    cylinder: its fixed part is a product of at most one ultimately periodic
    point per dimension, which has empty interior.  The cells may come
    lazily; the test stops at the first moving one.
    """
    return all(d == r for d, r in cells)


def is_identity(g: TableElement) -> bool:
    """Whether g is the identity, on its cells as they are (see
    :func:`identity_cells`)."""
    return identity_cells(g.cells)


def equals(f: TableElement, g: TableElement) -> bool:
    """Word problem: whether f and g agree as homeomorphisms.

    Tests the raw cells of f after g^-1 with :func:`identity_cells`.
    """
    f.space.check_same(g.space)
    return identity_cells(compose_cells(f.cells, inverse_cells(g)))


def apply_point(g: PrefixBijection, p: RationalPoint) -> RationalPoint:
    """Image of an ultimately periodic point, renormalized."""
    g.space.check_same(p.space)
    for d, r in g.cells:
        if p.in_brick(d):
            tail = p.drop(tuple(len(w) for w in d.words))
            coords = [
                (rw + pre, per) for rw, (pre, per) in zip(r.words, tail)
            ]
            return RationalPoint(p.space, r.root, coords)
    raise DomainError("point lies outside the source of the bisection")


def image_clopen(g: PrefixBijection, x: Clopen) -> Clopen:
    """Image of the part of x inside the source of g."""
    g.space.check_same(x.space)
    cells = compose_cells(g.cells, [(b, b) for b in x.bricks])
    return Clopen._wrap(x.space, [r for _, r in cells])


def closed_support(g: TableElement) -> Clopen:
    """Closure of the moved-point set, as a clopen.

    A non-identity cell moves a dense part of its source (see
    :func:`identity_cells`), so on any cell partition the closure is exactly the
    union of the source cylinders of the non-identity cells.
    """
    return Clopen._wrap(g.space, [d for d, r in g.cells if d != r])


def order(g: TableElement, bound: int):
    """Least m <= bound with g^m the identity, or None when the bound is hit.

    Each power is tested on its raw cells (see :func:`identity_cells`).
    """
    if bound < 1:
        raise DomainError("order bound must be >= 1")
    power = g
    for m in range(1, bound + 1):
        if is_identity(power):
            return m
        power = compose(power, g)
    return None


def commutator(f: TableElement, g: TableElement) -> TableElement:
    return compose(compose(f, g), compose(invert(f), invert(g)))
