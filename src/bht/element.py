"""Prefix-exchange bisections and group elements with exact arithmetic.

A :class:`PrefixBijection` matches finitely many pairwise disjoint source
bricks with pairwise disjoint target bricks; on each matched pair it
transplants the per-dimension suffix, giving a homeomorphism between two
clopen sets.  A :class:`TableElement` is the full case (source = target =
whole space): an element of the prefix-exchange group of the space.

Composition refines the middle partitions against each other and rereads the
resulting cells, so the group law is exact.  Both that meet and the
disjointness check on construction look bricks up in a
:class:`bht.space.BrickIndex`, a per-dimension prefix index, and so visit
only pairs of bricks that really meet.  For one-dimensional spaces the
canonical form below is the classical reduced table and is unique per
element; in higher dimensions it is a deterministic normal form and equality
is decided semantically (``equals``), never by comparing cell lists.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError
from .space import (
    Brick, BrickIndex, Cell, Clopen, RationalPoint, SpaceSpec, compose_cells, merge_families,
)


def _check_disjoint(side: str, bricks: list[Brick]):
    """Raise on the first brick that meets another, naming its first partner."""
    if len(bricks) < 2:
        return
    index = BrickIndex(bricks)
    for i, b in enumerate(bricks):
        hits = index.meeting(b)
        if len(hits) > 1:
            partner = min(j for j in hits if j != i)
            raise DomainError("%s bricks overlap: %r, %r" % (side, b, bricks[partner]))


class PrefixBijection:
    """Finite matching of disjoint source bricks to disjoint target bricks."""

    __slots__ = ("space", "cells")

    def __init__(self, space: SpaceSpec, cells: Iterable[Cell]):
        cells = sorted(tuple(c) for c in cells)
        for d, r in cells:
            d.validate(space)
            r.validate(space)
        _check_disjoint("source", [d for d, _ in cells])
        _check_disjoint("target", sorted(r for _, r in cells))
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "cells", tuple(cells))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.space == other.space
            and self.cells == other.cells
        )

    def __hash__(self):
        return hash((type(self).__name__, self.space, self.cells))

    def __repr__(self):
        return "%s(%d cells over %s)" % (type(self).__name__, len(self.cells), self.space)

    @property
    def source(self) -> Clopen:
        return Clopen(self.space, [d for d, _ in self.cells])

    @property
    def image(self) -> Clopen:
        return Clopen(self.space, [r for _, r in self.cells])

    @classmethod
    def _wrap(cls, space: SpaceSpec, cells: Iterable[Cell]):
        """Skip validation for cells that are correct by construction."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "space", space)
        object.__setattr__(obj, "cells", tuple(sorted(cells)))
        return obj


class TableElement(PrefixBijection):
    """Full bisection: a prefix-exchange homeomorphism of the whole space.

    Instances keep whatever cell partition they were built with; use
    :func:`canonicalize` for the normal form and :func:`equals` to compare.
    Syntactic ``==`` compares cell lists only.
    """

    def __init__(self, space: SpaceSpec, cells: Iterable[Cell]):
        super().__init__(space, cells)
        total = Fraction(space.r)
        if sum((d.measure(space) for d, _ in self.cells), Fraction(0)) != total:
            raise DomainError("source bricks do not cover the space")
        if sum((r.measure(space) for _, r in self.cells), Fraction(0)) != total:
            raise DomainError("target bricks do not cover the space")

    def __mul__(self, other):
        return compose(self, other)

    def __invert__(self):
        return invert(self)

    def __pow__(self, m: int):
        if m < 0:
            return invert(self) ** (-m)
        out = identity(self.space)
        for _ in range(m):
            out = compose(out, self)
        return out


@dataclass(frozen=True)
class Multisection:
    """Order-3 element cycling three disjoint clopens, identity elsewhere."""

    element: TableElement
    sets: tuple[Clopen, Clopen, Clopen]


def identity(space: SpaceSpec) -> TableElement:
    b = [space.root_brick(i) for i in range(space.r)]
    return TableElement(space, [(x, x) for x in b])


def compose_partial(f: PrefixBijection, g: PrefixBijection) -> PrefixBijection:
    """Partial composite f after g, defined where the images line up."""
    f.space.check_same(g.space)
    return PrefixBijection(f.space, compose_cells(f.cells, g.cells))


def invert_partial(b: PrefixBijection) -> PrefixBijection:
    return PrefixBijection(b.space, [(r, d) for d, r in b.cells])


def compose(f: TableElement, g: TableElement) -> TableElement:
    """Group law: apply g first, then f; the result is canonicalized."""
    f.space.check_same(g.space)
    return canonicalize(TableElement._wrap(f.space, compose_cells(f.cells, g.cells)))


def invert(g: TableElement) -> TableElement:
    return canonicalize(TableElement._wrap(g.space, [(r, d) for d, r in g.cells]))


def canonicalize(g: TableElement) -> TableElement:
    """Merge complete sibling cell families (see :func:`bht.space.merge_families`)."""
    return TableElement._wrap(g.space, merge_families(g.space, g.cells))


def is_identity(g: TableElement) -> bool:
    """Whether every cell of g has equal source and target brick.

    The test is exact on any cell partition, canonical or not.  A cell with
    distinct source and target bricks moves a dense subset of its source
    cylinder: its fixed part is a product of at most one ultimately periodic
    point per dimension, which has empty interior.
    """
    return all(d == r for d, r in g.cells)


def equals(f: TableElement, g: TableElement) -> bool:
    """Word problem: whether f and g agree as homeomorphisms.

    Tests the raw cells of f after g^-1 as :func:`is_identity` does.
    """
    f.space.check_same(g.space)
    return all(d == r for d, r in compose_cells(f.cells, [(r, d) for d, r in g.cells]))


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
    return Clopen(x.space, [r for _, r in cells])


def closed_support(g: TableElement) -> Clopen:
    """Closure of the moved-point set, as a clopen.

    A non-identity cell moves a dense part of its source (see
    :func:`is_identity`), so on any cell partition the closure is exactly the
    union of the source cylinders of the non-identity cells.
    """
    return Clopen(g.space, [d for d, r in g.cells if d != r])


def order(g: TableElement, bound: int):
    """Least m <= bound with g^m the identity, or None when the bound is hit.

    Each power is tested on its raw cells (see :func:`is_identity`).
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
