"""Exact combinatorics of cylinder sets on disjoint unions of product shift spaces.

The ambient space is ``r`` disjoint copies ("roots") of the product
``prod_j {0..k_j-1}^N`` of one-sided full shifts.  A :class:`Brick` is the set
of points whose j-th coordinate extends a chosen finite word in every
dimension; bricks are the basic compact open sets.  A :class:`Clopen` is a
finite disjoint union of bricks kept in a canonical form, so two values
compare equal exactly when they denote the same point set.

Canonical form: the brick list is rebuilt as a dimension-major decision tree
(split a dimension only where the set genuinely depends on it, lowest
dimension first), and then complete sibling families are merged by
:func:`merge_families`, the kernel that also normalises prefix-exchange
tables in :mod:`bht.element` (a brick is passed as the cell ``(b, b)``).  The
decision-tree stage depends only on the point set, never on the
representation handed in, which makes the final form unique.  Bricks are
finally sorted by root, then dimension-major with prefixes first.

All values here are immutable after construction and every operation is a
pure function, so they can be shared freely between workers.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, SpaceMismatchError

Word = tuple[int, ...]


@dataclass(frozen=True)
class SpaceSpec:
    """Shape of the space: dimension count, alphabet sizes and root count.

    ``g`` is the gcd of the ``k_j - 1``; it is the modulus of the class
    invariant carried by every clopen set (see :func:`h0_class`).
    """

    n: int
    kbar: tuple[int, ...]
    r: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kbar", tuple(self.kbar))
        if self.n < 1:
            raise DomainError("dimension count must be >= 1")
        if len(self.kbar) != self.n:
            raise DomainError(
                "expected %d alphabet sizes, got %d" % (self.n, len(self.kbar))
            )
        if any(k < 2 for k in self.kbar):
            raise DomainError("every alphabet size must be >= 2")
        if self.r < 1:
            raise DomainError("root count must be >= 1")

    @cached_property
    def g(self) -> int:
        return math.gcd(*(k - 1 for k in self.kbar))

    def check_same(self, other: "SpaceSpec"):
        if self != other:
            raise SpaceMismatchError("mismatched spaces: %s vs %s" % (self, other))

    def root_brick(self, root: int) -> "Brick":
        return Brick(root, ((),) * self.n)

    def full(self) -> "Clopen":
        return Clopen(self, [self.root_brick(i) for i in range(self.r)])

    def empty(self) -> "Clopen":
        return Clopen(self, [])

    def __str__(self):
        return "space n=%d k=%s r=%d" % (
            self.n,
            ",".join(str(k) for k in self.kbar),
            self.r,
        )


class Brick(NamedTuple):
    """Cylinder set: all points at ``root`` extending ``words[j]`` in dimension j.

    The built-in tuple order (root, then dimension-major word comparison with
    prefixes first) is exactly the canonical brick order.
    """

    root: int
    words: tuple[Word, ...]

    def validate(self, space: SpaceSpec):
        if not 0 <= self.root < space.r:
            raise DomainError("root %d out of range" % self.root)
        if len(self.words) != space.n:
            raise DomainError("brick has %d words, expected %d" % (len(self.words), space.n))
        for j, w in enumerate(self.words):
            if any(not 0 <= a < space.kbar[j] for a in w):
                raise DomainError("letter out of range in dimension %d" % j)

    def depth(self) -> int:
        return sum(len(w) for w in self.words)

    def measure(self, space: SpaceSpec) -> Fraction:
        denom = 1
        for j, w in enumerate(self.words):
            denom *= space.kbar[j] ** len(w)
        return Fraction(1, denom)

    def contains(self, other: "Brick") -> bool:
        return self.root == other.root and all(
            _is_prefix(w, v) for w, v in zip(self.words, other.words)
        )

    def is_disjoint(self, other: "Brick") -> bool:
        if self.root != other.root:
            return True
        return any(
            not _is_prefix(w, v) and not _is_prefix(v, w)
            for w, v in zip(self.words, other.words)
        )

    def intersect(self, other: "Brick") -> "Brick | None":
        if self.root != other.root:
            return None
        out = []
        for w, v in zip(self.words, other.words):
            if _is_prefix(w, v):
                out.append(v)
            elif _is_prefix(v, w):
                out.append(w)
            else:
                return None
        return Brick(self.root, tuple(out))

    def extend(self, suffixes: tuple[Word, ...]) -> "Brick":
        return Brick(self.root, tuple(w + s for w, s in zip(self.words, suffixes)))

    def child(self, dim: int, letter: int) -> "Brick":
        words = list(self.words)
        words[dim] = words[dim] + (letter,)
        return Brick(self.root, tuple(words))


Cell = tuple[Brick, Brick]


def _is_prefix(w: Word, v: Word) -> bool:
    return len(w) <= len(v) and v[: len(w)] == w


def subdivide(space: SpaceSpec, brick: Brick, dim: int) -> list[Brick]:
    """Split a brick into its k_dim one-letter refinements along ``dim``."""
    if not 0 <= dim < space.n:
        raise DomainError("dimension %d out of range" % dim)
    return [brick.child(dim, a) for a in range(space.kbar[dim])]


def brick_subtract(space: SpaceSpec, b: Brick, c: Brick) -> list[Brick]:
    """Bricks covering b minus c, by recursive subdivision toward c."""
    if b.is_disjoint(c):
        return [b]
    if c.contains(b):
        return []
    # b and c meet and c does not cover b, so c is strictly deeper in some
    # dimension; split b there and recurse into the single meeting child.
    for j in range(space.n):
        if len(c.words[j]) > len(b.words[j]):
            keep = c.words[j][len(b.words[j])]
            out = []
            for a in range(space.kbar[j]):
                child = b.child(j, a)
                if a == keep:
                    out.extend(brick_subtract(space, child, c))
                else:
                    out.append(child)
            return out
    raise AssertionError("unreachable: overlapping bricks with equal depths")


def _section_words(space: SpaceSpec, dim: int, boxes: list[tuple[Word, ...]]) -> list[tuple[Word, ...]]:
    """Decision-tree form of the union of word boxes over dims >= dim.

    The boxes may overlap or repeat.  The dim-th coordinate tree is split
    exactly where the union fails to be constant on a subtree, and the
    sections below are handled recursively.  The output depends only on the
    union of the boxes, not on the boxes themselves.
    """
    if not boxes:
        return []
    if dim == space.n:
        return [()]
    k = space.kbar[dim]

    def node(items):
        at = [rest for w, rest in items if not w]
        deeper = [(w, rest) for w, rest in items if w]
        if not deeper:
            return (True, _section_words(space, dim + 1, at))
        kids = []
        for a in range(k):
            child = [(w[1:], rest) for w, rest in deeper if w[0] == a]
            child += [((), rest) for rest in at]
            kids.append(node(child))
        first = kids[0]
        if all(kid[0] and kid[1] == first[1] for kid in kids):
            return first
        return (False, kids)

    out: list[tuple[Word, ...]] = []

    def flatten(u, res):
        const, payload = res
        if const:
            for rest in payload:
                out.append((u,) + rest)
        else:
            for a, kid in enumerate(payload):
                flatten(u + (a,), kid)

    flatten((), node([(words[0], words[1:]) for words in boxes]))
    return out


def merge_families(space: SpaceSpec, cells: Iterable[Cell]) -> list[Cell]:
    """Merge complete sibling families of (source, target) cells, sorted.

    A family along dimension j is a set of k_j cells obtained from a parent
    cell by appending the same letter to the source and target words in
    dimension j.  Within one dimension families never overlap, so dimension 0
    is merged in rounds; higher dimensions merge one family at a time
    (smallest parent first) and restart, which keeps the result deterministic
    even though families along different dimensions may share cells.  Tables
    pass their cells; clopens pass each brick b as the cell ``(b, b)``.
    """
    cells = set(cells)

    def complete(dim: int) -> list[Cell]:
        # Keyed by plain tuples; only complete parents become bricks.
        buckets: dict[tuple, set[int]] = {}
        for d, r in cells:
            dw, rw = d.words[dim], r.words[dim]
            if dw and rw and dw[-1] == rw[-1]:
                key = (
                    d.root, d.words[:dim] + (dw[:-1],) + d.words[dim + 1:],
                    r.root, r.words[:dim] + (rw[:-1],) + r.words[dim + 1:],
                )
                buckets.setdefault(key, set()).add(dw[-1])
        k = space.kbar[dim]
        return [
            (Brick(dr, dp), Brick(rr, rp))
            for (dr, dp, rr, rp), letters in buckets.items() if len(letters) == k
        ]

    def merge(parent: Cell, dim: int):
        pd, pr = parent
        for a in range(space.kbar[dim]):
            cells.discard((pd.child(dim, a), pr.child(dim, a)))
        cells.add(parent)

    while True:
        parents = complete(0)
        while parents:
            for p in parents:
                merge(p, 0)
            parents = complete(0)
        for j in range(1, space.n):
            parents = complete(j)
            if parents:
                merge(min(parents), j)
                break
        else:
            break
    return sorted(cells)


def canonical_bricks(space: SpaceSpec, bricks: Iterable[Brick]) -> tuple[Brick, ...]:
    """Canonical representative of the union of ``bricks`` (overlaps allowed)."""
    by_root: dict[int, list[tuple[Word, ...]]] = {}
    for b in bricks:
        by_root.setdefault(b.root, []).append(b.words)
    sectioned = []
    for root, boxes in by_root.items():
        for words in _section_words(space, 0, boxes):
            b = Brick(root, words)
            sectioned.append((b, b))
    return tuple(b for b, _ in merge_families(space, sectioned))


_PAST = (math.inf,)


def _index_level(node: dict, below: int) -> tuple[dict, list, list]:
    """A trie node as (children, keys in order, children in key order)."""
    if below:
        node = {w: _index_level(child, below - 1) for w, child in node.items()}
    keys = sorted(node)
    return node, keys, [node[w] for w in keys]


class BrickIndex:
    """Prefix index over a list of bricks: which of them meet a query brick.

    Two bricks meet exactly when they share a root and, in every dimension,
    one word is a prefix of the other.  The bricks are grouped by root and
    then by word, one dimension per level; each level keeps a dict from word
    to the next level and its keys and values in key order.  A query finds
    the prefixes of its word by dict lookups and the extensions by a bisect
    range, so it visits only branches that really meet.
    """

    __slots__ = ("_roots",)

    def __init__(self, bricks: Iterable[Brick]):
        tries: dict[int, dict] = {}
        depth = 0
        for i, b in enumerate(bricks):
            depth = len(b.words)
            node = tries.setdefault(b.root, {})
            for w in b.words[:-1]:
                node = node.setdefault(w, {})
            node.setdefault(b.words[-1], []).append(i)
        self._roots = {root: _index_level(node, depth - 1) for root, node in tries.items()}

    def meeting(self, b: Brick) -> list[int]:
        """Positions, in the indexed list, of the bricks that meet ``b``."""
        level = self._roots.get(b.root)
        found = [level] if level else []
        for w in b.words:
            hits: list = []
            for children, keys, values in found:
                # the proper prefixes of w, looked up one by one
                for i in range(len(w)):
                    child = children.get(w[:i])
                    if child is not None:
                        hits.append(child)
                # w and its extensions: every word that starts with w sorts
                # in [w, w + (inf,))
                lo = bisect_left(keys, w)
                hits += values[lo:bisect_left(keys, w + _PAST, lo)]
            found = hits
        return [i for leaf in found for i in leaf]


def compose_cells(f_cells: Iterable[Cell], g_cells: Iterable[Cell]) -> Iterator[Cell]:
    """Cells of the partial map f after g, one per meeting g-target and f-source.

    The sources of f go into a :class:`BrickIndex` and each target of g is
    looked up there, so only pairs that meet are visited.  Each meet is
    pulled back through g and pushed forward through f: in every dimension
    one of the two words extends the other, and the meet's word is the
    longer one, so each side is extended by what the other word has beyond
    it.  Cells are yielded lazily, in the order of g, so a caller may stop
    at the first one it needs.  A clopen enters as the partial identity with
    cells ``(b, b)``.
    """
    f_cells = list(f_cells)
    index = BrickIndex(d for d, _ in f_cells)
    for gd, gr in g_cells:
        for i in index.meeting(gr):
            fd, fr = f_cells[i]
            pairs = list(zip(gr.words, fd.words))
            yield (gd.extend(tuple(v[len(w):] for w, v in pairs)),
                   fr.extend(tuple(w[len(v):] for w, v in pairs)))


class Clopen:
    """Finite union of bricks over a fixed space, stored canonically.

    The constructor accepts any iterable of bricks (overlaps allowed) and
    canonicalizes.  Instances are immutable; equality and hashing are
    syntactic on the canonical form, hence semantic on point sets.
    """

    __slots__ = ("space", "bricks")

    def __init__(self, space: SpaceSpec, bricks: Iterable[Brick]):
        bricks = list(bricks)
        for b in bricks:
            b.validate(space)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "bricks", canonical_bricks(space, bricks))

    def __setattr__(self, name, value):
        raise AttributeError("Clopen is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Clopen)
            and self.space == other.space
            and self.bricks == other.bricks
        )

    def __hash__(self):
        return hash((self.space, self.bricks))

    def __repr__(self):
        return "Clopen(%r, %r)" % (self.space, list(self.bricks))

    def is_empty(self) -> bool:
        return not self.bricks

    def is_full(self) -> bool:
        return self == self.space.full()

    def measure(self) -> Fraction:
        return sum((b.measure(self.space) for b in self.bricks), Fraction(0))

    def union(self, other: "Clopen") -> "Clopen":
        self.space.check_same(other.space)
        return Clopen(self.space, list(self.bricks) + list(other.bricks))

    def intersect(self, other: "Clopen") -> "Clopen":
        self.space.check_same(other.space)
        meets = compose_cells([(c, c) for c in other.bricks], [(b, b) for b in self.bricks])
        return Clopen(self.space, [d for d, _ in meets])

    def difference(self, other: "Clopen") -> "Clopen":
        self.space.check_same(other.space)
        pieces = list(self.bricks)
        for c in other.bricks:
            pieces = [q for p in pieces for q in brick_subtract(self.space, p, c)]
        return Clopen(self.space, pieces)

    def complement(self) -> "Clopen":
        return self.space.full().difference(self)

    def issubset(self, other: "Clopen") -> bool:
        return self.difference(other).is_empty()

    def isdisjoint(self, other: "Clopen") -> bool:
        return self.intersect(other).is_empty()

    def contains_point(self, point: "RationalPoint") -> bool:
        return point_in(point, self)

    def h0_class(self) -> int:
        return len(self.bricks) % self.space.g


def h0_class(x: Clopen) -> int:
    """Class of a clopen modulo g: canonical brick count mod g.

    Refining any brick along dimension j changes the count by k_j - 1, a
    multiple of g, so the class is invariant under subdivision; it is the
    degree-zero homology invariant of the set.
    """
    return x.h0_class()


def _primitive_period(period: Word) -> Word:
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period[:d] * (n // d) == period:
            return period[:d]
    return period


class RationalPoint:
    """Ultimately periodic point: per dimension a preperiod and a period word.

    Coordinates are normalized on construction: periods are primitive and the
    preperiod is shortened by rotating the period while its last letters
    agree, so equal points have syntactically equal representations.
    """

    __slots__ = ("space", "root", "coords")

    def __init__(self, space: SpaceSpec, root: int, coords: Iterable[tuple[Word, Word]]):
        coords = tuple((tuple(pre), tuple(per)) for pre, per in coords)
        if not 0 <= root < space.r:
            raise DomainError("root %d out of range" % root)
        if len(coords) != space.n:
            raise DomainError("expected %d coordinates, got %d" % (space.n, len(coords)))
        norm = []
        for j, (pre, per) in enumerate(coords):
            if not per:
                raise DomainError("period must be nonempty in dimension %d" % j)
            if any(not 0 <= a < space.kbar[j] for a in pre + per):
                raise DomainError("letter out of range in dimension %d" % j)
            per = _primitive_period(per)
            pre = list(pre)
            while pre and pre[-1] == per[-1]:
                pre.pop()
                per = (per[-1],) + per[:-1]
            norm.append((tuple(pre), per))
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "coords", tuple(norm))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoint is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, RationalPoint)
            and (self.space, self.root, self.coords)
            == (other.space, other.root, other.coords)
        )

    def __hash__(self):
        return hash((self.space, self.root, self.coords))

    def __repr__(self):
        return "RationalPoint(root=%d, coords=%r)" % (self.root, self.coords)

    def letter(self, dim: int, i: int) -> int:
        pre, per = self.coords[dim]
        if i < len(pre):
            return pre[i]
        return per[(i - len(pre)) % len(per)]

    def prefix(self, dim: int, length: int) -> Word:
        return tuple(self.letter(dim, i) for i in range(length))

    def in_brick(self, brick: Brick) -> bool:
        if self.root != brick.root:
            return False
        return all(
            self.prefix(j, len(w)) == w for j, w in enumerate(brick.words)
        )

    def drop(self, lengths: tuple[int, ...]) -> tuple[tuple[Word, Word], ...]:
        """Coordinates of the point with ``lengths[j]`` letters removed in front."""
        out = []
        for j, m in enumerate(lengths):
            pre, per = self.coords[j]
            if m <= len(pre):
                out.append((pre[m:], per))
            else:
                shift = (m - len(pre)) % len(per)
                out.append(((), per[shift:] + per[:shift]))
        return tuple(out)


def point_in(p: RationalPoint, x: Clopen) -> bool:
    """Whether the expansion of p extends some brick of x."""
    p.space.check_same(x.space)
    return any(p.in_brick(b) for b in x.bricks)
