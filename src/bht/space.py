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
tree is built per branching node, not per letter: each node sorts its boxes
into its children in one pass, reading the letter at its depth from the
whole word; a node holding one box and nothing that covers it is that box
(path compression); a node that a covering box fills is constant at once;
and the sections of each covering set are computed once per call.  The
merge kernel is a worklist: it buckets the cells by family once, per
dimension, and each merge touches only the buckets of the cells it removes
and adds.  In one dimension the tree has already merged every complete
family, and a lone brick is in none, so the merge is skipped there.  The
decision-tree stage depends only on the point set, never on the
representation handed in, which makes the final form unique.  Bricks are
finally sorted by root, then dimension-major with prefixes first.

Two bricks meet in one brick or not at all, and :meth:`Brick.intersect` is
the one pairwise meet.  Set difference peels a brick down to its meet with
the brick taken away, splitting off the siblings of every letter the meet
has beyond it (:func:`brick_subtract`).  The meet of brick lists goes
through :class:`BrickIndex`, a per-dimension prefix trie whose levels also
keep their distinct word lengths, so a query looks a prefix of its word up
only at a length some indexed word has.

``Clopen(...)`` checks its bricks against the space and runs only on bricks
from outside (``textio.parse``, ``sampling`` and library callers).  Every
clopen derived from checked objects (set operations, the empty and full sets,
sources, images and supports of bisections, and the pieces the witness and
embedding constructors cut) is built by ``Clopen._wrap``, which canonicalizes
without checking.

All values here are immutable after construction (frozen slotted dataclasses
whose fields, set once, are their whole state: nothing is cached on them) and
every operation is a pure function, so they can be shared freely between
workers.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, SpaceMismatchError

Word = tuple[int, ...]


@dataclass(frozen=True, slots=True)
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

    @property
    def g(self) -> int:
        return math.gcd(*(k - 1 for k in self.kbar))

    def check_same(self, other: "SpaceSpec"):
        if self != other:
            raise SpaceMismatchError("mismatched spaces: %s vs %s" % (self, other))

    def root_brick(self, root: int) -> "Brick":
        return Brick(root, ((),) * self.n)

    def full(self) -> "Clopen":
        return Clopen._wrap(self, [self.root_brick(i) for i in range(self.r)])

    def empty(self) -> "Clopen":
        return Clopen._wrap(self, [])

    def __str__(self):
        return "space n=%d k=%s r=%d" % (
            self.n,
            ",".join(str(k) for k in self.kbar),
            self.r,
        )


_BINARY = SpaceSpec(1, (2,), 1)


def binary_space() -> SpaceSpec:
    """The space whose table elements are exactly Thompson's group V."""
    return _BINARY


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

    def intersect(self, other: "Brick") -> "Brick | None":
        """The brick where both meet, or None: in each dimension the longer
        word must extend the shorter, and the meet has the longer."""
        if self.root != other.root:
            return None
        out = []
        for w, v in zip(self.words, other.words):
            if len(w) < len(v):
                w, v = v, w
            if w[:len(v)] != v:
                return None
            out.append(w)
        return Brick(self.root, tuple(out))

    def extend(self, suffixes: tuple[Word, ...]) -> "Brick":
        return Brick(self.root, tuple(w + s for w, s in zip(self.words, suffixes)))

    def child(self, dim: int, letter: int) -> "Brick":
        words = list(self.words)
        words[dim] = words[dim] + (letter,)
        return Brick(self.root, tuple(words))


Cell = tuple[Brick, Brick]


def subdivide(space: SpaceSpec, brick: Brick, dim: int) -> list[Brick]:
    """Split a brick into its k_dim one-letter refinements along ``dim``."""
    if not 0 <= dim < space.n:
        raise DomainError("dimension %d out of range" % dim)
    return [brick.child(dim, a) for a in range(space.kbar[dim])]


def brick_subtract(space: SpaceSpec, b: Brick, c: Brick) -> list[Brick]:
    """Bricks covering b minus c, pairwise disjoint.

    b is peeled down to its meet with c, dimensions in order: each letter the
    meet has beyond b splits off the k_j - 1 siblings of that letter.
    """
    meet = b.intersect(c)
    if meet is None:
        return [b]
    out = []
    for j, (w, m) in enumerate(zip(b.words, meet.words)):
        for a in m[len(w):]:
            out += [b.child(j, x) for x in range(space.kbar[j]) if x != a]
            b = b.child(j, a)
    return out


def _section_words(space: SpaceSpec, dim: int, boxes: list[tuple[Word, ...]]) -> list[tuple[Word, ...]]:
    """Decision-tree form of the union of word boxes over dims >= dim.

    The boxes may overlap or repeat.  The dim-th coordinate tree is split
    exactly where the union fails to be constant on a subtree, and the
    sections below are handled recursively.  The output depends only on the
    union of the boxes, not on the boxes themselves.

    A node of the tree at depth d holds the boxes whose dim-th word is longer
    than d, bucketed by their letter at d in one pass over the whole words,
    and the higher-dimension rests of the boxes that cover it.  A node with
    one box and no cover is that box (a single box is already canonical), a
    node with an all-empty rest among its covers is full, and the sections
    of each covering set are computed once per call.
    """
    n, kbar = space.n, space.kbar
    memo: dict[tuple[int, frozenset], list[tuple[Word, ...]]] = {}

    def sections(dim: int, boxes: frozenset) -> list[tuple[Word, ...]]:
        if len(boxes) <= 1:
            return list(boxes)
        full = ((),) * (n - dim)
        if full in boxes:
            return [full]
        got = memo.get((dim, boxes))
        if got is not None:
            return got
        k = kbar[dim]
        filled = (True, [full[1:]])

        def node(depth: int, deeper: list, covers: frozenset):
            # (True, sections below) when constant on the node, (None, box)
            # for a lone box, else (False, one result per letter)
            if not deeper:
                return (True, sections(dim + 1, covers))
            if not covers and len(deeper) == 1:
                return (None, deeper[0])
            buckets: list[list] = [[] for _ in range(k)]
            for b in deeper:
                buckets[b[0][depth]].append(b)
            kids = []
            bare = None
            for bucket in buckets:
                if not bucket:
                    if bare is None:
                        bare = (True, sections(dim + 1, covers))
                    kids.append(bare)
                    continue
                ends = [b[1:] for b in bucket if len(b[0]) == depth + 1]
                if not ends:
                    kids.append(node(depth + 1, bucket, covers))
                elif full[1:] in ends:
                    kids.append(filled)
                else:
                    kids.append(node(depth + 1, [b for b in bucket if len(b[0]) > depth + 1],
                                     covers.union(ends)))
            first = kids[0]
            if first[0] and all(kid[0] and kid[1] == first[1] for kid in kids):
                return first
            return (False, kids)

        out: list[tuple[Word, ...]] = []

        def flatten(u: Word, res):
            const, payload = res
            if const is None:
                out.append(payload)
            elif const:
                out.extend((u,) + rest for rest in payload)
            else:
                for a, kid in enumerate(payload):
                    flatten(u + (a,), kid)

        flatten((), node(0, [b for b in boxes if b[0]], frozenset(b[1:] for b in boxes if not b[0])))
        memo[(dim, boxes)] = out
        return out

    return sections(dim, frozenset(boxes))


def merge_families(space: SpaceSpec, cells: Iterable[Cell]) -> list[Cell]:
    """Merge complete sibling families of (source, target) cells, sorted.

    A family along dimension j is a set of k_j cells obtained from a parent
    cell by appending the same letter to the source and target words in
    dimension j.  Tables pass their cells; clopens pass each brick b as the
    cell ``(b, b)``.  The source bricks must be pairwise disjoint, as they
    are for every table, composite and section-tree output.

    The kernel is a worklist.  For every dimension it keeps a bucket of the
    live cells of each family, keyed by the parent, and the set of complete
    keys, and a merge updates only the buckets its cells belong to.  It
    merges along dimension 0 until no family there is complete, in any
    order: a cell lies in one family per dimension, so a dimension-0 merge
    never breaks another dimension-0 family, and its parent, being disjoint
    from every other cell, is new.  Hence all orders reach the same cells.
    Families along different dimensions may share cells, so it then merges
    only the smallest complete parent of the lowest such dimension and goes
    back to dimension 0, which keeps the result deterministic.
    """
    kbar = space.kbar
    dims = range(space.n)
    # live cell -> its family key per dimension (None outside any family)
    live: dict[Cell, list] = {}
    buckets: list[dict[tuple, set[Cell]]] = [{} for _ in dims]
    complete: list[set[tuple]] = [set() for _ in dims]

    def enter(cell: Cell):
        d, r = cell
        keys = []
        for j in dims:
            dw, rw = d.words[j], r.words[j]
            if dw and rw and dw[-1] == rw[-1]:
                key = (d.root, d.words[:j] + (dw[:-1],) + d.words[j + 1:],
                       r.root, r.words[:j] + (rw[:-1],) + r.words[j + 1:])
                members = buckets[j].setdefault(key, set())
                members.add(cell)
                if len(members) == kbar[j]:
                    complete[j].add(key)
            else:
                key = None
            keys.append(key)
        live[cell] = keys

    def merge(key: tuple, dim: int):
        # the family's own bucket goes; its cells leave the other dimensions
        complete[dim].discard(key)
        for cell in buckets[dim].pop(key):
            for j, k in enumerate(live.pop(cell)):
                if k is not None and j != dim:
                    members = buckets[j][k]
                    members.remove(cell)
                    complete[j].discard(k)
                    if not members:
                        del buckets[j][k]
        dr, dp, rr, rp = key
        enter((Brick(dr, dp), Brick(rr, rp)))

    for cell in cells:
        enter(cell)
    while True:
        while complete[0]:
            merge(complete[0].pop(), 0)
        # flat keys sort as the parent cells (Brick(dr, dp), Brick(rr, rp)) do
        for j in dims[1:]:
            if complete[j]:
                merge(min(complete[j]), j)
                break
        else:
            return sorted(live)


def canonical_bricks(space: SpaceSpec, bricks: Iterable[Brick]) -> tuple[Brick, ...]:
    """Canonical representative of the union of ``bricks`` (overlaps allowed)."""
    by_root: dict[int, list[tuple[Word, ...]]] = {}
    for b in bricks:
        by_root.setdefault(b.root, []).append(b.words)
    sectioned = [
        Brick(root, words)
        for root, boxes in by_root.items()
        for words in _section_words(space, 0, boxes)
    ]
    if space.n == 1 or len(sectioned) < 2:
        # the one-dimensional section tree has merged every complete family,
        # and a lone brick is in no family
        return tuple(sorted(sectioned))
    return tuple(b for b, _ in merge_families(space, ((b, b) for b in sectioned)))


_PAST = (math.inf,)


def _index_level(node: dict, below: int) -> tuple[dict, list, list, list]:
    """A trie node as (children, keys in order, children in key order,
    distinct key lengths in order)."""
    if below:
        node = {w: _index_level(child, below - 1) for w, child in node.items()}
    keys = sorted(node)
    return node, keys, [node[w] for w in keys], sorted({len(w) for w in keys})


class BrickIndex:
    """Prefix index over a list of bricks: which of them meet a query brick.

    Two bricks meet exactly when they share a root and, in every dimension,
    one word is a prefix of the other.  The bricks are grouped by root and
    then by word, one dimension per level; each level keeps a dict from word
    to the next level, its keys and values in key order and the distinct key
    lengths.  A query finds the prefixes of its word by dict lookups at those
    lengths only and the extensions by a bisect range, so it visits only
    branches that really meet.
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
            m = len(w)
            hits: list = []
            for children, keys, values, lengths in found:
                # the proper prefixes of w, at the lengths the level has
                for i in lengths:
                    if i >= m:
                        break
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


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Clopen:
    """Finite union of bricks over a fixed space, stored canonically.

    The constructor accepts any iterable of bricks (overlaps allowed),
    checks them against the space and canonicalizes.  Instances are
    immutable; equality and hashing are syntactic on the canonical form,
    hence semantic on point sets.
    """

    space: SpaceSpec
    bricks: tuple[Brick, ...]

    def __init__(self, space: SpaceSpec, bricks: Iterable[Brick]):
        bricks = list(bricks)
        for b in bricks:
            b.validate(space)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "bricks", canonical_bricks(space, bricks))

    @classmethod
    def _wrap(cls, space: SpaceSpec, bricks: Iterable[Brick]) -> "Clopen":
        """Canonical clopen of bricks derived from validated objects, unchecked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "space", space)
        object.__setattr__(obj, "bricks", canonical_bricks(space, bricks))
        return obj

    def __repr__(self):
        return "Clopen(%r, %r)" % (self.space, list(self.bricks))

    def is_empty(self) -> bool:
        return not self.bricks

    def is_full(self) -> bool:
        return self == self.space.full()

    def union(self, other: "Clopen") -> "Clopen":
        self.space.check_same(other.space)
        return Clopen._wrap(self.space, self.bricks + other.bricks)

    def intersect(self, other: "Clopen") -> "Clopen":
        self.space.check_same(other.space)
        meets = compose_cells([(c, c) for c in other.bricks], [(b, b) for b in self.bricks])
        return Clopen._wrap(self.space, [d for d, _ in meets])

    def difference(self, other: "Clopen") -> "Clopen":
        self.space.check_same(other.space)
        pieces = list(self.bricks)
        for c in other.bricks:
            pieces = [q for p in pieces for q in brick_subtract(self.space, p, c)]
        return Clopen._wrap(self.space, pieces)

    def complement(self) -> "Clopen":
        return self.space.full().difference(self)

    def issubset(self, other: "Clopen") -> bool:
        return self.difference(other).is_empty()

    def isdisjoint(self, other: "Clopen") -> bool:
        self.space.check_same(other.space)
        return not any(compose_cells([(c, c) for c in other.bricks], [(b, b) for b in self.bricks]))


def h0_class(x: Clopen) -> int:
    """Class of a clopen modulo g: canonical brick count mod g.

    Refining any brick along dimension j changes the count by k_j - 1, a
    multiple of g, so the class is invariant under subdivision; it is the
    degree-zero homology invariant of the set.
    """
    return len(x.bricks) % x.space.g


def _primitive_period(period: Word) -> Word:
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period[:d] * (n // d) == period:
            return period[:d]
    return period


@dataclass(frozen=True, slots=True, init=False, repr=False)
class RationalPoint:
    """Ultimately periodic point: per dimension a preperiod and a period word.

    Coordinates are normalized on construction: periods are primitive and the
    preperiod is shortened by rotating the period while its last letters
    agree, so equal points have syntactically equal representations.
    """

    space: SpaceSpec
    root: int
    coords: tuple[tuple[Word, Word], ...]

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
