"""Exact combinatorics of cylinder sets on disjoint unions of product shift spaces.

The ambient space is ``r`` disjoint copies ("roots") of the product
``prod_j {0..k_j-1}^N`` of one-sided full shifts.  A :class:`Brick` is the set
of points whose j-th coordinate extends a chosen finite word in every
dimension; bricks are the basic compact open sets.  A :class:`Clopen` is a
finite disjoint union of bricks kept in a canonical form, so two values
compare equal exactly when they denote the same point set.

One dimension is a sorted sweep.  Sort finite words with prefixes first,
and say that a word holds its extensions (itself included).  Every word
that sorts between a word u and a word that u holds is held by u too.  So
the words that a word w holds form one run, from w up to ``w + (inf,)``,
and every other word that holds w also holds the word sorted just before
w.  One stack pass over the sorted words links each word to the nearest
earlier word that holds it, and a walk along these links from w's
predecessor finds the words that hold w.  For n = 1 (the Higman-Thompson
groups V_{k,r}) a sorted list of disjoint bricks is a prefix code, ordered
by root and then by word: no link is set, the only brick that can hold a
word is the one sorted just before it, and the bricks of one sibling family
are adjacent.  The kernels rest on this:

- :class:`BrickIndex` is the sweep once per dimension: each level keeps
  the words of a run of a sorted brick list, their links and what lies
  below each word, and :func:`compose_cells` looks each target of g up
  among f's sorted sources there, with two bisections per level it enters.
  A run of one brick builds no level: it is kept as the brick's position (a
  leaf), and a query that reaches it compares words with that brick in the
  dimensions left, so a small table's index is mostly leaves;
- :func:`merge_families`, in one dimension, runs one stack over the sorted
  cells and replaces the k cells of each complete family by their parent,
  which sorts where they were;
- :func:`overlap`, the one disjointness test, passes at once, in any
  dimension count, a list whose roots and dimension-0 words form a prefix
  code, which its sorted neighbours show; otherwise it looks each brick up
  in a :class:`BrickIndex`.  ``PrefixBijection(...)`` calls it on each side,
  :meth:`Clopen.isdisjoint` and the family claims of ``bht.verify`` on the
  pooled bricks of canonical sets.

For n >= 2 dimension-major order does not keep siblings adjacent (with the
sources ``(e, 0)``, ``(0, 1)`` and ``(1, 1)``, splitting the first along
dimension 0 puts ``(0, 1)`` between its children), so :func:`merge_families`
keeps a queue of complete families there.

Unions and differences are one sweep, in every dimension count:
:func:`brick_subtract` cuts the bricks of each root less the holes there
into a dimension-major decision tree with :func:`_section_words` (split a
dimension only where the set depends on it, lowest dimension first), which
depends only on the point set.  The leaves of a dimension's tree whose
section (the set over the higher dimensions) is S are the maximal cylinders
inside the set where the section is S, so each such set goes through the
one-dimensional sweep: sort the words, drop each one inside another, and
run the family stack of :func:`merge_families`.  One stack pass over the
sorted words of bricks and holes finds the sections, whose forms come from
one dimension up, so the only recursion is once per dimension.  For n = 1
the cut is the canonical form; for n >= 2 families can remain across leaves
of different sections, and :func:`merge_families` (which also normalises
prefix-exchange tables in :mod:`bht.element`, a brick entering as the cell
``(b, b)``) merges them in the order of one queue of complete families,
each merge touching only the families of the cells it removes and adds.
Bricks are finally sorted by root, then dimension-major with prefixes first.

Containment and equality of point sets need no canonical form.
:func:`measures` weighs lists of disjoint bricks in integers, on one scale
on which every nonempty brick weighs at least 1.  So a clopen lies inside
another exactly when its meets with it weigh as much as it does
(:meth:`Clopen.issubset`), and :func:`same_set` decides equality on any
brick partitions: equal values are one set, and otherwise each must lie
inside the other.  Whether a clopen is the full set is weighed the same way.

Two bricks meet in one brick or not at all, and :meth:`Brick.intersect` is
the one pairwise meet.  The meet of two brick lists goes through
:class:`BrickIndex` in every dimension count.  :func:`compose_cells` builds
the cell of each meet it finds in one pass over the dimensions, and a side
that gains no letters keeps its brick as it is.

``Clopen(...)`` checks its bricks against the space, the whole list at once
(:meth:`Brick.validate`), and runs only on bricks from outside
(``textio.parse``, ``sampling`` and library callers).  Every clopen derived
from checked objects (set operations, the empty set, sources, images and
supports of bisections, and the pieces the witness and embedding
constructors cut) is built by ``Clopen._wrap``, which canonicalizes without
checking.  The full set is its root bricks, already canonical.

All values here are immutable after construction (frozen slotted dataclasses
whose fields, set once, are their whole state: nothing is cached on them) and
every operation is a pure function, so they can be shared freely between
workers.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import islice, repeat
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

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
        # the roots in order are canonical: a complement's minuend takes no sweep
        full = object.__new__(Clopen)
        object.__setattr__(full, "space", self)
        object.__setattr__(full, "bricks", tuple(map(self.root_brick, range(self.r))))
        return full

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

    @staticmethod
    def validate(space: SpaceSpec, bricks: list["Brick"]):
        """Raise on the first brick of the list whose root, word count or a
        letter is out of range for ``space``.

        The list is checked as a whole: the set of its roots, the set of its
        word counts and, one dimension at a time, the set of the letters of
        that column of words.  Only when that fails are the bricks read in
        order, to name the first bad one.
        """
        r, n = space.r, space.n
        roots, words = zip(*bricks) if bricks else ((), ())
        if (all(0 <= root < r for root in set(roots)) and set(map(len, words)) <= {n}
                and all(0 <= a < k for k, column in zip(space.kbar, zip(*words))
                        for a in set().union(*column))):
            return
        for b in bricks:
            if not 0 <= b.root < r:
                raise DomainError("root %d out of range" % b.root)
            if len(b.words) != n:
                raise DomainError("brick has %d words, expected %d" % (len(b.words), n))
            for j, (w, k) in enumerate(zip(b.words, space.kbar)):
                if w and (min(w) < 0 or max(w) >= k):
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


def _section_words(space: SpaceSpec, dim: int, boxes: list[tuple[Word, ...]],
                   holes: Sequence[tuple[Word, ...]] = ()) -> list[tuple[Word, ...]]:
    """Decision-tree form of the union of word boxes less the union of word
    holes over dims >= dim, sorted.

    Boxes and holes may overlap or repeat.  The dim-th coordinate tree is
    split exactly where the section of the set (the set over the higher
    dimensions) fails to be constant, and each leaf carries the form of its
    section, so the output depends only on the set.

    One stack pass over the sorted dim-th words records, for each word, the
    rests of the boxes and holes that cover it, each tagged with its side,
    and for each proper prefix of a word (an inner node) the rests that cover
    that.  The children of the inner nodes that are not inner themselves (or
    the empty word, when no node is inner) are atoms: they partition the
    coordinate tree, and the section is constant on each: the boxes' rests
    less the holes' rests, one dimension up.  Past the last dimension a point
    is in the set when a box covers it and no hole does.  The form of each
    covering set is computed once, and the family stack runs over the sorted
    atoms of each form.  With no holes, the last dimension's words, sorted
    and each inside the last one kept dropped, are the one group.
    """
    if len(boxes) <= 1 and not holes:
        return list(boxes)
    # form of the section -> the words with that section in order, each as a 1-tuple
    groups: dict[tuple, list[tuple[Word]]] = {}
    if not holes and dim == space.n - 1:
        # the words of the boxes may nest: keep the outermost
        kept: list[tuple[Word]] = []
        for w in sorted(boxes):
            if not (kept and w[0][:len(kept[-1][0])] == kept[-1][0]):
                kept.append(w)
        groups[((),)] = kept
    elif not boxes or dim == space.n:
        # holes and no box, or a hole past the last dimension: it covers the point
        return []
    else:
        rests: dict[Word, list] = {}
        for hole, items in ((False, boxes), (True, holes)):
            for b in items:
                rests.setdefault(b[0], []).append((hole, b[1:]))
        covers: dict[Word, frozenset] = {}
        inner: dict[Word, frozenset] = {}
        stack: list[Word] = []
        for w in sorted(rests):
            while stack and w[:len(stack[-1])] != stack[-1]:
                stack.pop()
            above = covers[stack[-1]] if stack else frozenset()
            covers[w] = above.union(rests[w])
            # the proper prefixes of w not known yet, longest first, all at or
            # below the deepest covering word; the known ones are closed under
            # prefixes, so the first known one ends the walk
            for i in range(len(w) - 1, -1, -1):
                if w[:i] in inner:
                    break
                inner[w[:i]] = above
            stack.append(w)
        atoms = [] if inner else [((), covers[()])]
        letters = [(a,) for a in range(space.kbar[dim])]
        atoms += [(c, covers.get(c, cover)) for u, cover in inner.items()
                  for a in letters if (c := u + a) not in inner]
        forms: dict[frozenset, tuple] = {}
        for c, cover in sorted(atoms):
            form = forms.get(cover)
            if form is None:
                sides: tuple[list, list] = ([], [])
                for hole, r in cover:
                    sides[hole].append(r)
                form = forms[cover] = tuple(_section_words(space, dim + 1, *sides))
            if form:
                groups.setdefault(form, []).append((c,))
    out: list[tuple[Word, ...]] = []
    for form, words in groups.items():
        if len(words) > 1:
            words = [d[1] for d, _ in _family_stack(space.kbar[dim], [((0, w),) * 2 for w in words])]
        out += [w + rest for w in words for rest in form]
    if len(groups) > 1:
        out.sort()
    return out


def merge_families(space: SpaceSpec, cells: Iterable[Cell]) -> list[Cell]:
    """Merge complete sibling families of (source, target) cells, sorted.

    A family along dimension j is a set of k_j cells obtained from a parent
    cell by appending the same letter to the source and target words in
    dimension j.  Tables pass their cells; clopens pass each brick b as the
    cell ``(b, b)``.  The source bricks must be pairwise disjoint, as they
    are for every table, composite and section-tree output.

    The kernel keeps the live cells of each family under the key (dimension,
    parent) and queues the keys of complete families.  It merges a
    dimension-0 key while there is one, in any order: a cell lies in one
    family per dimension, so a dimension-0 merge never breaks another
    dimension-0 family, and its parent, being disjoint from every other
    cell, is new.  Families along different dimensions may share cells, so
    it then merges the smallest higher key, lowest dimension first, from a
    heap.  A merge takes its cells out of their other families, and a queued
    key whose family has lost a cell is skipped (cells only grow, so no
    family regains one and no key is queued twice).

    In one dimension the cells are sorted and go through the family stack
    (see :func:`_family_stack`) instead.
    """
    if space.n == 1:
        return _family_stack(space.kbar[0], sorted(cells))
    kbar = space.kbar
    dims = range(space.n)
    families: dict[tuple, set[Cell]] = {}
    # live cell -> the keys of its families
    live: dict[Cell, list[tuple]] = {}
    dim0: list[tuple] = []
    heap: list[tuple] = []

    def enter(cell: Cell):
        d, r = cell
        keys = live[cell] = []
        for j in dims:
            dw, rw = d.words[j], r.words[j]
            if dw and rw and dw[-1] == rw[-1]:
                # keys sort as (j, parent cell (Brick(dr, dp), Brick(rr, rp)))
                key = (j, d.root, d.words[:j] + (dw[:-1],) + d.words[j + 1:],
                       r.root, r.words[:j] + (rw[:-1],) + r.words[j + 1:])
                members = families.setdefault(key, set())
                members.add(cell)
                keys.append(key)
                if len(members) == kbar[j]:
                    if j:
                        heappush(heap, key)
                    else:
                        dim0.append(key)

    for cell in cells:
        enter(cell)
    while dim0 or heap:
        key = dim0.pop() if dim0 else heappop(heap)
        if len(families[key]) != kbar[key[0]]:
            continue
        for cell in families.pop(key):
            for other in live.pop(cell):
                if other != key:
                    families[other].remove(cell)
        _, dr, dp, rr, rp = key
        enter((Brick(dr, dp), Brick(rr, rp)))
    return sorted(live)


def _family_stack(k: int, cells: Iterable[Cell]) -> list[Cell]:
    """:func:`merge_families` in one dimension, over cells sorted by source;
    also the last step of every sweep in :func:`_section_words`, whose cells
    are plain ``(root, words)`` pairs (each merged parent is a brick).

    A cell may complete a family only when its source and target both end in
    the last letter k - 1, and then the family's other cells are the k - 1
    cells just below it on the stack: the a-th of them has the cell's roots,
    a source and a target as long as the cell's, both ending in the letter a,
    and the cell's source and target parents before that letter.  The test
    reads those fields of the stacked cells and builds nothing, so most
    candidates fail on their first length or letter.  The k cells give way
    to their parent, which sorts where they were and may complete a family
    in turn, so the stack is always the sorted, merged form of the cells read
    so far.
    """
    last = k - 1
    stack: list[Cell] = []
    for cell in cells:
        d, r = cell
        dw, rw = d[1][0], r[1][0]
        while dw and rw and dw[-1] == last == rw[-1] and len(stack) >= last:
            n, m = len(dw), len(rw)
            dp, rp = dw[:-1], rw[:-1]
            base = len(stack) - last
            for a in range(last):
                s, t = stack[base + a]
                sw, tw = s[1][0], t[1][0]
                if (len(sw) != n or sw[-1] != a or len(tw) != m or tw[-1] != a
                        or s[0] != d[0] or t[0] != r[0] or sw[:-1] != dp or tw[:-1] != rp):
                    break
            else:
                # the k - 1 stacked cells and this one are a family: merge
                del stack[base:]
                d, r, dw, rw = Brick(d[0], (dp,)), Brick(r[0], (rp,)), dp, rp
                cell = (d, r)
                continue
            break
        stack.append(cell)
    return stack


def brick_subtract(space: SpaceSpec, bricks: Iterable[Brick], holes: Iterable[Brick]) -> tuple[Brick, ...]:
    """Canonical bricks of the union of ``bricks`` less the union of
    ``holes``, overlaps allowed: each root cut by :func:`_section_words`,
    which in one dimension is the canonical form, and in more the families
    the cut leaves across sections merged by :func:`merge_families`."""
    box_words: dict[int, list[tuple[Word, ...]]] = {}
    hole_words: dict[int, list[tuple[Word, ...]]] = {}
    for by_root, items in ((box_words, bricks), (hole_words, holes)):
        for b in items:
            by_root.setdefault(b.root, []).append(b.words)
    cut = [Brick(root, words) for root in sorted(box_words)
           for words in _section_words(space, 0, box_words[root], hole_words.get(root, ()))]
    if space.n == 1 or len(cut) < 2:
        # a lone brick is in no family
        return tuple(cut)
    return tuple(b for b, _ in merge_families(space, ((b, b) for b in cut)))


def canonical_bricks(space: SpaceSpec, bricks: Iterable[Brick]) -> tuple[Brick, ...]:
    """Canonical bricks of the union of ``bricks``, for ``Clopen(...)``: its own
    name with two arguments, as ``perfbench/tracer.py`` times it by that name."""
    return brick_subtract(space, bricks, ())


_PAST = (math.inf,)


def _index_level(bricks: list[Brick], lo: int, hi: int, dim: int) -> tuple[list, list, list | range]:
    """One level of a :class:`BrickIndex`: the sorted run ``bricks[lo:hi]``
    of two or more bricks, which share their root and their words below
    ``dim``, as (its dim-th words in order, for each word the nearest earlier
    word that holds it or -1, and what lies below each word).

    Below a word lies what the next dimension keeps of the bricks that have
    it, so in the dimensions before the last each word is kept once: the
    position of its brick when it has one (a leaf), else the level of the
    next dimension over its run.  In the last dimension every brick keeps its
    word, a repeat holding the one before it, and below each word lies its
    position: ``below`` is ``range(lo, hi)``.  The links come from one stack
    of the words that hold the last one.
    """
    last = dim + 1 == len(bricks[lo].words)
    words: list[Word] = []
    up: list[int] = []
    starts: list[int] = []
    holders: list[int] = []
    for p in range(lo, hi):
        w = bricks[p].words[dim]
        while holders and w[:len(words[holders[-1]])] != words[holders[-1]]:
            holders.pop()
        if holders and not last and len(w) == len(words[holders[-1]]):
            # a word as long as w that holds it is w: the last word, whose run w joins
            continue
        up.append(holders[-1] if holders else -1)
        holders.append(len(words))
        words.append(w)
        starts.append(p)
    if last:
        return words, up, range(lo, hi)
    starts.append(hi)
    return words, up, [p if q - p == 1 else _index_level(bricks, p, q, dim + 1)
                       for p, q in zip(starts, starts[1:])]


class BrickIndex:
    """Which bricks of a sorted list meet a query brick.

    Two bricks meet exactly when they share a root and, in every dimension,
    one word is a prefix of the other.  The list is cut by root and then by
    word, one dimension per level, and each level is the sweep of the module
    docstring over its words, which need not be a prefix code.  A query
    bisects each level it enters for its word w, walks the links from w's
    predecessor to the first word that holds w, takes that word and the
    words that hold it, and takes the extensions of w as the run
    ``[w, w + (inf,))``.  So it visits only branches that really meet, with
    two bisections per level.  A run of one brick is kept as its position (a
    leaf) and builds no level: a query that reaches it compares its words
    with the brick's in the dimensions left.
    """

    __slots__ = ("_bricks", "_roots")

    def __init__(self, bricks: list[Brick]):
        """Index ``bricks``, which must be sorted."""
        self._bricks = bricks
        self._roots = roots = {}
        lo = 0
        while lo < len(bricks):
            root = bricks[lo].root
            # every brick at this root sorts before (root + 1,)
            hi = bisect_right(bricks, (root + 1,), lo)
            roots[root] = lo if hi - lo == 1 else _index_level(bricks, lo, hi, 0)
            lo = hi

    def meeting(self, b: Brick) -> list[int]:
        """Positions, in increasing order, of the indexed bricks that meet ``b``."""
        level = self._roots.get(b.root)
        if level is None:
            return []
        bricks = self._bricks
        levels = [level]
        for dim, w in enumerate(b.words):
            found = []
            for level in levels:
                if level.__class__ is int:
                    v = bricks[level].words[dim]
                    if w[:len(v)] == v or v[:len(w)] == w:
                        found.append(level)
                    continue
                words, up, below = level
                lo = bisect_left(words, w)
                i = lo - 1
                while i >= 0 and w[:len(words[i])] != words[i]:
                    i = up[i]
                if i >= 0:
                    held = []
                    while i >= 0:
                        held.append(below[i])
                        i = up[i]
                    held.reverse()
                    found += held
                found += below[lo:bisect_left(words, w + _PAST, lo)]
            levels = found
        return levels


def overlap(bricks: Sequence[Brick]) -> tuple[Brick, Brick] | None:
    """The first brick of the list, in the order given, that meets another,
    with its first partner, or None.

    Two (root, dimension-0 word) keys nest only when one word is a prefix of
    the other, and every key sorted between them extends the shorter, so
    when no sorted neighbour's key lies in the one before it, the bricks are
    disjoint.  Otherwise each brick is looked up in a :class:`BrickIndex`.
    """
    ordered = sorted(bricks)
    if not any(b.root == a.root and b.words[0][:len(a.words[0])] == a.words[0]
               for a, b in zip(ordered, ordered[1:])):
        return None
    index = BrickIndex(ordered)
    for i, b in enumerate(bricks):
        hits = index.meeting(b)
        if len(hits) > 1:
            # ordered[j] is bricks[order[j]]
            order = sorted(range(len(bricks)), key=bricks.__getitem__)
            return b, bricks[min(order[j] for j in hits if order[j] != i)]
    return None


def compose_cells(f_cells: Iterable[Cell], g_cells: Iterable[Cell]) -> Iterator[Cell]:
    """Cells of the partial map f after g, one per meeting g-target and f-source.

    Only pairs that meet are visited: f's cells are sorted (in linear time
    when they already are, as every table keeps them), their sources go
    into a :class:`BrickIndex` and each target of g is looked up there once.
    Each meet is pulled back through g and pushed forward through f in one
    pass over the dimensions: in each one the deeper of the two middle words
    is the meet's, so the side of the shallower word is extended by what the
    deeper one has beyond it and the other side keeps its word.  A side that
    gains no letters keeps its brick as it is; an exact meet (the target of
    g is the source of f) is the pair of outer bricks.  Cells are yielded
    lazily, in the order of g, so a caller may stop at the first one it
    needs.  A clopen enters as the partial identity with cells ``(b, b)``.
    """
    f_cells = sorted(f_cells)
    index = BrickIndex([d for d, _ in f_cells])
    for gd, gr in g_cells:
        for i in index.meeting(gr):
            fd, fr = f_cells[i]
            if fd == gr:
                yield gd, fr
                continue
            dw = rw = ()
            grew_d = grew_r = False
            for t, s, a, c in zip(gr.words, fd.words, gd.words, fr.words):
                if len(t) < len(s):
                    a += s[len(t):]
                    grew_d = True
                elif len(s) < len(t):
                    c += t[len(s):]
                    grew_r = True
                dw += (a,)
                rw += (c,)
            yield (Brick(gd.root, dw) if grew_d else gd), (Brick(fr.root, rw) if grew_r else fr)


def measures(space: SpaceSpec, *lists: Sequence[Brick]) -> list[int]:
    """Exact sizes of lists of disjoint bricks, on one scale: with D_j the
    deepest word of dimension j over all the lists, a brick with words w_j
    weighs prod_j k_j^(D_j - |w_j|), read one column (dimension) at a time."""
    held = repeat(1, sum(map(len, lists)))
    for k, column in zip(space.kbar, zip(*[b.words for bricks in lists for b in bricks])):
        lengths = list(map(len, column))
        deepest = max(lengths)
        # powers[i] = k^(deepest - i)
        powers = [k ** (deepest - i) for i in range(deepest + 1)]
        held = map(mul, held, map(powers.__getitem__, lengths))
    return [sum(islice(held, len(bricks))) for bricks in lists]


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Clopen:
    """Finite union of bricks over a fixed space, stored canonically.

    The constructor accepts any iterable of bricks (overlaps allowed),
    checks them against the space and canonicalizes.  Instances are
    immutable; equality and hashing are syntactic on the canonical form,
    hence semantic on point sets.  :func:`same_set` decides the same without
    relying on the form.
    """

    space: SpaceSpec
    bricks: tuple[Brick, ...]

    def __init__(self, space: SpaceSpec, bricks: Iterable[Brick]):
        bricks = list(bricks)
        Brick.validate(space, bricks)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "bricks", canonical_bricks(space, bricks))

    @classmethod
    def _wrap(cls, space: SpaceSpec, bricks: Iterable[Brick], holes: Iterable[Brick] = ()) -> "Clopen":
        """Canonical clopen of ``bricks`` less ``holes``, derived from validated objects, unchecked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "space", space)
        object.__setattr__(obj, "bricks", brick_subtract(space, bricks, holes))
        return obj

    def __repr__(self):
        return "Clopen(%r, %r)" % (self.space, list(self.bricks))

    def is_empty(self) -> bool:
        return not self.bricks

    def is_full(self) -> bool:
        return self.space.full().issubset(self)

    def union(self, other: "Clopen") -> "Clopen":
        self.space.check_same(other.space)
        return Clopen._wrap(self.space, self.bricks + other.bricks)

    def intersect(self, other: "Clopen") -> "Clopen":
        self.space.check_same(other.space)
        meets = compose_cells([(c, c) for c in other.bricks], [(b, b) for b in self.bricks])
        return Clopen._wrap(self.space, [d for d, _ in meets])

    def difference(self, other: "Clopen") -> "Clopen":
        self.space.check_same(other.space)
        return Clopen._wrap(self.space, self.bricks, other.bricks)

    def complement(self) -> "Clopen":
        return self.space.full().difference(self)

    def issubset(self, other: "Clopen") -> bool:
        """Whether the meets of self with other weigh as much as self (see :func:`measures`)."""
        self.space.check_same(other.space)
        meets = compose_cells([(c, c) for c in other.bricks], [(b, b) for b in self.bricks])
        inside, whole = measures(self.space, [d for d, _ in meets], self.bricks)
        return inside == whole

    def isdisjoint(self, other: "Clopen") -> bool:
        # each set's own bricks are disjoint: a meeting pair has one of each
        self.space.check_same(other.space)
        return overlap(self.bricks + other.bricks) is None


def same_set(a: Clopen, b: Clopen) -> bool:
    """Whether a and b are one point set: equal values, or each a subset of the other."""
    return a == b or (a.issubset(b) and b.issubset(a))


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
