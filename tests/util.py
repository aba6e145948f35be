"""Shared helpers for the test suite: terse constructors, the point oracle and references."""

import copy
import dataclasses
import itertools
import math
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from bht.element import (
    PrefixBijection, TableElement, canonicalize, closed_support, compose_partial, image_clopen,
)
from bht.sampling import random_clopen
from bht.space import Brick, Clopen, RationalPoint, SpaceSpec, binary_space, compose_cells
from bht.textio import format_word, parse_point
from bht.vembed import evaluate_embedding
from bht.witness import vigor_case, vigor_witness

V2 = SpaceSpec(1, (2,), 1)
V3 = SpaceSpec(1, (3,), 1)
V2x2 = SpaceSpec(2, (2, 2), 1)
V23 = SpaceSpec(2, (2, 3), 1)
BIN = binary_space()


def W(s: str) -> tuple[int, ...]:
    """Word from a digit string; 'e' or '' is the empty word."""
    if s in ("e", ""):
        return ()
    return tuple(int(c, 36) for c in s)


def B(root: int, *words: str) -> Brick:
    return Brick(root, tuple(W(w) for w in words))


def clp(space: SpaceSpec, *brickspecs) -> Clopen:
    """Clopen from brick specs: each spec is 'w1,w2,...' (root 0) or (root, spec)."""
    bricks = []
    for spec in brickspecs:
        if isinstance(spec, tuple):
            root, text = spec
        else:
            root, text = 0, spec
        bricks.append(B(root, *text.split(",")))
    return Clopen(space, bricks)


def pt(space: SpaceSpec, *coords, root: int = 0) -> RationalPoint:
    """Point from (preperiod, period) digit-string pairs, one per dimension."""
    return RationalPoint(space, root, [(W(pre), W(per)) for pre, per in coords])


def assert_frozen_value(obj):
    """``obj`` is a frozen slotted value: no instance ``__dict__``, no field
    that can be set, no new attribute, and equal to its copies.

    A new attribute raises TypeError rather than FrozenInstanceError: the
    generated ``__setattr__`` refers to the class that ``slots=True`` replaced.
    """
    assert not hasattr(obj, "__dict__"), type(obj)
    for field in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field.name, getattr(obj, field.name))
    with pytest.raises(TypeError):
        obj.extra = 1
    assert copy.deepcopy(obj) == obj and pickle.loads(pickle.dumps(obj)) == obj


def measure(space: SpaceSpec, bricks) -> Fraction:
    """Total volume of the bricks, where each root has volume 1 and a brick
    prod_j k_j^-|w_j|: a reference for coverage and disjointness."""
    return sum((Fraction(1, math.prod(k ** len(w) for k, w in zip(space.kbar, b.words))) for b in bricks),
               Fraction(0))


def extend(brick: Brick, suffixes) -> Brick:
    """The brick whose word in dimension j is ``brick``'s followed by ``suffixes[j]``."""
    return Brick(brick.root, tuple(w + s for w, s in zip(brick.words, suffixes)))


def oracle_image(tbl: TableElement, root: int, words):
    """Independent action oracle: route a deep word tuple through the raw cells."""
    for d, r in tbl.cells:
        if d.root == root and all(
            w[: len(dw)] == dw for w, dw in zip(words, d.words)
        ):
            return r.root, tuple(
                rw + w[len(dw):] for w, dw, rw in zip(words, d.words, r.words)
            )
    raise AssertionError("word tuple not covered by the table")


def oracle_agree(f: TableElement, g: TableElement) -> bool:
    """Compare f and g on every word tuple one level deeper than their cells."""
    space = f.space
    profile = [
        1 + max(
            [len(d.words[j]) for d, _ in f.cells]
            + [len(d.words[j]) for d, _ in g.cells]
        )
        for j in range(space.n)
    ]
    pools = [
        [tuple(w) for w in itertools.product(range(space.kbar[j]), repeat=profile[j])]
        for j in range(space.n)
    ]
    for root in range(space.r):
        for words in itertools.product(*pools):
            if oracle_image(f, root, words) != oracle_image(g, root, words):
                return False
    return True


def refine(g: TableElement, rng) -> TableElement:
    """The same element with every cell split into its children along a random dimension."""
    cells = []
    for d, r in g.cells:
        j = rng.randrange(g.space.n)
        cells += [(d.child(j, a), r.child(j, a)) for a in range(g.space.kbar[j])]
    return TableElement(g.space, cells)


def cell_parity(g: TableElement) -> int:
    """Parity (0 even, 1 odd) of the permutation a table makes between its
    sources and its targets, each side sorted in brick order.

    In one dimension no brick disjoint from two siblings sorts between them,
    so splitting a cell into its k children on both sides puts k adjacent
    entries on each side.  That adds k - 1 times the cell's inversions to the
    inversion count, an even number when k is odd: there the parity is a
    function of the element.
    """
    targets = [r for _, r in sorted(g.cells)]
    place = {r: i for i, r in enumerate(sorted(targets))}
    perm = [place[r] for r in targets]
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return (len(perm) - cycles) % 2


def compose_cells_all_pairs(f_cells, g_cells) -> list:
    """Reference for ``bht.space.compose_cells``: meet every g-target with every f-source."""
    def suffixes(meet, outer):
        assert outer.intersect(meet) == meet
        return tuple(m[len(w):] for m, w in zip(meet.words, outer.words))

    cells = []
    for gd, gr in g_cells:
        for fd, fr in f_cells:
            meet = gr.intersect(fd)
            if meet is not None:
                cells.append((extend(gd, suffixes(meet, gr)), extend(fr, suffixes(meet, fd))))
    return cells


def merge_families_rounds(space, cells) -> list:
    """Reference for ``bht.space.merge_families``: rebuild every bucket after each merge.

    Dimension 0 is merged in rounds of all its complete families; then the
    smallest complete parent of the lowest higher dimension is merged, and
    it starts again from dimension 0.
    """
    cells = set(cells)

    def complete(dim):
        buckets = {}
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

    def merge(parent, dim):
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


def section_words_levels(space, dim, boxes) -> list:
    """Reference for ``bht.space._section_words``: one trie level per letter.

    Each node strips the first letter off every word below it, in one pass
    per letter, and pushes the covering boxes into every child; the tree is
    split where the union of the boxes is not constant on a subtree.
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
            return (True, section_words_levels(space, dim + 1, at))
        kids = []
        for a in range(k):
            child = [(w[1:], rest) for w, rest in deeper if w[0] == a]
            child += [((), rest) for rest in at]
            kids.append(node(child))
        first = kids[0]
        if all(kid[0] and kid[1] == first[1] for kid in kids):
            return first
        return (False, kids)

    out = []

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


def invariant_factors_by_primes(orders) -> tuple[int, ...]:
    """Reference for ``bht.abelian.AbelianGroup.factors``: split each order into
    prime powers by trial division, then multiply the largest power of each
    prime into the top factor, the next largest into the one below, and so on.
    """
    rank, by_prime = 0, {}
    for d in orders:
        d = abs(int(d))
        if d == 0:
            rank += 1
        for p, e in _factorint(d).items():
            by_prime.setdefault(p, []).append(p ** e)
    for qs in by_prime.values():
        qs.sort(reverse=True)
    width = max((len(qs) for qs in by_prime.values()), default=0)
    factors = [math.prod(qs[i] for qs in by_prime.values() if i < len(qs)) for i in range(width)]
    return (0,) * rank + tuple(factors[::-1])


def word_bisection(emb, u) -> PrefixBijection:
    """The embedding's composite bisection Y -> cell(u), outermost letter applied last."""
    got = PrefixBijection._wrap(emb.region.space, [(b, b) for b in emb.region.bricks])
    for letter in reversed(u):
        got = compose_partial(emb.s0 if letter == 0 else emb.s1, got)
    return got


def evaluate_embedding_validated(emb, v: TableElement) -> TableElement:
    """Reference for ``bht.vembed.evaluate_embedding``: every bisection on the
    way, and the whole table, goes through the validating constructors."""
    space = emb.region.space
    cells = []
    for d, r in v.cells:
        there = PrefixBijection(space, word_bisection(emb, r.words[0]).cells)
        back = PrefixBijection(space, [(t, s) for s, t in word_bisection(emb, d.words[0]).cells])
        cells += PrefixBijection(space, compose_cells(there.cells, back.cells)).cells
    cells += [(b, b) for b in emb.region.complement().bricks]
    return canonicalize(TableElement(space, cells))


def transport(emb, binary_set: Clopen) -> Clopen:
    """The union of the embedding's cells named by a clopen of the binary space."""
    return Clopen(emb.region.space, [b for c in binary_set.bricks
                                     for b in word_bisection(emb, c.words[0]).image.bricks])


@dataclass(frozen=True)
class ImageVigorReport:
    trials: int
    successes: int
    failures: tuple[str, ...]


def image_vigor_check(emb, trials: int, depth: int, seed: int = 0) -> ImageVigorReport:
    """Sample vigor instances inside the region and solve them through V.

    Random binary cells X', Y1', Y2' with Y1', Y2' inside X' (X' proper,
    Y2' nonempty) are drawn at the given depth; the binary vigor witness is
    evaluated through the embedding and its support and image containments
    are re-checked in the ambient space.
    """
    rng = random.Random(seed)
    successes, failures, done = 0, [], 0
    while done < trials:
        xb = random_clopen(BIN, rng, splits=depth, nonempty=True, proper=True)
        y1b = random_clopen(BIN, rng, splits=depth).intersect(xb)
        y2b = random_clopen(BIN, rng, splits=depth, nonempty=True).intersect(xb)
        if y2b.is_empty() or (vigor_case(xb, y1b, y2b) == "c" and y1b == xb):
            continue
        done += 1
        img = evaluate_embedding(emb, vigor_witness(xb, y1b, y2b))
        ok_support = closed_support(img).issubset(transport(emb, xb))
        ok_image = image_clopen(img, transport(emb, y1b)).issubset(transport(emb, y2b))
        if ok_support and ok_image:
            successes += 1
        else:
            failures.append("trial %d: support ok=%s image ok=%s" % (done, ok_support, ok_image))
    return ImageVigorReport(trials, successes, tuple(failures))


def vpair_text(v: TableElement) -> str:
    """A V table in the ``vpair`` text form, one '<word> -> <word>' per cell."""
    return "vpair\n" + "".join("%s -> %s\n" % (format_word(d.words[0]), format_word(r.words[0]))
                               for d, r in v.cells)


# -- independent checker for ``embed`` witnesses -----------------------------
#
# Sets are point sets of word tuples (root, words): a tuple lies in a set when
# a brick of the set is a prefix of it in every dimension.  Tuples start one
# letter deeper than every brick of the region data, so every membership test
# there is decided; where a map needs more letters (a cell deeper than the
# tuple), the tuple is split into its children and each is tried again.


class _Split(Exception):
    """A brick meets the word tuple only in part; split it along ``dim``."""

    def __init__(self, dim: int):
        self.dim = dim


def _find(bricks, t):
    """Index of the brick holding the tuple t, or None when t misses them all."""
    root, words = t
    for i, b in enumerate(bricks):
        if b.root != root:
            continue
        pairs = list(zip(words, b.words))
        if not all(w[:len(bw)] == bw or bw[:len(w)] == w for w, bw in pairs):
            continue
        for j, (w, bw) in enumerate(pairs):
            if len(bw) > len(w):
                raise _Split(j)
        return i
    return None


def _apply(cells, t):
    """Image of the tuple t under the bisection ``cells``, None off its source."""
    i = _find([d for d, _ in cells], t)
    if i is None:
        return None
    d, r = cells[i]
    return r.root, tuple(rw + w[len(dw):] for w, dw, rw in zip(t[1], d.words, r.words))


def _words(kbar, lengths) -> list:
    """Every tuple of words with the given lengths."""
    return list(itertools.product(*(itertools.product(range(k), repeat=m)
                                    for k, m in zip(kbar, lengths))))


def _refined(space: SpaceSpec, tuples, f) -> list:
    """f(t) for every tuple t of the finest partition f needs below ``tuples``:
    a tuple on which f raises :class:`_Split` is replaced by its children."""
    out, todo = [], list(tuples)
    while todo:
        t = todo.pop()
        try:
            out.append(f(t))
        except _Split as split:
            root, words = t
            j = split.dim
            todo += [(root, words[:j] + (words[j] + (a,),) + words[j + 1:])
                     for a in range(space.kbar[j])]
    return out


def _agree(space: SpaceSpec, f, g, tuples) -> bool:
    """Whether the maps f and g on word tuples agree on every point of the tuples."""
    return all(_refined(space, tuples, lambda t: f(t) == g(t)))


def _v_image(y, s0, s1, v: TableElement, t):
    """Where the embedding of v sends the tuple t: off the region t stays; in
    it, the binary address u of t is read letter by letter through s0 and s1
    (outermost letter first), v moves u to u', and t is sent back down u'."""
    if _find(y.bricks, t) is None:
        return t
    halves = (s0.cells, s1.cells)
    sources = [d for d, _ in v.cells]
    u = ()
    while True:
        try:
            d, r = v.cells[_find(sources, (0, (u,)))]
            break
        except _Split:
            letter = 0 if _find([r for _, r in halves[0]], t) is not None else 1
            t = _apply([(r, d) for d, r in halves[letter]], t)
            u += (letter,)
    for letter in reversed(r.words[0] + u[len(d.words[0]):]):
        t = _apply(halves[letter], t)
    return t


def embed_claims(blocks: dict) -> list:
    """The claims of an ``embed`` witness, as ``bht.verify`` lists them,
    decided on word tuples without the library's set algebra."""
    x, y, s0, s1 = blocks["X"], blocks["Y"], blocks["s0"], blocks["s1"]
    space = y.space
    bricks = list(x.bricks) + list(y.bricks) + [b for s in (s0, s1) for c in s.cells for b in c]
    depth = [1 + max([len(b.words[j]) for b in bricks], default=0) for j in range(space.n)]
    points = [(root, words) for root in range(space.r) for words in _words(space.kbar, depth)]

    def members(found):
        return frozenset(t for t in points if found(t) is not None)

    xs, ys = members(lambda t: _find(x.bricks, t)), members(lambda t: _find(y.bricks, t))
    src0, src1 = (members(lambda t, s=s: _find([d for d, _ in s.cells], t)) for s in (s0, s1))
    half0, half1 = (members(lambda t, s=s: _find([r for _, r in s.cells], t)) for s in (s0, s1))
    claims = [
        (xs <= ys, "region contains the prescribed support"),
        # a brick holds prod_j k_j^(D_j - |w_j|) tuples, 1 mod g as each k_j is
        (len(ys) % space.g == 0, "region has class zero"),
        (src0 == ys and src1 == ys, "halving maps start from the region"),
        (not half0 & half1, "halves disjoint"),
        (half0 | half1 == ys, "halves partition the region"),
    ]
    if "velement" in blocks:
        img, v = blocks["image"], blocks["velement"]
        matches = all(ok for ok, _ in claims) and _agree(
            space, lambda t: _apply(img.cells, t), lambda t: _v_image(y, s0, s1, v, t), points)
        claims.append((matches, "image matches the evaluated element"))
        # every tuple under a moving cell, extended to at least the depth
        inside = all(
            _find(y.bricks, (d.root, tuple(w + e for w, e in zip(d.words, ext)))) is not None
            for d, r in img.cells if d != r
            for ext in _words(space.kbar, [max(0, m - len(w)) for m, w in zip(depth, d.words)])
        )
        claims.append((inside, "image supported in the region"))
    return claims


# -- independent checker for ``compress``, ``double`` and ``between`` ---------
#
# The same word tuples as for ``embed``: one letter deeper than every brick of
# the witness, so each membership is decided by prefixes alone.  The image of
# a bisection is the set its target bricks hold.


def set_claims(kind: str, blocks: dict) -> list:
    """The claims of a ``compress``, ``double`` or ``between`` witness, as
    ``bht.verify`` lists them, decided on word tuples without the library's
    set algebra."""
    space = next(iter(blocks.values())).space
    sides = {}
    for name, obj in blocks.items():
        if isinstance(obj, Clopen):
            sides[name] = list(obj.bricks)
        else:
            sides[name + ".source"] = [d for d, _ in obj.cells]
            sides[name + ".image"] = [r for _, r in obj.cells]
    bricks = [b for side in sides.values() for b in side]
    depth = [1 + max([len(b.words[j]) for b in bricks], default=0) for j in range(space.n)]
    points = [(root, words) for root in range(space.r) for words in _words(space.kbar, depth)]
    sets = {name: frozenset(t for t in points if _find(side, t) is not None)
            for name, side in sides.items()}
    if kind == "double":
        x, img1, img2 = sets["X"], sets["output1.image"], sets["output2.image"]
        return [
            (sets["output1.source"] == x, "first source equals X"),
            (sets["output2.source"] == x, "second source equals X"),
            (not img1 & img2, "images disjoint"),
            (img1 | img2 <= x, "images inside X"),
            (not x <= img1 | img2, "images leave room in X"),
        ]
    a, b, src, img = sets["A"], sets["B"], sets["output.source"], sets["output.image"]
    if kind == "compress":
        return [
            (src == a, "source equals A"),
            (img <= b, "image inside B"),
            (not b <= img, "image strictly smaller than B"),
        ]
    assert kind == "between", kind
    return [(src == a, "source equals A"), (img == b, "image equals B")]


# -- independent checker for ``multisection`` and ``vigor`` witnesses -----------
#
# The element acts on word tuples by cell lookup.  The tuples start at the
# roots and are split wherever a clopen brick or a cell is deeper, until each
# tuple lies wholly inside or outside every set block and stays inside a cell
# for three applications.  On such a tuple t the element is a prefix exchange
# from the cylinder of t onto that of its image, so it fixes the cylinder when
# the image is t and otherwise moves a dense part of it.


def cycle_claims(kind: str, blocks: dict, params: dict) -> list:
    """The claims of a ``multisection`` or ``vigor`` witness, as ``bht.verify``
    lists them, decided on word tuples without the library's set algebra."""
    g = blocks["element"]
    space = g.space
    sets = {name: obj.bricks for name, obj in blocks.items() if name != "element"}

    def orbit(t):
        # (t, g t, g^2 t, g^3 t), the set blocks holding t and those holding g t
        path = [t]
        for _ in range(3):
            path.append(_apply(g.cells, path[-1]))
        held, image = ({name for name, bricks in sets.items() if _find(bricks, s) is not None}
                       for s in path[:2])
        return path, held, image

    rows = _refined(space, [(root, ((),) * space.n) for root in range(space.r)], orbit)
    moved = [path[1] != path[0] for path, _, _ in rows]
    # g^3 is the identity and g is not, hence neither is g^2
    order3 = all(path[3] == path[0] for path, _, _ in rows) and any(moved)
    if kind == "multisection":
        cycle = {"X0", "X1", "X2"}
        claims = [
            (order3, "element has order 3"),
            (all(m == bool(held & cycle) for m, (_, held, _) in zip(moved, rows)),
             "support is the union of the cycle sets"),
        ]
        for a, b in (("X0", "X1"), ("X1", "X2"), ("X2", "X0")):
            # g is a bijection, so g(a) = b exactly when t in a iff g t in b
            claims.append((all((a in held) == (b in image) for _, held, image in rows),
                           "maps %s onto %s" % (a, b)))
        if any(len(held & cycle) > 1 for _, held, _ in rows):
            claims.append((False, "cycle sets pairwise disjoint"))
        return claims
    assert kind == "vigor", kind
    if all("Y2" in held for _, held, _ in rows if "Y1" in held):
        case = "a"
    elif any("Y1" not in held for _, held, _ in rows if "Y2" in held):
        case = "b"
    else:
        case = "c"
    claims = [
        (all("X" in held for m, (_, held, _) in zip(moved, rows) if m), "support inside X"),
        (all("Y2" in image for _, held, image in rows if "Y1" in held), "image of Y1 inside Y2"),
    ]
    if case == "b":
        claims.append((order3, "single-cycle case has order 3"))
    if params.get("case") != case:
        claims.append((False, "case parameter matches the sets"))
    return claims


# -- independent checker for ``conjugates`` witnesses --------------------------
#
# The tables act on word tuples by cell lookup, as in ``cycle_claims``: a tuple
# is split wherever a cell or a target brick is deeper, and since each map is a
# prefix exchange, splitting a tuple refines its images in the same dimension.
# Two tables differ exactly when some tuple goes to different places.


def conjugate_blocks(fam) -> dict:
    """The blocks of the witness of a conjugate family, as ``bht conjugates`` writes them."""
    blocks = {"element": fam.base, "moved": fam.moved, "image": fam.image}
    for i, (target, h, c) in enumerate(zip(fam.targets, fam.conjugators, fam.conjugates), 1):
        blocks.update({"target%d" % i: target, "conjugator%d" % i: h, "conjugate%d" % i: c})
    return blocks


def conjugate_claims(blocks: dict, params: dict) -> list:
    """The claims of a ``conjugates`` witness, as ``bht.verify`` lists them,
    decided on word tuples without the library's set algebra."""
    g = blocks["element"]
    space = g.space
    roots = [(root, ((),) * space.n) for root in range(space.r)]
    moved = [(b.root, b.words) for b in blocks["moved"].bricks]
    numbers = range(1, int(params["count"]) + 1)
    conjugates = [blocks["conjugate%d" % i].cells for i in numbers]
    targets = [blocks["target%d" % i].bricks for i in numbers]
    claims = []
    for i, c, target in zip(numbers, conjugates, targets):
        h = blocks["conjugator%d" % i].cells
        back = [(r, d) for d, r in h]
        claims.append((_agree(space, lambda t: _apply(c, t),
                              lambda t: _apply(h, _apply(g.cells, _apply(back, t))), roots),
                       "conjugate %d equals h g h^-1" % i))
        claims.append((all(_refined(space, moved, lambda t: _find(target, _apply(c, t)) is not None)),
                       "conjugate %d maps the moved brick into its target" % i))
    distinct = all(not _agree(space, lambda t: _apply(a, t), lambda t: _apply(b, t), roots)
                   for a, b in itertools.combinations(conjugates, 2))
    claims.append((distinct, "conjugates pairwise distinct"))
    bricks = [b for target in targets for b in target]
    depth = [1 + max([len(b.words[j]) for b in bricks], default=0) for j in range(space.n)]
    points = [(root, words) for root in range(space.r) for words in _words(space.kbar, depth)]
    sets = [frozenset(t for t in points if _find(target, t) is not None) for target in targets]
    claims.append((all(not a & b for a, b in itertools.combinations(sets, 2)),
                   "targets pairwise disjoint"))
    # g is a bijection, so g(moved) = image exactly when t in moved iff g t in image
    source, image = blocks["moved"].bricks, blocks["image"].bricks
    if not all(_refined(space, roots, lambda t: (_find(source, t) is None)
                        == (_find(image, _apply(g.cells, t)) is None))):
        claims.append((False, "element maps the moved brick onto the image"))
    return claims


# -- independent checker for ``compressibility`` witnesses ---------------------
#
# As in ``cycle_claims``, the tuples start at the roots and are split wherever a
# set brick or a cell is deeper.  On each final tuple the element is a prefix
# exchange, which fixes the tuple's cylinder when it maps the tuple to itself
# and otherwise moves a dense part of it, so the closed support is the union of
# the moved tuples.  The point is read on its tuple one letter deeper than every
# brick and cell: that tuple lies in a set, or is moved, exactly when the point
# lies in the set, or in the closed support.


def compressibility_claims(blocks: dict, params: dict) -> list:
    """The claims of a ``compressibility`` witness, as ``bht.verify`` lists
    them, decided on word tuples without the library's set algebra."""
    g = blocks["element"]
    space = g.space
    sets = {name: obj.bricks for name, obj in blocks.items() if name != "element"}

    def holding(t):
        return {name for name, bricks in sets.items() if _find(bricks, t) is not None}

    def row(t):
        # whether g moves t, the sets holding t and those holding g t
        image = _apply(g.cells, t)
        return image != t, holding(t), holding(image)

    rows = _refined(space, [(root, ((),) * space.n) for root in range(space.r)], row)
    bricks = [b for cell in g.cells for b in cell] + [b for s in sets.values() for b in s]
    depth = [1 + max(len(b.words[j]) for b in bricks) for j in range(space.n)]
    point = parse_point(params["point"], space)
    x0 = (point.root, tuple(tuple(itertools.islice(itertools.chain(pre, itertools.cycle(per)), m))
                            for (pre, per), m in zip(point.coords, depth)))
    at_point = holding(x0)
    fixes = (_apply(g.cells, x0) == x0, "element fixes a neighborhood of the point")
    if int(params["condition"]) == 1:
        return [
            (all("output" in held for m, held, _ in rows if m), "support inside the subbase member"),
            ("output" not in at_point, "subbase member avoids the point"),
        ]
    if int(params["condition"]) == 2:
        return [
            (all("U2" in image for _, held, image in rows if "U1" in held), "image of U1 inside U2"),
            (not at_point & {"U1", "U2"}, "U1, U2 avoid the point"),
            fixes,
        ]
    claims = [
        (not any("U3" in image for _, held, image in rows if "U1" in held), "image of U1 misses U3"),
        (not any("U2" in held for m, held, _ in rows if m), "support misses U2"),
        (not any({"U1", "U2"} <= held for _, held, _ in rows), "U1 and U2 disjoint"),
        fixes,
    ]
    if at_point & {"U1", "U2", "U3"}:
        claims.append((False, "U1, U2, U3 avoid the point"))
    return claims
