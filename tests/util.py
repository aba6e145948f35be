"""Shared helpers for the test suite: terse constructors, the point oracle and references."""

import itertools

from bht.element import PrefixBijection, TableElement, canonicalize
from bht.space import Brick, Clopen, RationalPoint, SpaceSpec, compose_cells

V2 = SpaceSpec(1, (2,), 1)
V3 = SpaceSpec(1, (3,), 1)
V2x2 = SpaceSpec(2, (2, 2), 1)
V23 = SpaceSpec(2, (2, 3), 1)


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


def compose_cells_all_pairs(f_cells, g_cells) -> list:
    """Reference for ``bht.space.compose_cells``: meet every g-target with every f-source."""
    def suffixes(meet, outer):
        assert outer.contains(meet)
        return tuple(m[len(w):] for m, w in zip(meet.words, outer.words))

    cells = []
    for gd, gr in g_cells:
        for fd, fr in f_cells:
            meet = gr.intersect(fd)
            if meet is not None:
                cells.append((gd.extend(suffixes(meet, gr)), fr.extend(suffixes(meet, fd))))
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


def evaluate_embedding_validated(emb, v: TableElement) -> TableElement:
    """Reference for ``bht.vembed.evaluate_embedding``: every bisection on the
    way, and the whole table, goes through the validating constructors."""
    space = emb.space
    cells = []
    for d, r in v.cells:
        there = PrefixBijection(space, emb.word_bisection(r.words[0]).cells)
        back = PrefixBijection(space, [(t, s) for s, t in emb.word_bisection(d.words[0]).cells])
        cells += PrefixBijection(space, compose_cells(there.cells, back.cells)).cells
    cells += [(b, b) for b in emb.region.complement().bricks]
    return canonicalize(TableElement(space, cells))


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
            (img1 | img2 != x, "images leave room in X"),
        ]
    a, b, src, img = sets["A"], sets["B"], sets["output.source"], sets["output.image"]
    if kind == "compress":
        return [
            (src == a, "source equals A"),
            (img <= b, "image inside B"),
            (img != b, "image strictly smaller than B"),
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
