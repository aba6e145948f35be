"""Shared helpers for the test suite: terse constructors, the point oracle and references."""

import itertools

from bht.element import TableElement
from bht.space import Brick, Clopen, RationalPoint, SpaceSpec

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
