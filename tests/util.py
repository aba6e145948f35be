"""Shared helpers for the test suite: terse constructors."""

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
