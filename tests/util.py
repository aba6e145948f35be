"""Shared helpers for the test suite: terse constructors."""

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
