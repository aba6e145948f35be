"""Constructive witnesses: compressions, doublings, multisections, vigor
elements, conjugate families, and compressibility data.

All constructors are deterministic: whenever a brick has to be split, the
first brick in canonical order is split along dimension 0 (the class-matching
bisection additionally splits along other dimensions when the counts require
it).  The inputs were checked where they entered (the text reader,
``sampling`` or a library caller's constructor), so every clopen, bisection
and table built here is cut from checked objects and built with ``_wrap``,
unchecked; ``bht.verify`` re-checks the stated postconditions.
"""

import itertools
from dataclasses import dataclass

from .element import (
    Multisection,
    PrefixBijection,
    TableElement,
    canonicalize,
    closed_support,
    compose,
    compose_partial,
    extend_by_identity,
    identity,
    image_clopen,
    inverse_cells,
    invert_partial,
    is_identity,
)
from .errors import ClassMismatchError, DomainError, UnsatisfiableError
from .space import (
    Brick, Clopen, RationalPoint, SpaceSpec, compose_cells, h0_class, merge_families, point_in, same_set,
    subdivide,
)


def compress(a: Clopen, b: Clopen) -> PrefixBijection:
    """Bisection with source exactly ``a`` and image strictly inside ``b``.

    The first brick of b is split along dimension 0 into enough equal-depth
    pieces that one can be left unused, so the image is always proper.
    """
    a.space.check_same(b.space)
    if a.is_empty() or b.is_empty():
        raise DomainError("compress needs nonempty source and target")
    space = a.space
    k0 = space.kbar[0]
    target = len(a.bricks) + 1
    levels, count = 0, 1
    while count < target:
        count *= k0
        levels += 1
    base = b.bricks[0]
    pieces = [base]
    for _ in range(levels):
        pieces = [c for p in pieces for c in subdivide(space, p, 0)]
    return PrefixBijection._wrap(space, list(zip(a.bricks, pieces)))


def doubling_witness(x: Clopen) -> tuple[PrefixBijection, PrefixBijection]:
    """Two bisections with source x and disjoint images inside x.

    The first brick of x is split once along dimension 0 and x is compressed
    into the first two children separately.
    """
    if x.is_empty():
        raise DomainError("doubling needs a nonempty clopen")
    children = subdivide(x.space, x.bricks[0], 0)
    left = Clopen._wrap(x.space, [children[0]])
    right = Clopen._wrap(x.space, [children[1]])
    return compress(x, left), compress(x, right)


def _coin_steps(m: int, coins: list[tuple[int, int]]):
    """Dimensions to split along so the brick count grows by exactly m."""
    parent: dict[int, tuple[int, int] | None] = {0: None}
    todo = [0]
    while todo:
        v = todo.pop(0)
        if v == m:
            break
        for value, dim in coins:
            w = v + value
            if w <= m and w not in parent:
                parent[w] = (v, dim)
                todo.append(w)
    if m not in parent:
        return None
    steps = []
    v = m
    while v:
        v, dim = parent[v]  # type: ignore[misc]
        steps.append(dim)
    return steps[::-1]


def _split_brick_list(space: SpaceSpec, bricks, dims) -> list[Brick]:
    """Split the shallowest brick along each of ``dims`` in turn; the pieces, sorted."""
    parts = list(bricks)
    for dim in dims:
        i = min(range(len(parts)), key=lambda t: (parts[t].depth(), parts[t]))
        parts[i:i + 1] = subdivide(space, parts[i], dim)
    return sorted(parts)


def bisection_between(a: Clopen, b: Clopen) -> PrefixBijection:
    """Bisection with source exactly a and image exactly b.

    Requires equal class mod g.  Both sides are refined (each split along
    dimension j adds k_j - 1 bricks) until the brick counts agree, then the
    bricks are matched in canonical order.
    """
    a.space.check_same(b.space)
    space = a.space
    ca, cb = h0_class(a), h0_class(b)
    if ca != cb:
        raise ClassMismatchError(ca, cb, space.g)
    if a.is_empty() != b.is_empty():
        raise DomainError("cannot match an empty clopen with a nonempty one")
    coins = []
    for dim, k in enumerate(space.kbar):
        if all(k - 1 != value for value, _ in coins):
            coins.append((k - 1, dim))
    na, nb = len(a.bricks), len(b.bricks)
    # na = nb (mod g) and the coins reach every large enough multiple of g,
    # so the search ends
    for total in itertools.count(max(na, nb)):
        steps_a = _coin_steps(total - na, coins)
        steps_b = _coin_steps(total - nb, coins)
        if steps_a is not None and steps_b is not None:
            break
    parts_a = _split_brick_list(space, a.bricks, steps_a)
    parts_b = _split_brick_list(space, b.bricks, steps_b)
    return PrefixBijection._wrap(space, list(zip(parts_a, parts_b)))


def _assemble_cycle(b1: PrefixBijection, b2: PrefixBijection) -> TableElement:
    """Order-3 element from b1: A -> B and b2: B -> C (sources exact):
    the union b1 + b2 + (b2 b1)^-1, extended by the identity.

    A, B and C are disjoint, so the three legs form a bisection of their
    union onto itself."""
    closing = invert_partial(compose_partial(b2, b1))
    return extend_by_identity(b1.space, list(b1.cells + b2.cells + closing.cells))


def multisection(x0: Clopen, x1: Clopen, x2: Clopen) -> Multisection:
    """Order-3 element cycling x0 -> x1 -> x2 -> x0, identity elsewhere.

    The three clopens must be nonempty, pairwise disjoint and of equal class;
    the third leg is forced as the inverse of the composite of the first two.
    """
    x0.space.check_same(x1.space)
    x0.space.check_same(x2.space)
    for name, x in (("x0", x0), ("x1", x1), ("x2", x2)):
        if x.is_empty():
            raise DomainError("multisection needs nonempty %s" % name)
    for u, v, names in ((x0, x1, "x0,x1"), (x0, x2, "x0,x2"), (x1, x2, "x1,x2")):
        if not u.isdisjoint(v):
            raise DomainError("cycle sets %s are not disjoint" % names)
    b1 = bisection_between(x0, x1)
    b2 = bisection_between(x1, x2)
    return Multisection(_assemble_cycle(b1, b2), (x0, x1, x2))


def vigor_case(x: Clopen, y1: Clopen, y2: Clopen) -> str:
    """Which construction a vigor witness for (x, y1, y2) uses: 'a' identity,
    'b' one order-3 cycle, 'c' product of two cycles."""
    return _vigor_split(y1, y2)[0]


def _vigor_split(y1: Clopen, y2: Clopen) -> tuple[str, Clopen | None]:
    # the vigor case and, past case a, y2 \ y1: the free region of case b
    if y1.issubset(y2):
        return "a", None
    free = y2.difference(y1)
    return ("c" if free.is_empty() else "b"), free


def _split_nonempty(z: Clopen) -> tuple[Clopen, Clopen]:
    if len(z.bricks) >= 2:
        return Clopen._wrap(z.space, z.bricks[:1]), Clopen._wrap(z.space, z.bricks[1:])
    children = subdivide(z.space, z.bricks[0], 0)
    return Clopen._wrap(z.space, children[:1]), Clopen._wrap(z.space, children[1:])


def _vigor_cycle(y1: Clopen, free: Clopen) -> TableElement:
    # free nonempty and disjoint from y1, y1 nonempty: split free, compress y1
    # into the first part, compress the image into the second, close the cycle.
    z21, z22 = _split_nonempty(free)
    b1 = compress(y1, z21)
    b2 = compress(b1.image, z22)
    return _assemble_cycle(b1, b2)


def vigor_witness(x: Clopen, y1: Clopen, y2: Clopen) -> TableElement:
    """Element supported in x taking y1 inside y2.

    Cases: y1 already inside y2 gives the identity; when y2 \\ y1 is nonempty
    a single order-3 cycle through a split of that difference suffices; when
    y2 is strictly inside y1 the element is a product of two such cycles
    through an intermediate region disjoint from y1.  The corner y1 = x with
    y2 strictly smaller is unsatisfiable (a homeomorphism fixing the
    complement of x maps x onto x) and is rejected.
    """
    x.space.check_same(y1.space)
    x.space.check_same(y2.space)
    if x.is_full():
        raise DomainError("the supporting clopen must be a proper subset")
    if not y1.issubset(x) or not y2.issubset(x):
        raise DomainError("y1 and y2 must lie inside the supporting clopen")
    if y2.is_empty():
        raise DomainError("the target clopen must be nonempty")
    case, free = _vigor_split(y1, y2)
    if case == "a":
        return identity(x.space)
    if case == "b":
        return _vigor_cycle(y1, free)
    if same_set(y1, x):
        raise UnsatisfiableError(
            "no element supported in x can move all of x strictly into itself"
        )
    w = Clopen._wrap(x.space, x.difference(y1).bricks[:1])
    # g1 moves y1 into w, off y2 (which lies inside y1), so y2 is free for g2
    g1 = _vigor_cycle(y1, w)
    g2 = _vigor_cycle(image_clopen(g1, y1), y2)
    return compose(g2, g1)


@dataclass(frozen=True, slots=True)
class ConjugateFamily:
    """Distinct conjugates h g h^-1 with the data proving distinctness:
    each conjugate maps ``moved`` into its own member of ``targets``."""

    base: TableElement
    moved: Clopen
    image: Clopen
    targets: tuple[Clopen, ...]
    conjugators: tuple[TableElement, ...]
    conjugates: tuple[TableElement, ...]


def conjugate_family(g: TableElement, count: int) -> ConjugateFamily:
    """Pairwise distinct conjugates of a nontrivial element.

    A small brick y1 moved off itself is extracted from a non-identity cell;
    conjugators supported away from y1 relocate g(y1) into pairwise disjoint
    targets, so the conjugates differ on y1.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    space = g.space
    gc = canonicalize(g)
    if is_identity(gc):
        raise DomainError("the identity has a single conjugate")
    d, r = next((d, r) for d, r in gc.cells if d != r)
    if d.intersect(r) is None:
        seed = d
    else:
        j = next(j for j in range(space.n) if d.words[j] != r.words[j])
        shorter, longer = sorted((d.words[j], r.words[j]), key=len)
        avoid = longer[len(shorter)]
        seed = d.child(j, (avoid + 1) % space.kbar[j])
    # one extra split guarantees y1 and g(y1) leave room for the targets
    y1 = Clopen._wrap(space, [seed.child(0, 0)])
    img = image_clopen(gc, y1)
    if not img.isdisjoint(y1):
        raise AssertionError("extracted brick is not moved off itself")
    room = y1.union(img).complement()
    pieces = [room.bricks[0]]
    while len(pieces) < count:
        pieces = subdivide(space, pieces[0], 0) + pieces[1:]
    targets = tuple(Clopen._wrap(space, [p]) for p in pieces[:count])
    conjugators = []
    conjugates = []
    for w in targets:
        # vigor case b for (complement of y1, img, w): w lies in room, off y1
        # and img, so the one cycle through w is the witness
        h = _vigor_cycle(img, w)
        conjugators.append(h)
        # h g h^-1 from its raw cells, merged once
        raw = compose_cells(h.cells, compose_cells(gc.cells, inverse_cells(h)))
        conjugates.append(TableElement._wrap(space, merge_families(space, raw)))
    return ConjugateFamily(gc, y1, img, targets, tuple(conjugators), tuple(conjugates))


def brick_neighborhood(p: RationalPoint, depth: int) -> Clopen:
    """The depth-``depth`` brick around an ultimately periodic point."""
    words = tuple(p.prefix(j, depth) for j in range(p.space.n))
    return Clopen._wrap(p.space, [Brick(p.root, words)])


def avoiding_neighborhood(p: RationalPoint, *avoid: Clopen) -> Clopen:
    """Smallest-depth brick neighborhood of p disjoint from every argument.

    Exists whenever each argument is a clopen not containing p; the depth
    never needs to exceed the argument brick depths by more than one.
    """
    for c in avoid:
        if point_in(p, c):
            raise DomainError("the point lies inside a region to avoid")
    depth = 1
    while True:
        nb = brick_neighborhood(p, depth)
        if all(nb.isdisjoint(c) for c in avoid):
            return nb
        depth += 1


def compressibility_witness(x0: RationalPoint, condition: int, *args):
    """Witness for the subbase of all clopens avoiding x0 (closed under
    finite unions).

    Condition 1 (args: g with x0 outside its closed support): a subbase
    member containing the support, namely the complement of a small brick
    around x0.  Condition 2 (args: u1, u2 avoiding x0): an element fixing a
    neighborhood of x0 with g(u1) inside u2.  Condition 3 (args: u1, u2, u3
    avoiding x0, u1 and u2 disjoint): an element fixing a neighborhood of x0
    whose support misses u2 and with g(u1) disjoint from u3, routed through a
    ring between two brick neighborhoods of x0.
    """
    if condition == 1:
        (g,) = args
        support = closed_support(g)
        if point_in(x0, support):
            raise DomainError("x0 lies in the closed support of the element")
        return avoiding_neighborhood(x0, support).complement()
    if condition == 2:
        u1, u2 = args
        if u1.is_empty():
            return identity(x0.space)
        # one level deeper than necessary, so u1 is strictly inside the
        # complement even when u1 fills everything off the neighborhood
        nb = avoiding_neighborhood(x0, u1, u2)
        nb = brick_neighborhood(x0, len(nb.bricks[0].words[0]) + 1)
        return vigor_witness(nb.complement(), u1, u2)
    if condition == 3:
        u1, u2, u3 = args
        if not u1.isdisjoint(u2):
            raise DomainError("u1 and u2 must be disjoint")
        nb = avoiding_neighborhood(x0, u1, u2, u3)
        depth = len(nb.bricks[0].words[0])
        ring = nb.difference(brick_neighborhood(x0, depth + 1))
        if u1.is_empty():
            return identity(x0.space)
        return vigor_witness(u1.union(ring), u1, ring)
    raise DomainError("condition must be 1, 2 or 3")
