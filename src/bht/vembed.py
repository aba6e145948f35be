"""Embedding Thompson's group V into a prefix-exchange group, supported on a
prescribed region.

Elements of V are tables over the one-dimensional binary space
(:func:`binary_space`); an embedding is determined by a region Y of class
zero together with two bisections halving it.  Words over the two halving
maps name a binary tree of sub-cells of Y, and a V table acts by moving
those cells around, identity off Y.
The conditions on (Y, s0, s1) live in :func:`embedding_checks`, for both
:class:`VEmbedding` and the verifier; what is built from a checked
embedding is wrapped, not validated again (see :mod:`bht.element`).
:func:`build_v_embedding`, whose parts pass by construction, and the
verifier, once its own run of the checks has passed, build the embedding
with ``VEmbedding._wrap``.
"""

import random
from dataclasses import dataclass

from .element import (
    PrefixBijection,
    TableElement,
    closed_support,
    compose_partial,
    extend_by_identity,
    image_clopen,
)
from .errors import DomainError
from .sampling import random_clopen
from .space import Clopen, SpaceSpec, Word, binary_space, compose_cells, h0_class, subdivide
from .witness import _split_brick_list, bisection_between, vigor_case, vigor_witness


def embedding_checks(region: Clopen, s0: PrefixBijection, s1: PrefixBijection) -> list[tuple[bool, str]]:
    """(ok, description) for each condition on (region, s0, s1) to embed V."""
    h0, h1 = s0.image, s1.image
    return [
        (h0_class(region) == 0, "region has class zero"),
        (s0.source == region and s1.source == region, "halving maps start from the region"),
        (h0.isdisjoint(h1), "halves disjoint"),
        (h0.union(h1) == region, "halves partition the region"),
    ]


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class VEmbedding:
    """Region Y of class zero plus two halving bisections s0, s1: Y -> Y.

    The composite along a binary word u (outermost letter applied last) is a
    bisection from Y onto the sub-cell named by u; cells over a complete
    antichain partition Y.  Word bisections are cached in ``_words``, so
    embeddings compare by identity.
    """

    space: SpaceSpec
    region: Clopen
    s0: PrefixBijection
    s1: PrefixBijection
    _words: dict[Word, PrefixBijection]

    def __init__(self, space: SpaceSpec, region: Clopen, s0: PrefixBijection, s1: PrefixBijection):
        for ok, what in embedding_checks(region, s0, s1):
            if not ok:
                raise DomainError("not an embedding: fails '%s'" % what)
        self._fill(space, region, s0, s1)

    @classmethod
    def _wrap(cls, space: SpaceSpec, region: Clopen, s0: PrefixBijection, s1: PrefixBijection):
        """Build from parts known to pass :func:`embedding_checks`, unchecked."""
        obj = object.__new__(cls)
        obj._fill(space, region, s0, s1)
        return obj

    def _fill(self, space, region, s0, s1):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "s1", s1)
        object.__setattr__(self, "_words", {})

    def word_bisection(self, u: Word) -> PrefixBijection:
        """Composite bisection Y -> cell(u)."""
        got = self._words.get(u)
        if got is None:
            if not u:
                got = PrefixBijection._wrap(self.space, [(b, b) for b in self.region.bricks])
            else:
                head = self.s0 if u[0] == 0 else self.s1
                got = compose_partial(head, self.word_bisection(u[1:]))
            self._words[u] = got
        return got

    def cell(self, u: Word) -> Clopen:
        return self.word_bisection(u).image

    def transport(self, binary_set: Clopen) -> Clopen:
        """The union of the cells named by a clopen of the binary space."""
        binary_set.space.check_same(binary_space())
        bricks = []
        for b in binary_set.bricks:
            bricks.extend(self.cell(b.words[0]).bricks)
        return Clopen._wrap(self.space, bricks)


def build_v_embedding(space: SpaceSpec, x: Clopen) -> VEmbedding:
    """Embedding whose support region contains x.

    The region starts as x and adjoins bricks carved from the complement (one
    at a time, each raising the class by 1) until the class vanishes; it is
    then split into two class-zero halves reached by exact bisections.
    """
    space.check_same(x.space)
    if x.is_full():
        raise DomainError("the prescribed support must be a proper subset")
    if x.is_empty():
        raise DomainError("the prescribed support must be nonempty")
    y = x
    avail = x.complement()
    for _ in range((space.g - h0_class(x)) % space.g):
        if len(avail.bricks) == 1:
            piece = subdivide(space, avail.bricks[0], 0)[0]
        else:
            piece = avail.bricks[0]
        y = y.union(Clopen._wrap(space, [piece]))
        avail = avail.difference(Clopen._wrap(space, [piece]))
    # each dimension-0 split adds k_0 - 1 bricks; make at least 2g of them
    short = max(2 * space.g, 2) - len(y.bricks)
    parts = _split_brick_list(space, y.bricks, [0] * -(-short // (space.kbar[0] - 1)))
    y0 = Clopen._wrap(space, parts[: space.g])
    y1 = Clopen._wrap(space, parts[space.g:])
    return VEmbedding._wrap(space, y, bisection_between(y, y0), bisection_between(y, y1))


def evaluate_embedding(emb: VEmbedding, v: TableElement) -> TableElement:
    """Image of a V element: on each source cell of v the composite
    s_target o s_source^-1, identity off the region."""
    v.space.check_same(binary_space())
    cells = []
    for d, r in v.cells:
        back = [(t, s) for s, t in emb.word_bisection(d.words[0]).cells]
        cells += compose_cells(emb.word_bisection(r.words[0]).cells, back)
    return extend_by_identity(emb.space, cells)


@dataclass(frozen=True)
class ImageVigorReport:
    trials: int
    successes: int
    failures: tuple[str, ...]

    def all_ok(self) -> bool:
        return self.successes == self.trials


def image_vigor_check(emb: VEmbedding, trials: int, depth: int, seed: int = 0) -> ImageVigorReport:
    """Sample vigor instances inside the region and solve them through V.

    Random binary cells X', Y1', Y2' with Y1', Y2' inside X' (X' proper,
    Y2' nonempty) are drawn at the given depth; the binary vigor witness is
    evaluated through the embedding and its support and image containments
    are re-checked in the ambient space.
    """
    if trials < 1 or depth < 1:
        raise DomainError("trials and depth must be >= 1")
    rng = random.Random(seed)
    successes = 0
    failures = []
    done = 0
    while done < trials:
        xb = random_clopen(binary_space(), rng, splits=depth, nonempty=True, proper=True)
        y1b = random_clopen(binary_space(), rng, splits=depth).intersect(xb)
        y2b = random_clopen(binary_space(), rng, splits=depth, nonempty=True).intersect(xb)
        if y2b.is_empty():
            continue
        if vigor_case(xb, y1b, y2b) == "c" and y1b == xb:
            continue
        done += 1
        v = vigor_witness(xb, y1b, y2b)
        img = evaluate_embedding(emb, v)
        ok_support = closed_support(img).issubset(emb.transport(xb))
        ok_image = image_clopen(img, emb.transport(y1b)).issubset(emb.transport(y2b))
        if ok_support and ok_image:
            successes += 1
        else:
            failures.append(
                "trial %d: support ok=%s image ok=%s" % (done, ok_support, ok_image)
            )
    return ImageVigorReport(trials, successes, tuple(failures))
