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
with ``VEmbedding._wrap``.  An embedding is a value that equals any other
with the same three parts; :func:`evaluate_embedding` composes the bisection
of each word suffix it needs once per call.
"""

from dataclasses import dataclass

from .element import PrefixBijection, TableElement, compose_partial, extend_by_identity, inverse_cells
from .errors import DomainError
from .space import Clopen, Word, binary_space, compose_cells, h0_class, same_set
from .witness import _split_brick_list, _split_nonempty, bisection_between


def embedding_checks(region: Clopen, s0: PrefixBijection, s1: PrefixBijection) -> list[tuple[bool, str]]:
    """(ok, description) for each condition on (region, s0, s1) to embed V."""
    h0, h1 = s0.image, s1.image
    return [
        (h0_class(region) == 0, "region has class zero"),
        (same_set(s0.source, region) and same_set(s1.source, region), "halving maps start from the region"),
        (h0.isdisjoint(h1), "halves disjoint"),
        (same_set(h0.union(h1), region), "halves partition the region"),
    ]


@dataclass(frozen=True, slots=True)
class VEmbedding:
    """Region Y of class zero plus two halving bisections s0, s1: Y -> Y.

    The composite along a binary word u (outermost letter applied last) is a
    bisection from Y onto the sub-cell named by u; cells over a complete
    antichain partition Y.
    """

    region: Clopen
    s0: PrefixBijection
    s1: PrefixBijection

    def __post_init__(self):
        for ok, what in embedding_checks(self.region, self.s0, self.s1):
            if not ok:
                raise DomainError("not an embedding: fails '%s'" % what)

    @classmethod
    def _wrap(cls, region: Clopen, s0: PrefixBijection, s1: PrefixBijection):
        """Build from parts known to pass :func:`embedding_checks`, unchecked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "region", region)
        object.__setattr__(obj, "s0", s0)
        object.__setattr__(obj, "s1", s1)
        return obj


def build_v_embedding(x: Clopen) -> VEmbedding:
    """Embedding whose support region contains x.

    The region starts as x and adjoins bricks carved from the complement (one
    at a time, each raising the class by 1) until the class vanishes; it is
    then split into two class-zero halves reached by exact bisections.
    """
    space = x.space
    if x.is_full():
        raise DomainError("the prescribed support must be a proper subset")
    if x.is_empty():
        raise DomainError("the prescribed support must be nonempty")
    y = x
    avail = x.complement()
    for _ in range((space.g - h0_class(x)) % space.g):
        piece, avail = _split_nonempty(avail)
        y = y.union(piece)
    # each dimension-0 split adds k_0 - 1 bricks; make at least 2g of them
    short = max(2 * space.g, 2) - len(y.bricks)
    parts = _split_brick_list(space, y.bricks, [0] * -(-short // (space.kbar[0] - 1)))
    y0 = Clopen._wrap(space, parts[: space.g])
    y1 = Clopen._wrap(space, parts[space.g:])
    return VEmbedding._wrap(y, bisection_between(y, y0), bisection_between(y, y1))


def evaluate_embedding(emb: VEmbedding, v: TableElement) -> TableElement:
    """Image of a V element: on each source cell of v the composite
    s_target o s_source^-1, identity off the region."""
    v.space.check_same(binary_space())
    space = emb.region.space

    # Y -> cell(u) is s_u[0] after Y -> cell(u[1:]), so words share suffixes
    memo = {(): PrefixBijection._wrap(space, [(b, b) for b in emb.region.bricks])}

    def word_bisection(u: Word) -> PrefixBijection:
        j = 0
        while u[j:] not in memo:
            j += 1
        for i in range(j - 1, -1, -1):
            memo[u[i:]] = compose_partial(emb.s1 if u[i] else emb.s0, memo[u[i + 1:]])
        return memo[u]

    cells = []
    for d, r in v.cells:
        back = inverse_cells(word_bisection(d.words[0]))
        cells += compose_cells(word_bisection(r.words[0]).cells, back)
    return extend_by_identity(space, cells)
