"""Re-check the postconditions claimed by a witness file.

Every check re-derives the claim with the set algebra and the point action;
nothing is trusted from the file beyond the objects themselves.  The result
is a list of (ok, description) pairs, one per postcondition, and a block or
parameter that no check reads is a parse error.

Set claims rest on no canonical form.  Containment is
``Clopen.issubset`` (the meets of one set with the other, weighed against
it), equality is ``space.same_set`` (equal values, or each inside the
other), and a strict claim is the failure of the reverse containment.  So
the trusted base is ``space.compose_cells``, the measure
(``space.measures``), ``element.identity_cells`` and the test of equal
brick tuples; the sets the checks build (sources, images, unions) must
denote the right points, but two forms of one set need not agree.

A claimed conjugate c = h g h^-1 is decided on raw cells: c h = h g exactly
when c h g^-1 h^-1 is the identity, and whether every cell is an identity
cell is exact on any cell partition (``element.identity_cells``), so the
raw cells of that product decide it with no merge of families.
"""

from .element import (
    PrefixBijection,
    TableElement,
    closed_support,
    equals,
    identity_cells,
    image_clopen,
    inverse_cells,
    order,
)
from .errors import ParseError
from .space import Clopen, SpaceSpec, binary_space, compose_cells, point_in, same_set
from .textio import Witness, parse_point
from .vembed import VEmbedding, embedding_checks, evaluate_embedding
from .witness import vigor_case

Check = tuple[bool, str]

_KIND_NAMES = {Clopen: "clopen", PrefixBijection: "bisection", TableElement: "table"}


class _Reading:
    """A witness as its checker reads it: :meth:`need` and :meth:`param`
    record each name they are asked for, so that :func:`run_checks` can
    refuse the blocks and parameters that no check reads."""

    def __init__(self, witness: Witness):
        self.witness, self.blocks, self.params, self.space = witness, set(), set(), None

    def need(self, name: str, kind: type = Clopen, space: SpaceSpec | None = None):
        """Block ``name``, checked to be a ``kind`` over ``space``.

        ``space`` defaults to the space of the reference block: the first
        block the checker reads, wherever the file puts it.  A table is also
        accepted where a bisection is needed.
        """
        w = self.witness
        self.blocks.add(name)
        if name not in w.blocks:
            raise ParseError("witness %r is missing block %r" % (w.kind, name), w.kind_line)
        block = w.blocks[name]
        line = w.block_lines.get(name)
        if not isinstance(block, kind):
            raise ParseError("witness %r block %r is not a %s" % (w.kind, name, _KIND_NAMES[kind]), line)
        if space is None:
            space = self.space = self.space or block.space
        if block.space != space:
            raise ParseError("witness %r block %r is over %s, expected %s" % (
                w.kind, name, block.space, space), line)
        return block

    def param(self, key: str, read=int):
        """Parameter ``key``, read by ``read``: an integer unless a reader is
        given.  A missing parameter is an error on the header line, a bad
        value on its own line."""
        w = self.witness
        self.params.add(key)
        if key not in w.params:
            raise ParseError("witness %r is missing parameter %r" % (w.kind, key), w.kind_line)
        line = w.param_lines[key]
        try:
            return read(w.params[key])
        except ParseError as err:
            raise ParseError(str(err), line) from None
        except ValueError:
            raise ParseError("witness %r parameter %r must be an integer" % (w.kind, key), line) from None


def _check_compress(w: _Reading) -> list[Check]:
    a, b = w.need("A"), w.need("B")
    out = w.need("output", PrefixBijection)
    return [
        (same_set(out.source, a), "source equals A"),
        (out.image.issubset(b), "image inside B"),
        (not b.issubset(out.image), "image strictly smaller than B"),
    ]


def _check_double(w: _Reading) -> list[Check]:
    x = w.need("X")
    b1, b2 = w.need("output1", PrefixBijection), w.need("output2", PrefixBijection)
    union = b1.image.union(b2.image)
    return [
        (same_set(b1.source, x), "first source equals X"),
        (same_set(b2.source, x), "second source equals X"),
        (b1.image.isdisjoint(b2.image), "images disjoint"),
        (union.issubset(x), "images inside X"),
        (not x.issubset(union), "images leave room in X"),
    ]


def _check_between(w: _Reading) -> list[Check]:
    a, b = w.need("A"), w.need("B")
    out = w.need("output", PrefixBijection)
    return [
        (same_set(out.source, a), "source equals A"),
        (same_set(out.image, b), "image equals B"),
    ]


def _check_multisection(w: _Reading) -> list[Check]:
    x0, x1, x2 = w.need("X0"), w.need("X1"), w.need("X2")
    g = w.need("element", TableElement)
    checks = [
        (order(g, 4) == 3, "element has order 3"),
        (same_set(closed_support(g), x0.union(x1).union(x2)), "support is the union of the cycle sets"),
        (same_set(image_clopen(g, x0), x1), "maps X0 onto X1"),
        (same_set(image_clopen(g, x1), x2), "maps X1 onto X2"),
        (same_set(image_clopen(g, x2), x0), "maps X2 onto X0"),
    ]
    # Without disjointness the claim holds trivially (X0 = X1 = X2 = the
    # support of any 3-cycle).  A witness built by ``multisection`` always
    # meets it, so it is listed only when violated.  Nonemptiness needs no
    # check: the maps above force all three sets empty together, and then the
    # support is empty and the order check fails.
    if not (x0.isdisjoint(x1) and x0.isdisjoint(x2) and x1.isdisjoint(x2)):
        checks.append((False, "cycle sets pairwise disjoint"))
    return checks


def _check_vigor(w: _Reading) -> list[Check]:
    x, y1, y2 = w.need("X"), w.need("Y1"), w.need("Y2")
    g = w.need("element", TableElement)
    case = vigor_case(x, y1, y2)
    checks = [
        (closed_support(g).issubset(x), "support inside X"),
        (image_clopen(g, y1).issubset(y2), "image of Y1 inside Y2"),
    ]
    if case == "b":
        checks.append((order(g, 4) == 3, "single-cycle case has order 3"))
    # Listed only when violated, so that the output of a well-formed witness
    # keeps its lines; a missing parameter is a mismatch.
    if "case" not in w.witness.params or w.param("case", str) != case:
        checks.append((False, "case parameter matches the sets"))
    return checks


def _conjugated(c: TableElement, h: TableElement, g: TableElement) -> bool:
    """Whether c = h g h^-1, that is c h = h g.

    That holds exactly when (c h)(h g)^-1 = c h g^-1 h^-1 is the identity,
    which its raw cells decide (see :func:`bht.element.identity_cells`): three
    ``compose_cells`` passes, and nothing is merged.
    """
    back = compose_cells(inverse_cells(g), inverse_cells(h))
    return identity_cells(compose_cells(c.cells, compose_cells(h.cells, back)))


def _check_conjugates(w: _Reading) -> list[Check]:
    g = w.need("element", TableElement)
    moved, image = w.need("moved"), w.need("image")
    count = w.param("count")
    if count < 1:
        raise ParseError("conjugates witness needs a positive 'count' parameter",
                         w.witness.param_lines["count"])
    conjugates = [w.need("conjugate%d" % i, TableElement) for i in range(1, count + 1)]
    conjugators = [w.need("conjugator%d" % i, TableElement) for i in range(1, count + 1)]
    targets = [w.need("target%d" % i) for i in range(1, count + 1)]
    inside = [image_clopen(c, moved).issubset(t) for c, t in zip(conjugates, targets)]
    checks = []
    for i in range(count):
        checks.append((_conjugated(conjugates[i], conjugators[i], g),
                       "conjugate %d equals h g h^-1" % (i + 1)))
        checks.append((inside[i], "conjugate %d maps the moved brick into its target" % (i + 1)))
    disjoint = all(
        targets[i].isdisjoint(targets[j])
        for i in range(count)
        for j in range(i + 1, count)
    )
    # two conjugates send a point of ``moved`` into disjoint targets, so they
    # differ; only when that argument fails are they compared
    distinct = (not moved.is_empty() and all(inside) and disjoint) or all(
        not equals(conjugates[i], conjugates[j])
        for i in range(count)
        for j in range(i + 1, count)
    )
    checks.append((distinct, "conjugates pairwise distinct"))
    checks.append((disjoint, "targets pairwise disjoint"))
    # Listed only when violated, as in _check_multisection: a witness built
    # by ``conjugate_family`` always meets it.
    if not same_set(image_clopen(g, moved), image):
        checks.append((False, "element maps the moved brick onto the image"))
    return checks


def _fixes_neighborhood(point, g: TableElement) -> bool:
    return not point_in(point, closed_support(g))


def _check_compressibility(w: _Reading) -> list[Check]:
    condition = w.param("condition")
    if condition == 1:
        g = w.need("element", TableElement)
        u = w.need("output")
        point = w.param("point", lambda text: parse_point(text, u.space))
        return [
            (closed_support(g).issubset(u), "support inside the subbase member"),
            (not point_in(point, u), "subbase member avoids the point"),
        ]
    if condition == 2:
        u1, u2 = w.need("U1"), w.need("U2")
        g = w.need("element", TableElement)
        point = w.param("point", lambda text: parse_point(text, u1.space))
        return [
            (image_clopen(g, u1).issubset(u2), "image of U1 inside U2"),
            (not point_in(point, u1) and not point_in(point, u2), "U1, U2 avoid the point"),
            (_fixes_neighborhood(point, g), "element fixes a neighborhood of the point"),
        ]
    if condition == 3:
        u1, u2, u3 = w.need("U1"), w.need("U2"), w.need("U3")
        g = w.need("element", TableElement)
        point = w.param("point", lambda text: parse_point(text, u1.space))
        checks = [
            (image_clopen(g, u1).isdisjoint(u3), "image of U1 misses U3"),
            (closed_support(g).isdisjoint(u2), "support misses U2"),
            (u1.isdisjoint(u2), "U1 and U2 disjoint"),
            (_fixes_neighborhood(point, g), "element fixes a neighborhood of the point"),
        ]
        # Listed only when violated, as in _check_multisection: a witness
        # built by ``compressibility_witness`` always meets it.
        if any(point_in(point, u) for u in (u1, u2, u3)):
            checks.append((False, "U1, U2, U3 avoid the point"))
        return checks
    raise ParseError("compressibility condition must be 1, 2 or 3", w.witness.param_lines["condition"])


def _check_embed(w: _Reading) -> list[Check]:
    x, y = w.need("X"), w.need("Y")
    s0, s1 = w.need("s0", PrefixBijection), w.need("s1", PrefixBijection)
    checks = [(x.issubset(y), "region contains the prescribed support")]
    checks += embedding_checks(y, s0, s1)
    if "velement" in w.witness.blocks:
        img = w.need("image", TableElement)
        v = w.need("velement", TableElement, binary_space())
        # the embedding exists only when the region checks above pass, and
        # then it is built without running them again
        matches = all(ok for ok, _ in checks) and equals(
            img, evaluate_embedding(VEmbedding._wrap(y, s0, s1), v))
        checks.append((matches, "image matches the evaluated element"))
        checks.append((closed_support(img).issubset(y), "image supported in the region"))
    return checks


_CHECKERS = {
    "compress": _check_compress,
    "double": _check_double,
    "between": _check_between,
    "multisection": _check_multisection,
    "vigor": _check_vigor,
    "conjugates": _check_conjugates,
    "compressibility": _check_compressibility,
    "embed": _check_embed,
}


def run_checks(w: Witness) -> list[Check]:
    """The checks of ``w``, in order.  A block or parameter that none of them
    reads is an error on its own line, the first in the file."""
    if w.kind not in _CHECKERS:
        raise ParseError("unknown witness kind %r" % w.kind, w.kind_line)
    reading = _Reading(w)
    checks = _CHECKERS[w.kind](reading)
    unread = [(w.param_lines.get(key), "parameter %r" % key) for key in w.params if key not in reading.params]
    unread += [(w.block_lines.get(name), "block %r" % name) for name in w.blocks if name not in reading.blocks]
    if unread:
        line, what = min(unread, key=lambda u: u[0] or 0)
        raise ParseError("witness %r does not read %s" % (w.kind, what), line)
    return checks
