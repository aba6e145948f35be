"""Property tests against point membership, the point action and all-pairs references."""

import contextlib
import io
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bht.abelian import AbelianGroup  # noqa: E402
from bht.cli import main  # noqa: E402
from bht.element import (  # noqa: E402
    PrefixBijection, TableElement, _check_disjoint, apply_point, canonicalize, compose,
    compose_partial, equals, identity, image_clopen, invert, invert_partial, is_identity,
)
from bht.errors import DomainError, ParseError  # noqa: E402
from bht.sampling import (  # noqa: E402
    random_clopen, random_element, random_partition, random_permutation_element, random_point,
)
from bht.space import (  # noqa: E402
    Brick, BrickIndex, Clopen, RationalPoint, SpaceSpec, _section_words, brick_subtract, canonical_bricks,
    compose_cells, h0_class, measures, merge_families, point_in, same_set, subdivide,
)
from bht.textio import (  # noqa: E402
    Witness, format_bisection, format_clopen, format_point, format_table, format_witness, parse_witness,
)
from bht.vembed import VEmbedding, binary_space, build_v_embedding, evaluate_embedding  # noqa: E402
from bht.verify import _conjugated, run_checks  # noqa: E402
from bht.witness import (  # noqa: E402
    bisection_between, brick_neighborhood, compress, compressibility_witness, conjugate_family,
    doubling_witness, multisection, vigor_case, vigor_witness,
)
from util import (  # noqa: E402
    B, V2, V3, V23, V2x2, clp, compose_cells_all_pairs, compressibility_claims, conjugate_blocks,
    conjugate_claims, cycle_claims, embed_claims, evaluate_embedding_validated, invariant_factors_by_primes,
    measure, merge_families_rounds, oracle_agree, refine, section_words_levels, set_claims, vpair_text,
    word_bisection,
)

SPACES = [V2, V3, V2x2, V23, SpaceSpec(1, (2,), 2)]
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# orders with 0 (infinite), 1 (dropped), repeats and shared primes
ORDERS = st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 8, 9, 12, 36]) | st.integers(0, 300), max_size=8)


@SETTINGS
@given(ORDERS, ORDERS, st.randoms(use_true_random=False))
def test_abelian_factors_match_primary_decomposition(a, b, rng):
    group, ref = AbelianGroup(a), invariant_factors_by_primes(a)
    assert group.factors == ref
    for same in (AbelianGroup(rng.sample(a, len(a)) + [1]), AbelianGroup(ref)):
        assert same == group and hash(same) == hash(group)
    assert (AbelianGroup(b) == group) == (invariant_factors_by_primes(b) == ref)


@st.composite
def bricks(draw, space):
    words = tuple(
        tuple(draw(st.lists(st.integers(0, k - 1), max_size=3))) for k in space.kbar
    )
    return Brick(draw(st.integers(0, space.r - 1)), words)


@st.composite
def space_and_bricks(draw):
    space = draw(st.sampled_from(SPACES))
    return space, draw(st.lists(bricks(space), max_size=6))


def elements(space, rng, count):
    return [random_element(space, rng, factors=2, splits=2) for _ in range(count)]


@SETTINGS
@given(space_and_bricks(), st.randoms(use_true_random=False))
def test_clopen_of_shuffled_overlapping_bricks(sb, rng):
    space, bs = sb
    # duplicates and overlaps, in any order, give one canonical set
    messy = bs + [b for b in bs if rng.random() < 0.5]
    messy += [b.child(0, 0) for b in bs if rng.random() < 0.5]
    rng.shuffle(messy)
    x = Clopen(space, messy)
    assert x == Clopen(space, bs)
    assert Clopen(space, x.bricks) == x
    y = Clopen(space, [b.child(space.n - 1, 0) for b in messy[:2]] + bs[2:4])
    for _ in range(10):
        p = random_point(space, rng, max_pre=4)
        inside = any(p.in_brick(b) for b in bs)
        assert point_in(p, x) == inside
        assert point_in(p, x.intersect(y)) == (inside and point_in(p, y))
        assert point_in(p, x.difference(y)) == (inside and not point_in(p, y))
        assert point_in(p, x.complement()) == (not inside)


@SETTINGS
@given(st.sampled_from(SPACES), st.randoms(use_true_random=False))
def test_compose_matches_point_action(space, rng):
    f, g = elements(space, rng, 2)
    fg, fine = compose(f, g), compose(refine(f, rng), refine(g, rng))
    assert equals(fg, fine)
    for _ in range(10):
        p = random_point(space, rng)
        assert apply_point(fg, p) == apply_point(f, apply_point(g, p)) == apply_point(fine, p)
        assert apply_point(invert(g), apply_point(g, p)) == p


@SETTINGS
@given(st.sampled_from(SPACES), st.randoms(use_true_random=False))
def test_equals_matches_point_action(space, rng):
    f, g = elements(space, rng, 2)
    g = rng.choice([g, refine(f, rng), compose(f, compose(g, invert(g)))])
    same = equals(f, g)
    assert same == equals(g, f) == oracle_agree(f, g)
    if same:
        for _ in range(10):
            p = random_point(space, rng)
            assert apply_point(f, p) == apply_point(g, p)


@SETTINGS
@given(space_and_bricks(), st.randoms(use_true_random=False))
def test_image_clopen_matches_point_action(sb, rng):
    space, bs = sb
    x = Clopen(space, bs)
    (g,) = elements(space, rng, 1)
    img = image_clopen(g, x)
    assert img == image_clopen(refine(g, rng), x)
    for _ in range(10):
        p = random_point(space, rng, max_pre=4)
        assert point_in(apply_point(g, p), img) == point_in(p, x)


@st.composite
def nested_bricks(draw, space, max_size):
    """Bricks with repeats, ancestors and descendants of one another."""
    out = draw(st.lists(bricks(space), min_size=1, max_size=max_size))
    for _ in range(draw(st.integers(0, max_size))):
        b = draw(st.sampled_from(out))
        j = draw(st.integers(0, space.n - 1))
        move = draw(st.sampled_from(["repeat", "child", "parent"]))
        if move == "child":
            b = b.child(j, draw(st.integers(0, space.kbar[j] - 1)))
        elif move == "parent":
            b = Brick(b.root, b.words[:j] + (b.words[j][:-1],) + b.words[j + 1:])
        out.append(b)
    return draw(st.permutations(out))


INDEX_SPACES = [SpaceSpec(n, (2, 3, 2)[:n], r) for n in (1, 2, 3) for r in (1, 2)]
# one dimension, where the kernels sweep sorted bricks; k = 3 and 5 give
# families of more than two cells
LINE_SPACES = [SpaceSpec(1, (k,), r) for k in (2, 3, 5) for r in (1, 2)]


# twice the examples, so that the spaces of two and three dimensions get as many as before
@settings(SETTINGS, max_examples=2 * SETTINGS.max_examples)
@given(st.sampled_from(INDEX_SPACES + LINE_SPACES).flatmap(
    lambda sp: st.tuples(nested_bricks(sp, 8), nested_bricks(sp, 8), nested_bricks(sp, 8))))
def test_compose_cells_matches_all_pairs(sides):
    f_sources, targets, g_sources = sides
    f = list(zip(f_sources, reversed(targets)))
    g = list(zip(g_sources, targets))
    assert Counter(compose_cells(f, g)) == Counter(compose_cells_all_pairs(f, g))


@SETTINGS
@given(st.sampled_from(INDEX_SPACES), st.randoms(use_true_random=False))
def test_compose_cells_of_exact_meets_match_all_pairs(space, rng):
    # every target of the raw inverse is a source of f, so every meet is exact
    f = random_permutation_element(space, rng, splits=rng.randint(0, 12))
    back = [(r, d) for d, r in f.cells]
    cells = Counter(compose_cells(f.cells, back))
    assert cells == Counter(compose_cells_all_pairs(f.cells, back))
    assert cells == Counter((r, r) for _, r in f.cells)


@SETTINGS
@given(st.sampled_from([sp for sp in INDEX_SPACES if sp.n > 1]), st.randoms(use_true_random=False))
def test_compose_cells_of_mixed_meets_match_all_pairs(space, rng):
    # g's targets split a partition along dimension 0 and f's sources split
    # it along a higher dimension j, so in every meet g's target is deeper in
    # dimension 0 and f's source in dimension j
    j = rng.randrange(1, space.n)
    parts = random_partition(space, rng, splits=rng.randint(0, 6))
    targets = [c for b in parts for c in subdivide(space, b, 0)]
    sources = [c for b in parts for c in subdivide(space, b, j)]
    g = list(zip(rng.sample(targets, len(targets)), targets))
    f = list(zip(sources, rng.sample(sources, len(sources))))
    cells = Counter(compose_cells(f, g))
    assert cells == Counter(compose_cells_all_pairs(f, g))
    assert sum(cells.values()) == len(parts) * space.kbar[0] * space.kbar[j]


def crossed_families(space, rng, parts):
    """``parts`` with one brick b replaced by a piece of b where a family along
    dimension 0 and one along a higher dimension j need the same cell.

    The first dimension-0 child of b keeps only the j-children of its t-th
    j-child; the other dimension-0 children are split once along j.  Merging
    the family of those grandchildren completes a dimension-0 family that
    takes one cell from the j-family of every other dimension-0 child, so
    the merge order decides the result.
    """
    i, j = rng.randrange(len(parts)), rng.randrange(1, space.n)
    t = rng.randrange(space.kbar[j])
    piece = []
    for a, child in enumerate(subdivide(space, parts[i], 0)):
        kids = subdivide(space, child, j)
        piece += subdivide(space, kids[t], j) if a == 0 else kids
    return parts[:i] + piece + parts[i + 1:]


def double_completion(space, rng, parts):
    """``parts`` as identity cells, with one brick P replaced by cells where
    a merge along a dimension h >= 1 makes a cell C that completes a
    dimension-0 family and a dimension-j family (j >= 1) at once.

    P is cut along dimension 0 and then along j.  C, one of the pieces,
    comes as its children along h; the pieces in C's row or column (its
    siblings in the two families) are whole identity cells; every other
    piece is cut along a random dimension and its children rotated, so that
    no other family of P's pieces completes.  The rule merges C's
    dimension-0 family; a kernel that merged the family queued last would
    take the dimension-j one.
    """
    i, j, h = rng.randrange(len(parts)), rng.randrange(1, space.n), rng.randrange(1, space.n)
    a, b = rng.randrange(space.kbar[0]), rng.randrange(space.kbar[j])
    cells = [(q, q) for q in parts[:i] + parts[i + 1:]]
    for x, row in enumerate(subdivide(space, parts[i], 0)):
        for y, piece in enumerate(subdivide(space, row, j)):
            if (x, y) == (a, b):
                cells += [(q, q) for q in subdivide(space, piece, h)]
            elif x == a or y == b:
                cells.append((piece, piece))
            else:
                kids = subdivide(space, piece, rng.randrange(space.n))
                cells += zip(kids, kids[1:] + kids[:1])
    return cells


@st.composite
def raw_composites(draw):
    """A space and the unmerged cells of a composite, as compose and image_clopen
    make them, in any order."""
    space = draw(st.sampled_from(INDEX_SPACES + LINE_SPACES))
    rng = draw(st.randoms(use_true_random=False))
    f = random_permutation_element(space, rng, splits=rng.randint(0, 12))
    g = rng.choice([random_permutation_element(space, rng, splits=rng.randint(0, 12)),
                    random_element(space, rng, factors=2, splits=3)])
    x = Clopen(space, draw(nested_bricks(space, 6)))
    choices = [
        list(compose_cells(f.cells, g.cells)),
        # (f g) g^-1, which merges back to f
        list(compose_cells(compose(f, g).cells, [(r, d) for d, r in g.cells])),
        # f after f^-1: a partition of identity cells that merges back to the roots
        list(compose_cells(f.cells, [(r, d) for d, r in f.cells])),
        list(compose_cells(g.cells, [(b, b) for b in x.bricks])),
        list(compose_cells(refine(g, rng).cells, [(r, d) for d, r in g.cells])),
    ]
    if space.n > 1:
        crossed = crossed_families(space, rng, random_partition(space, rng, splits=rng.randint(0, 8)))
        choices += [[(b, b) for b in crossed], list(compose_cells(f.cells, [(b, b) for b in crossed]))]
    cells = rng.choice(choices)
    rng.shuffle(cells)
    return space, cells


@st.composite
def double_completions(draw):
    """A space of two or more dimensions and the cells of
    :func:`double_completion`, in any order."""
    space = draw(st.sampled_from([sp for sp in INDEX_SPACES if sp.n > 1]))
    rng = draw(st.randoms(use_true_random=False))
    cells = double_completion(space, rng, random_partition(space, rng, splits=rng.randint(0, 8)))
    rng.shuffle(cells)
    return space, cells


# four times the examples, half of them double completions, so that the
# spaces of two and three dimensions get as many raw composites as before
@settings(SETTINGS, max_examples=4 * SETTINGS.max_examples)
@given(st.one_of(raw_composites(), double_completions()))
# merging 10,0 and 11,0, then 1,10 and 1,11, leaves 1,1 in two complete
# families, with 0,1 along dimension 0 and with 1,0 along dimension 1; the
# rule takes dimension 0 first (e,1 and 1,0), where merging each dimension-1
# family as soon as it forms would give 0,1 and 1,e
@example((V2x2, [tuple(B(0, *side.split(",")) for side in cell.split(" -> ")) for cell in (
    "0,00 -> 0,01", "0,01 -> 0,00", "0,1 -> 0,1", "1,10 -> 1,10", "1,11 -> 1,11", "10,0 -> 10,0", "11,0 -> 11,0")]))
def test_merge_families_matches_rounds(composite):
    space, cells = composite
    assert merge_families(space, cells) == merge_families_rounds(space, cells)


@st.composite
def line_bricks(draw):
    """A one-dimensional space and nested, repeated bricks over its roots,
    some of them cut into all their children or grandchildren."""
    space = draw(st.sampled_from(LINE_SPACES))
    out = []
    for b in draw(nested_bricks(space, 8)):
        parts = [b]
        for _ in range(draw(st.integers(0, 2))):
            parts = [c for p in parts for c in subdivide(space, p, 0)]
        out += parts
    return space, draw(st.permutations(out))


@SETTINGS
@given(line_bricks())
def test_one_dimensional_canonical_bricks_match_section_tree(sb):
    space, bs = sb
    tree = [Brick(root, words) for root in range(space.r)
            for words in section_words_levels(space, 0, [b.words for b in bs if b.root == root])]
    assert canonical_bricks(space, bs) == tuple(sorted(tree))


@SETTINGS
@given(st.sampled_from([V2, V3, SpaceSpec(1, (2,), 2), SpaceSpec(1, (3,), 2)]).flatmap(
    lambda sp: st.tuples(st.just(sp), nested_bricks(sp, 8))))
def test_one_dimensional_sections_have_no_families(sb):
    space, bs = sb
    cells = [
        (b, b)
        for root in range(space.r)
        for b in (Brick(root, words) for words in _section_words(
            space, 0, [c.words for c in bs if c.root == root]))
    ]
    assert merge_families(space, cells) == sorted(cells)


@st.composite
def section_boxes(draw):
    """Word boxes with repeats and nesting; or one box; or with the box that
    covers everything; or with the complete family of children of a box; or,
    in two or three dimensions, one box and a second whose dim-0 word extends
    the first's by 20 to 60 letters and whose other words are drawn afresh,
    so that a long path of inner nodes runs below a covering box."""
    shape = draw(st.sampled_from(["nested", "one", "full", "family", "deep"]))
    space = draw(st.sampled_from([sp for sp in INDEX_SPACES if sp.n > 1 or shape != "deep"]))
    boxes = [b.words for b in draw(nested_bricks(space, 8))]
    if shape == "one":
        boxes = boxes[:1]
    elif shape == "full":
        boxes.insert(draw(st.integers(0, len(boxes))), ((),) * space.n)
    elif shape == "family":
        j = draw(st.integers(0, space.n - 1))
        b = Brick(0, draw(st.sampled_from(boxes)))
        boxes += [c.words for c in subdivide(space, b, j)]
    elif shape == "deep":
        b = draw(st.sampled_from(boxes))
        tail = draw(st.lists(st.integers(0, space.kbar[0] - 1), min_size=20, max_size=60))
        boxes = [b, (b[0] + tuple(tail),) + draw(bricks(space)).words[1:]]
    return space, boxes


@SETTINGS
@given(section_boxes())
def test_section_words_matches_levels(sb):
    space, boxes = sb
    assert _section_words(space, 0, boxes) == section_words_levels(space, 0, boxes)


@st.composite
def brick_pairs(draw):
    """A space and two bricks; the second is drawn alone or cut from the first
    by shortening and lengthening its words, so that most pairs meet."""
    space = draw(st.sampled_from(INDEX_SPACES))
    b = draw(bricks(space))
    if draw(st.booleans()):
        return space, b, draw(bricks(space))
    words = tuple(w[:draw(st.integers(0, len(w)))] + tuple(draw(st.lists(st.integers(0, k - 1), max_size=2)))
                  for w, k in zip(b.words, space.kbar))
    return space, b, Brick(b.root, words)


@SETTINGS
@given(brick_pairs(), st.randoms(use_true_random=False))
def test_brick_meet_and_subtract_match_points(pair, rng):
    # a word tuple one letter deeper than both bricks lies wholly inside or
    # wholly outside each brick here, so it stands for the points that
    # start with it
    space, b, c = pair
    meet, pieces = b.intersect(c), brick_subtract(space, b, c)
    lengths = [max(len(v), len(w)) + 1 for v, w in zip(b.words, c.words)]

    def inside(t, x):
        return t[0] == x.root and all(u[:len(w)] == w for u, w in zip(t[1], x.words))

    for i in range(40):
        # half of the tuples start with b's words
        start = b if i % 2 else Brick(rng.randrange(space.r), ((),) * space.n)
        t = (start.root, tuple(w + tuple(rng.randrange(k) for _ in range(m - len(w)))
                               for w, k, m in zip(start.words, space.kbar, lengths)))
        assert (inside(t, b) and inside(t, c)) == (meet is not None and inside(t, meet))
        assert not any(inside(t, p) and inside(t, c) for p in pieces)
        # b is the disjoint union of the pieces and the meet
        count = sum(inside(t, p) for p in pieces) + (meet is not None and inside(t, meet))
        assert count == inside(t, b)


def near(draw, space, b):
    """A brick whose words are b's, a prefix or an extension of b's, or
    random, dimension by dimension."""
    words = []
    for w, k in zip(b.words, space.kbar):
        move = draw(st.sampled_from(["same", "prefix", "extension", "random"]))
        if move == "prefix":
            w = w[:draw(st.integers(0, len(w)))]
        elif move == "extension":
            w += tuple(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2)))
        elif move == "random":
            w = tuple(draw(st.lists(st.integers(0, k - 1), max_size=3)))
        words.append(w)
    return Brick(b.root, tuple(words))


@st.composite
def leaf_cases(draw, space):
    """A spine brick, twice, and beside it a run of one brick at each
    dimension, which the index keeps as a leaf: at dimension 0 the only
    brick of its root (when there are two roots), and at dimension j >= 1
    the only brick with the spine's root and words before j - 1 and its own
    word at j - 1 (a prefix, an extension or a random other word).  The
    brick that leaves the spine in the last dimension shares its last level
    instead.  The queries land on each of them."""
    spine = draw(bricks(space))
    indexed = [spine, spine]
    if space.r > 1:
        lone = draw(bricks(space))
        indexed.append(Brick(1 - spine.root, lone.words))
    for j in range(1, space.n + 1):
        b, w = draw(bricks(space)), spine.words[j - 1]
        k = space.kbar[j - 1]
        move = draw(st.sampled_from(["prefix", "extension", "random"]))
        if move == "prefix" and w:
            v = w[:draw(st.integers(0, len(w) - 1))]
        elif move == "extension":
            v = w + tuple(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2)))
        else:
            v = tuple(draw(st.lists(st.integers(0, k - 1), max_size=3)))
            if v == w:
                v += (0,)
        indexed.append(Brick(spine.root, spine.words[:j - 1] + (v,) + b.words[j:]))
    queries = [near(draw, space, b) for b in indexed for _ in range(3)]
    return draw(st.permutations(indexed)), queries


@st.composite
def index_cases(draw, space):
    """Bricks to index and queries.  Either nested bricks with random queries,
    or the runs of one brick of :func:`leaf_cases`, or a chain: dimension-0
    words e, 0, 00, ..., 0^d, each with one or two random higher words, some
    repeats, and queries that leave the chain at every depth and run past
    its end, so a query's predecessor in dimension 0 is a long word that is
    no prefix of it."""
    queries = draw(st.lists(bricks(space), max_size=6))
    shape = draw(st.sampled_from(["nested", "leaves", "chain"]))
    if shape == "nested":
        return draw(nested_bricks(space, 10)), queries
    if shape == "leaves":
        indexed, near_queries = draw(leaf_cases(space))
        return indexed, queries + near_queries
    d = draw(st.integers(0, 40))
    indexed = []
    for i in range(d + 1):
        for _ in range(draw(st.integers(1, 2))):
            b = draw(bricks(space))
            indexed.append(Brick(b.root, ((0,) * i,) + b.words[1:]))
    indexed += draw(st.lists(st.sampled_from(indexed), max_size=4))
    for i in range(d + 3):
        b = draw(bricks(space))
        queries.append(Brick(b.root, ((0,) * i + (1,),) + b.words[1:]))
    return indexed, queries


# half as many examples again, one third of them leaves, so that the nested
# and chain shapes get as many as before
@settings(SETTINGS, max_examples=3 * SETTINGS.max_examples // 2)
@given(st.sampled_from(INDEX_SPACES).flatmap(index_cases))
def test_brick_index_meeting_matches_brute_force(case):
    # b.intersect(q) is checked against points in
    # test_brick_meet_and_subtract_match_points
    indexed, queries = case
    indexed.sort()
    index = BrickIndex(indexed)
    for q in queries + indexed:
        assert index.meeting(q) == [i for i, b in enumerate(indexed) if b.intersect(q) is not None]


@SETTINGS
@given(st.sampled_from(INDEX_SPACES).flatmap(
    lambda sp: st.tuples(st.just(sp), nested_bricks(sp, 6), nested_bricks(sp, 6))))
def test_isdisjoint_matches_intersect(sides):
    space, left, right = sides
    x, y = Clopen(space, left), Clopen(space, right + left[:1])
    for u, v in ((x, y), (y, x), (x, x), (x, x.complement()), (x, Clopen(space, right))):
        assert u.isdisjoint(v) == u.intersect(v).is_empty()


def _point_of(space, b: Brick, rng) -> RationalPoint:
    """A point of the brick b."""
    return RationalPoint(space, b.root, [(w + (rng.randrange(k),), (rng.randrange(k),))
                                         for w, k in zip(b.words, space.kbar)])


def _split_form(x: Clopen, rng) -> Clopen:
    """x with each brick cut into its children along a random dimension: the
    same set, in a form that is not canonical."""
    bricks = [c for b in x.bricks for c in subdivide(x.space, b, rng.randrange(x.space.n))]
    out = object.__new__(Clopen)
    object.__setattr__(out, "space", x.space)
    object.__setattr__(out, "bricks", tuple(sorted(bricks)))
    return out


@SETTINGS
@given(st.sampled_from(INDEX_SPACES), st.randoms(use_true_random=False))
def test_issubset_and_same_set_match_difference_and_points(space, rng):
    a, b = (random_clopen(space, rng, splits=rng.randint(0, 6)) for _ in range(2))
    for x, y in ((a, b), (b, a), (a, a.union(b)), (a.intersect(b), b), (a, a), (a, a.complement())):
        rest = x.difference(y)
        assert x.issubset(y) == rest.is_empty()
        # a point of each brick of x lies in y when x is a subset, and a point
        # of each brick of x \ y lies in x and not in y
        assert not x.issubset(y) or all(point_in(_point_of(space, c, rng), y) for c in x.bricks)
        outside = [_point_of(space, c, rng) for c in rest.bricks]
        assert all(point_in(p, x) and not point_in(p, y) for p in outside)
        assert same_set(x, y) == (x == y)
        # the measure needs no canonical form
        split = _split_form(x, rng)
        assert same_set(split, x) and same_set(x, split)
        assert split.issubset(y) == x.issubset(y) and y.issubset(split) == y.issubset(x)
        assert same_set(split, y) == (x == y)


def _pairwise_overlap(bricks):
    for i, b in enumerate(bricks):
        for b2 in bricks[i + 1:]:
            if b.intersect(b2) is not None:
                return "source bricks overlap: %r, %r" % (b, b2)
    return None


@st.composite
def partition_with_overlap(draw):
    """Some bricks of a partition of a 1D or 2D space, then a repeat, nested or
    (in 2D) crossing brick."""
    space = draw(st.sampled_from([V2x2, V23, SpaceSpec(2, (2, 2), 2)] + LINE_SPACES))
    rng = draw(st.randoms(use_true_random=False))
    bs = [b for b in random_partition(space, rng, splits=draw(st.integers(0, 8))) if rng.random() < 0.8]
    moves = ["repeat", "child", "parent"] + (["cross"] if space.n == 2 else [])
    for _ in range(draw(st.integers(0, 2))):
        if not bs:
            break
        b = rng.choice(bs)
        move = draw(st.sampled_from(moves))
        if move == "repeat":
            bs.append(b)
        elif move == "child":
            bs.append(b.child(rng.randrange(space.n), 0))
        elif move == "parent":
            bs.append(Brick(b.root, (b.words[0][:-1],) + b.words[1:]))
        else:
            # shorter in dimension 0, longer in 1: meets b, and contains or
            # lies in b only when u is empty
            u, v = b.words
            bs.append(Brick(b.root, (u[:-1], v + (rng.randrange(space.kbar[1]),))))
    rng.shuffle(bs)
    return sorted(bs) if draw(st.booleans()) else bs


# three times the examples, so that the two-dimensional spaces get as many as before
@settings(SETTINGS, max_examples=3 * SETTINGS.max_examples)
@given(partition_with_overlap())
def test_check_disjoint_names_the_pairwise_overlap(bs):
    try:
        _check_disjoint("source", bs)
        got = None
    except DomainError as err:
        got = str(err)
    assert got == _pairwise_overlap(bs)


@SETTINGS
@given(st.sampled_from(INDEX_SPACES + [V23]), st.randoms(use_true_random=False))
def test_covers_matches_measure(space, rng):
    # lists of unequal depths, weighed on one scale, each in proportion to its
    # volume: the roots weigh space.r volumes
    parts = random_partition(space, rng, splits=rng.randint(0, 8))
    kept = [b for b in parts if rng.random() < 0.8]
    other = random_partition(space, rng, splits=rng.randint(0, 8))
    roots = [space.root_brick(i) for i in range(space.r)]
    whole, *sizes = measures(space, roots, kept, other, [])
    assert [Fraction(m * space.r, whole) for m in sizes] == [measure(space, b) for b in (kept, other, [])]
    # one brick shrunk to its first child, on either side of a table
    shrunk = [parts[0].child(0, 0)] + parts[1:]
    for cells, side in ((zip(shrunk, parts), "source"), (zip(parts, shrunk), "target")):
        with pytest.raises(DomainError, match="^%s bricks do not cover the space$" % side):
            TableElement(space, cells)


@SETTINGS
@given(st.sampled_from(SPACES), st.randoms(use_true_random=False), st.data())
def test_witness_lines_ignore_blank_and_comment_lines(space, rng, data):
    g = random_element(space, rng, factors=2, splits=2)
    blocks = {"X": random_clopen(space, rng, splits=3), "element": g,
              "part": PrefixBijection(space, g.cells[: len(g.cells) // 2 + 1])}
    lines = format_witness(Witness("kind", params={"count": "3", "note": "two words"},
                                   blocks=blocks)).splitlines()
    pads = data.draw(st.lists(st.tuples(
        st.integers(0, len(lines)), st.sampled_from(["", "  ", "\t", "# note", "  # begin X", "#end"])),
        max_size=8))
    # shift[i]: lines inserted before line i of the formatted text
    shift = [sum(at <= i for at, _ in pads) for i in range(len(lines))]

    def pad(lines):
        out = []
        for i, line in enumerate(lines + [None]):
            out += [text for at, text in pads if at == i]
            if line is not None:
                out.append(line)
        return "\n".join(out) + "\n"

    back, padded = parse_witness("\n".join(lines) + "\n"), parse_witness(pad(lines))
    assert (padded.kind, padded.params, padded.blocks) == (back.kind, back.params, back.blocks)
    assert padded.param_lines == {key: no + shift[no - 1] for key, no in back.param_lines.items()}
    i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith("root:")]))
    corrupted = lines[:i] + [lines[i].replace("root:", "root:?", 1)] + lines[i + 1:]
    errors = []
    for text in ("\n".join(corrupted) + "\n", pad(corrupted)):
        with pytest.raises(ParseError) as err:
            parse_witness(text)
        errors.append(err.value)
    assert [e.line for e in errors] == [i + 1, i + 1 + shift[i]]
    assert str(errors[0]).split(": ", 1)[1] == str(errors[1]).split(": ", 1)[1]


# the derived objects take many random draws: seed a generator instead of
# drawing each from Hypothesis
SEEDS = st.integers(0, 2 ** 32 - 1)


def derived_objects(space, rng) -> list:
    """Bisections, tables and clopens the library derives from validated inputs."""
    f, g = elements(space, rng, 2)
    x = random_clopen(space, rng, splits=3, nonempty=True, proper=True)
    y = random_clopen(space, rng, splits=3, nonempty=True)
    squeezed = compress(x, y)
    out = [identity(space), compose(f, g), invert(f), canonicalize(refine(f, rng)),
           compose_partial(f, g), invert_partial(g), squeezed, *doubling_witness(x),
           bisection_between(space.empty(), space.empty()),
           # the image of a compression has the class of its source
           bisection_between(x, squeezed.image), bisection_between(squeezed.image, x)]
    parts = random_partition(space, rng, splits=4)
    while len(parts) < 3:
        parts = random_partition(space, rng, splits=4)
    out.append(multisection(*(Clopen(space, [b]) for b in rng.sample(parts, 3))).element)
    kids = subdivide(space, x.bricks[0], 0)
    y1 = Clopen(space, kids[:1])
    y2s = {"a": x, "b": Clopen(space, kids[1:2]), "c": Clopen(space, [kids[0].child(0, 0)])}
    for case, y2 in y2s.items():
        assert vigor_case(x, y1, y2) == case
        out.append(vigor_witness(x, y1, y2))
    clopens = [space.empty()]
    if not is_identity(f):
        family = conjugate_family(f, 2)
        out += [family.base, *family.conjugators, *family.conjugates]
        clopens += [family.moved, family.image, *family.targets]
    x0 = random_point(space, rng)
    away = compressibility_witness(x0, 1, identity(space))
    clopens.append(away)
    u1, u3 = (random_clopen(space, rng, splits=3).intersect(away) for _ in range(2))
    u2 = random_clopen(space, rng, splits=3, nonempty=True).intersect(away)
    if not u2.is_empty():
        out.append(compressibility_witness(x0, 2, u1, u2))
    out.append(compressibility_witness(x0, 3, u1, away.difference(u1).difference(u3), u3))
    emb = build_v_embedding(x)
    out += [emb.s0, emb.s1, word_bisection(emb, ()), word_bisection(emb, (1, 0, 1))]
    out.append(evaluate_embedding(emb, random_element(binary_space(), rng, factors=2, splits=3)))
    clopens += [emb.region] + [b.source for b in out] + [b.image for b in out]
    return out + clopens


@SETTINGS
@given(st.sampled_from(INDEX_SPACES), SEEDS)
def test_derived_objects_pass_their_validating_constructors(space, seed):
    # they are wrapped without checks, so check them here: cells and bricks
    # in range, sources and targets disjoint, tables covering, and canonical
    for obj in derived_objects(space, random.Random(seed)):
        if isinstance(obj, Clopen):
            assert Clopen(space, obj.bricks) == obj
        else:
            assert type(obj)(space, obj.cells).cells == obj.cells


@SETTINGS
@given(st.sampled_from(INDEX_SPACES), SEEDS)
def test_evaluate_embedding_matches_validated_path(space, seed):
    rng = random.Random(seed)
    emb = build_v_embedding(random_clopen(space, rng, splits=3, nonempty=True, proper=True))
    # built unchecked, so the checking constructor must accept its parts
    VEmbedding(emb.region, emb.s0, emb.s1)
    for _ in range(3):
        v = random_element(binary_space(), rng, factors=2, splits=3)
        assert evaluate_embedding(emb, v) == evaluate_embedding_validated(emb, v)


EMBED_SPACES = [V2, V3, V2x2, V23, SpaceSpec(1, (2,), 2)]


@SETTINGS
@given(st.sampled_from(EMBED_SPACES), SEEDS,
       st.sampled_from([None, None, None, "other image", "s1 = s0", "Y grows"]))
def test_verify_embed_agrees_with_independent_checker(tmp_path_factory, space, seed, mutation):
    rng = random.Random(seed)
    x = random_clopen(space, rng, splits=2, nonempty=True, proper=True)
    v = random_element(binary_space(), rng, factors=2, splits=2)
    tmp = tmp_path_factory.mktemp("embed")
    (tmp / "x.clp").write_text(format_clopen(x))
    (tmp / "v.vpair").write_text(vpair_text(v))
    arg = ",".join(map(str, (space.n,) + space.kbar + (space.r,)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["embed-v", "--space", arg, "--support", str(tmp / "x.clp"), str(tmp / "v.vpair")]) == 0
    w = parse_witness(out.getvalue())
    emb = build_v_embedding(x)
    if mutation == "other image":
        w.blocks["image"] = evaluate_embedding(emb, random_element(binary_space(), rng, factors=2, splits=2))
    elif mutation == "s1 = s0":
        w.blocks["s1"] = w.blocks["s0"]
    elif mutation == "Y grows":
        y = w.blocks["Y"]
        w.blocks["Y"] = y.union(Clopen(space, y.complement().bricks[:1]))
    claims = embed_claims(w.blocks)
    assert run_checks(w) == claims
    # another V element may still have the same image
    genuine = mutation is None or (
        mutation == "other image" and equals(w.blocks["image"], evaluate_embedding(emb, v)))
    assert all(ok for ok, _ in claims) == genuine


def set_witness(kind, space, rng) -> dict:
    """The blocks of a ``compress``, ``double`` or ``between`` witness of random inputs."""
    x = random_clopen(space, rng, splits=2, nonempty=True, proper=True)
    if kind == "double":
        b1, b2 = doubling_witness(x)
        return {"X": x, "output1": b1, "output2": b2}
    b = random_clopen(space, rng, splits=2, nonempty=True, proper=True)
    if kind == "compress":
        return {"A": x, "B": b, "output": compress(x, b)}
    while h0_class(b) != h0_class(x):
        b = random_clopen(space, rng, splits=2, nonempty=True, proper=True)
    return {"A": x, "B": b, "output": bisection_between(x, b)}


def siblings(space, b):
    """The bricks that differ from b only in the last letter of one word."""
    return [Brick(b.root, b.words[:j] + (w[:-1] + (a,),) + b.words[j + 1:])
            for j, w in enumerate(b.words) if w
            for a in range(space.kbar[j]) if a != w[-1]]


def mutate_set_witness(space, blocks, mutation, rng):
    name = rng.choice([n for n in blocks if n.startswith("output")])
    cells = list(blocks[name].cells)
    targets = [r for _, r in cells]
    swaps = [(i, s) for i, (_, r) in enumerate(cells) for s in siblings(space, r)
             if all(s.intersect(t) is None for t in targets)]
    if mutation == "grow B":
        big = "X" if "X" in blocks else "B"
        blocks[big] = blocks[big].union(Clopen(space, blocks[big].complement().bricks[:1]))
    elif mutation == "swap a target" and swaps:
        i, s = rng.choice(swaps)
        blocks[name] = PrefixBijection(space, cells[:i] + [(cells[i][0], s)] + cells[i + 1:])
    elif mutation is not None:
        # drop a cell; also when no sibling of a target misses the other targets
        del cells[rng.randrange(len(cells))]
        blocks[name] = PrefixBijection(space, cells)


@pytest.mark.parametrize("kind", ["compress", "double", "between"])
@SETTINGS
@given(st.sampled_from(EMBED_SPACES), SEEDS,
       st.sampled_from([None, None, None, "drop a cell", "swap a target", "grow B"]))
def test_verify_set_kinds_agree_with_independent_checker(kind, space, seed, mutation):
    rng = random.Random(seed)
    blocks = set_witness(kind, space, rng)
    mutate_set_witness(space, blocks, mutation, rng)
    w = parse_witness(format_witness(Witness(kind, blocks=blocks)))
    claims = set_claims(kind, w.blocks)
    assert run_checks(w) == claims
    assert mutation is not None or all(ok for ok, _ in claims)


def cycle_witness(kind, space, rng) -> tuple[dict, dict]:
    """The blocks and parameters of a ``multisection`` or ``vigor`` witness of random inputs."""
    if kind == "multisection":
        parts = random_partition(space, rng, splits=4)
        rng.shuffle(parts)
        # equal brick counts give equal classes
        size = rng.randint(1, len(parts) // 3)
        xs = [Clopen(space, parts[i * size:(i + 1) * size]) for i in range(3)]
        return dict(zip(("X0", "X1", "X2"), xs), element=multisection(*xs).element), {}
    while True:
        x = random_clopen(space, rng, splits=2, nonempty=True, proper=True)
        y1 = random_clopen(space, rng, splits=2).intersect(x)
        y2 = random_clopen(space, rng, splits=2, nonempty=True).intersect(x)
        case = vigor_case(x, y1, y2)
        if not y2.is_empty() and not (case == "c" and y1 == x):
            return {"X": x, "Y1": y1, "Y2": y2, "element": vigor_witness(x, y1, y2)}, {"case": case}


def mutate_cycle_witness(space, blocks, params, mutation, rng):
    first, second, grown = ("X1", "X2", "X0") if "X0" in blocks else ("Y1", "Y2", "Y1")
    if mutation == "swap two sets":
        blocks[first], blocks[second] = blocks[second], blocks[first]
    elif mutation == "grow a set":
        blocks[grown] = blocks[grown].union(Clopen(space, blocks[grown].complement().bricks[:1]))
    elif mutation == "other element":
        blocks["element"] = random_element(space, rng, factors=2, splits=2)
    elif mutation == "other case":
        params["case"] = rng.choice([c for c in "abc" if c != params["case"]])


CYCLE_MUTATIONS = {"multisection": ["swap two sets", "grow a set", "other element"],
                   "vigor": ["swap two sets", "grow a set", "other element", "other case"]}


@pytest.mark.parametrize("kind", ["multisection", "vigor"])
@SETTINGS
@given(st.sampled_from(EMBED_SPACES), SEEDS, st.data())
def test_verify_cycle_kinds_agree_with_independent_checker(kind, space, seed, data):
    mutations = CYCLE_MUTATIONS[kind]
    mutation = data.draw(st.sampled_from([None] * len(mutations) + mutations))
    rng = random.Random(seed)
    blocks, params = cycle_witness(kind, space, rng)
    mutate_cycle_witness(space, blocks, params, mutation, rng)
    w = parse_witness(format_witness(Witness(kind, params=params, blocks=blocks)))
    claims = cycle_claims(kind, w.blocks, w.params)
    assert run_checks(w) == claims
    assert mutation is not None or all(ok for ok, _ in claims)


CONJUGATE_MUTATIONS = ["other conjugate", "other conjugator", "repeat a conjugate", "grow a target",
                       "other target", "other image"]


@SETTINGS
@given(st.sampled_from(EMBED_SPACES), SEEDS,
       st.sampled_from([None] * len(CONJUGATE_MUTATIONS) + CONJUGATE_MUTATIONS))
def test_verify_conjugates_agrees_with_independent_checker(space, seed, mutation):
    rng = random.Random(seed)
    g = identity(space)
    while is_identity(g):
        g = random_element(space, rng, factors=2, splits=2)
    count = rng.randint(2, 3)
    blocks = conjugate_blocks(conjugate_family(g, count))
    i, j = rng.sample(range(1, count + 1), 2)
    if mutation == "other conjugate":
        blocks["conjugate%d" % i] = random_element(space, rng, factors=2, splits=2)
    elif mutation == "other conjugator":
        blocks["conjugator%d" % i] = random_element(space, rng, factors=2, splits=2)
    elif mutation == "repeat a conjugate":
        blocks["conjugate%d" % i] = blocks["conjugate%d" % j]
    elif mutation == "grow a target":
        blocks["target%d" % i] = blocks["target%d" % i].union(blocks["target%d" % j])
    elif mutation == "other target":
        blocks["target%d" % i] = random_clopen(space, rng, splits=2)
    elif mutation == "other image":
        blocks["image"] = random_clopen(space, rng, splits=2)
    w = parse_witness(format_witness(Witness("conjugates", params={"count": str(count)}, blocks=blocks)))
    claims = conjugate_claims(w.blocks, w.params)
    assert run_checks(w) == claims
    assert mutation is not None or all(ok for ok, _ in claims)


def nontrivial_element(space, rng):
    g = identity(space)
    while is_identity(g):
        g = random_element(space, rng, factors=2, splits=2)
    return g


@SETTINGS
@given(st.sampled_from(INDEX_SPACES), SEEDS)
def test_raw_cell_conjugacy_matches_equals(space, seed):
    # verify decides c = h g h^-1 on the raw cells of c h g^-1 h^-1; it must
    # answer as equals on the canonical products c h and h g, on a family's
    # own triples and on mutated ones
    rng = random.Random(seed)
    fam = conjugate_family(nontrivial_element(space, rng), 3)
    stranger = conjugate_family(nontrivial_element(space, rng), 1)
    g, c, h = fam.base, fam.conjugates, fam.conjugators
    # one cell of c[0] re-pointed to the target of another, which takes its target
    cells = list(c[0].cells)
    i, j = rng.sample(range(len(cells)), 2)
    (di, ri), (dj, rj) = cells[i], cells[j]
    cells[i], cells[j] = (di, rj), (dj, ri)
    repointed = TableElement(space, cells)
    triples = [(c[0], h[0], True), (c[1], h[1], True), (c[2], h[2], True),
               # two conjugates swapped: distinct conjugates, so no match
               (c[1], h[0], False), (c[0], h[1], False),
               # a conjugator from another family
               (c[0], stranger.conjugators[0], None),
               (repointed, h[0], False)]
    for ci, hi, expected in triples:
        got = _conjugated(ci, hi, g)
        assert got == equals(compose(ci, hi), compose(hi, g))
        assert expected is None or got == expected


@SETTINGS
@given(st.sampled_from(INDEX_SPACES), SEEDS)
def test_witness_text_is_its_blocks_written_one_by_one(space, seed):
    # format_witness writes each distinct brick once for all the blocks of a
    # file and parse_witness reads each distinct side once: the file must be
    # the blocks written one at a time, and must read back to equal blocks
    rng = random.Random(seed)
    blocks = conjugate_blocks(conjugate_family(nontrivial_element(space, rng), 3))
    cells = blocks["conjugator1"].cells
    blocks["part"] = PrefixBijection(space, cells[:len(cells) // 2 + 1])
    writers = {Clopen: format_clopen, TableElement: format_table, PrefixBijection: format_bisection}
    text = format_witness(Witness("conjugates", params={"count": "3"}, blocks=blocks))
    assert text == "witness conjugates\ncount 3\n" + "".join(
        "begin %s\n%send\n" % (name, writers[type(obj)](obj)) for name, obj in blocks.items())
    assert parse_witness(text).blocks == blocks


def compressibility_blocks(condition, space, rng) -> tuple[dict, dict]:
    """The blocks and parameters of a ``compressibility`` witness of random inputs."""
    while True:
        x0 = random_point(space, rng)
        away = brick_neighborhood(x0, rng.randint(1, 3)).complement()
        u1 = random_clopen(space, rng, splits=3).intersect(away)
        u2 = random_clopen(space, rng, splits=3, nonempty=True).intersect(away)
        if not u2.is_empty():
            break
    params = {"condition": str(condition), "point": format_point(x0)}
    if condition == 1:
        g = compressibility_witness(x0, 2, u1, u2)
        return {"element": g, "output": compressibility_witness(x0, 1, g)}, params
    if condition == 2:
        return {"U1": u1, "U2": u2, "element": compressibility_witness(x0, 2, u1, u2)}, params
    u2 = u2.difference(u1)
    u3 = random_clopen(space, rng, splits=3).intersect(away)
    return {"U1": u1, "U2": u2, "U3": u3, "element": compressibility_witness(x0, 3, u1, u2, u3)}, params


COMPRESSIBILITY_MUTATIONS = ["other element", "other point", "grow a set", "drop a brick", "swap two sets"]


@pytest.mark.parametrize("condition", [1, 2, 3])
@SETTINGS
@given(st.sampled_from(EMBED_SPACES), SEEDS, st.data())
def test_verify_compressibility_agrees_with_independent_checker(condition, space, seed, data):
    # condition 1 has one set, so nothing to swap
    mutations = COMPRESSIBILITY_MUTATIONS[:-1] if condition == 1 else COMPRESSIBILITY_MUTATIONS
    mutation = data.draw(st.sampled_from([None] * len(mutations) + mutations))
    rng = random.Random(seed)
    blocks, params = compressibility_blocks(condition, space, rng)
    first, second = ("output", "output") if condition == 1 else ("U1", "U2")
    if mutation == "other element":
        blocks["element"] = random_element(space, rng, factors=2, splits=2)
    elif mutation == "other point":
        params["point"] = format_point(random_point(space, rng))
    elif mutation == "grow a set":
        blocks[second] = blocks[second].union(Clopen(space, blocks[second].complement().bricks[:1]))
    elif mutation == "drop a brick":
        blocks[first] = Clopen(space, blocks[first].bricks[1:])
    elif mutation == "swap two sets":
        blocks[first], blocks[second] = blocks[second], blocks[first]
    w = parse_witness(format_witness(Witness("compressibility", params=params, blocks=blocks)))
    claims = compressibility_claims(w.blocks, w.params)
    assert run_checks(w) == claims
    assert mutation is not None or all(ok for ok, _ in claims)


# a witness command of each light kind (every kind but ``conjugates``), on the
# files that ``light_witnesses`` writes
LIGHT_COMMANDS = {
    "compress": ["compress", "full.clp", "x.clp"],
    "double": ["double", "x.clp"],
    "between": ["between", "x.clp", "y.clp"],
    "multisection": ["multisection", "x.clp", "y.clp", "z.clp"],
    "vigor": ["vigor", "x.clp", "y1.clp", "y2.clp"],
    "compressibility 1": ["compressibility", "--point", "root:0 e(0)", "--cond", "1", "g.tbl"],
    "compressibility 2": ["compressibility", "--point", "root:0 e(0)", "--cond", "2", "u1.clp", "u2.clp"],
    "compressibility 3": ["compressibility", "--point", "root:0 e(0)", "--cond", "3", "u1.clp", "u2b.clp",
                          "u3.clp"],
    "embed": ["embed-v", "--space", "1,3,1", "--support", "x.clp", "v.vpair"],
}


@pytest.fixture(scope="module")
def light_witnesses(tmp_path_factory) -> dict:
    """The output of each of ``LIGHT_COMMANDS``."""
    tmp = tmp_path_factory.mktemp("light")
    files = {name + ".clp": format_clopen(clp(V3, w))
             for name, w in (("x", "0"), ("y", "1"), ("z", "2"), ("y1", "00"), ("y2", "01"))}
    files.update({name + ".clp": format_clopen(clp(V2, w))
                  for name, w in (("u1", "10"), ("u2", "11"), ("u2b", "110"), ("u3", "111"))})
    files["full.clp"] = format_clopen(V3.full())
    files["g.tbl"] = format_table(vigor_witness(clp(V2, "1"), clp(V2, "10"), clp(V2, "11")))
    files["v.vpair"] = vpair_text(random_element(binary_space(), random.Random(5), factors=2, splits=2))
    for name, text in files.items():
        (tmp / name).write_text(text)
    texts = {}
    for kind, argv in LIGHT_COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([str(tmp / a) if a in files else a for a in argv]) == 0, argv
        texts[kind] = out.getvalue()
    return texts


BYTE_EDITS = st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                                st.integers(0, 2 ** 16), st.integers(0, 255)),
                      min_size=1, max_size=4)


@pytest.mark.parametrize("kind", LIGHT_COMMANDS)
@SETTINGS
@given(edits=BYTE_EDITS)
def test_verify_survives_byte_mutations(light_witnesses, tmp_path_factory, kind, edits):
    data = bytearray(light_witnesses[kind].encode())
    for edit, pos, byte in edits:
        if edit == "insert":
            data.insert(pos % (len(data) + 1), byte)
        elif edit == "delete":
            del data[pos % len(data)]
        else:
            data[pos % len(data)] = byte
    path = tmp_path_factory.getbasetemp() / "byte-mutated.txt"
    path.write_bytes(bytes(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    # a malformed witness is refused on a line of the file, never by a traceback
    assert code in (0, 1) or (code == 2 and re.match(r"parse error: line \d+: ", err.getvalue())), (
        bytes(data), err.getvalue())
