"""Property tests against point membership, the point action and all-pairs references."""

from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bht.element import _check_disjoint, apply_point, compose, equals, image_clopen, invert  # noqa: E402
from bht.errors import DomainError  # noqa: E402
from bht.sampling import random_element, random_partition, random_point  # noqa: E402
from bht.space import Brick, Clopen, SpaceSpec, compose_cells, point_in  # noqa: E402
from test_element import oracle_agree  # noqa: E402
from util import V2, V3, V23, V2x2, compose_cells_all_pairs, refine  # noqa: E402

SPACES = [V2, V3, V2x2, V23, SpaceSpec(1, (2,), 2)]
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


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


@SETTINGS
@given(st.sampled_from(INDEX_SPACES).flatmap(
    lambda sp: st.tuples(nested_bricks(sp, 8), nested_bricks(sp, 8), nested_bricks(sp, 8))))
def test_compose_cells_matches_all_pairs(sides):
    f_sources, targets, g_sources = sides
    f = list(zip(f_sources, reversed(targets)))
    g = list(zip(g_sources, targets))
    assert Counter(compose_cells(f, g)) == Counter(compose_cells_all_pairs(f, g))


def _pairwise_overlap(bricks):
    for i, b in enumerate(bricks):
        for b2 in bricks[i + 1:]:
            if not b.is_disjoint(b2):
                return "source bricks overlap: %r, %r" % (b, b2)
    return None


@st.composite
def partition_with_overlap(draw):
    """Some bricks of a partition of a 2D space, then a repeat, nested or crossing brick."""
    space = draw(st.sampled_from([V2x2, V23, SpaceSpec(2, (2, 2), 2)]))
    rng = draw(st.randoms(use_true_random=False))
    bs = [b for b in random_partition(space, rng, splits=draw(st.integers(0, 8))) if rng.random() < 0.8]
    for _ in range(draw(st.integers(0, 2))):
        if not bs:
            break
        b = rng.choice(bs)
        u, v = b.words
        move = draw(st.sampled_from(["repeat", "child", "parent", "cross"]))
        if move == "repeat":
            bs.append(b)
        elif move == "child":
            bs.append(b.child(rng.randrange(2), 0))
        elif move == "parent":
            bs.append(Brick(b.root, (u[:-1], v)))
        else:
            # shorter in dimension 0, longer in 1: meets b, and contains or
            # lies in b only when u is empty
            bs.append(Brick(b.root, (u[:-1], v + (rng.randrange(space.kbar[1]),))))
    rng.shuffle(bs)
    return sorted(bs) if draw(st.booleans()) else bs


@SETTINGS
@given(partition_with_overlap())
def test_check_disjoint_names_the_pairwise_overlap(bs):
    try:
        _check_disjoint("source", bs)
        got = None
    except DomainError as err:
        got = str(err)
    assert got == _pairwise_overlap(bs)
