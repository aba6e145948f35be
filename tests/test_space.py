import random

import pytest

import bht.space
from bht.errors import DomainError, SpaceMismatchError
from bht.sampling import random_clopen, random_partition, random_point
from bht.space import (
    Brick,
    Clopen,
    RationalPoint,
    SpaceSpec,
    canonical_bricks,
    h0_class,
    point_in,
    subdivide,
)
from util import B, V2, V3, V23, V2x2, assert_frozen_value, clp, extend, measure, pt


def test_space_validation():
    assert SpaceSpec(1, (2,), 1).g == 1
    assert SpaceSpec(1, (3,), 1).g == 2
    assert SpaceSpec(2, (3, 5), 1).g == 2
    assert SpaceSpec(2, (2, 3), 7).g == 1
    with pytest.raises(DomainError):
        SpaceSpec(0, (), 1)
    with pytest.raises(DomainError):
        SpaceSpec(1, (1,), 1)
    with pytest.raises(DomainError):
        SpaceSpec(2, (2,), 1)
    with pytest.raises(DomainError):
        SpaceSpec(1, (2,), 0)


def test_subdivide_examples():
    assert subdivide(V2, B(0, "0"), 0) == [B(0, "00"), B(0, "01")]
    assert subdivide(V3, B(0, "e"), 0) == [B(0, "0"), B(0, "1"), B(0, "2")]
    assert subdivide(V23, B(0, "e", "1"), 1) == [
        B(0, "e", "10"),
        B(0, "e", "11"),
        B(0, "e", "12"),
    ]
    with pytest.raises(DomainError):
        subdivide(V2, B(0, "0"), 1)


def test_subdivide_partitions_parent():
    rng = random.Random(7)
    for _ in range(50):
        space = rng.choice([V2, V3, V2x2, V23])
        parts = random_partition(space, rng, splits=3)
        b = rng.choice(parts)
        dim = rng.randrange(space.n)
        children = subdivide(space, b, dim)
        assert Clopen(space, children) == Clopen(space, [b])
        for i, c in enumerate(children):
            for d in children[i + 1:]:
                assert c.intersect(d) is None


def test_union_sibling_merge():
    full = clp(V2, "0").union(clp(V2, "1"))
    assert full == V2.full()
    assert full.bricks == (B(0, "e"),)


def test_intersect_prefix_containment():
    assert clp(V2, "0").intersect(clp(V2, "01")) == clp(V2, "01")


def test_difference_derived():
    # Oracle: depth-2 cells of the full space minus cell 00, canonicalized.
    cells = [B(0, a + b) for a in "01" for b in "01" if a + b != "00"]
    expected = Clopen(V2, cells)
    got = V2.full().difference(clp(V2, "00"))
    assert got == expected
    assert got.bricks == (B(0, "01"), B(0, "1"))


def test_complement_and_subset():
    x = clp(V3, "0", "12")
    c = x.complement()
    assert x.union(c) == V3.full()
    assert x.intersect(c).is_empty()
    assert clp(V3, "12").issubset(x)
    assert not x.issubset(clp(V3, "12"))


def test_issubset_takes_no_difference(monkeypatch):
    # the meets of x with y weigh as much as x exactly when x lies in y
    monkeypatch.setattr(Clopen, "difference", lambda a, b: pytest.fail("issubset took a difference"))
    x, y = clp(V23, "0,e", "1,2"), clp(V23, "0,e", "1,")
    assert x.issubset(y) and not y.issubset(x) and y.issubset(y) and V23.empty().issubset(x)
    assert not x.issubset(clp(V23, "0,0", "0,1", "1,2"))
    assert clp(V23, "0,0", "0,1", "0,2").issubset(x)


def test_difference_and_complement_take_one_sweep(monkeypatch):
    # each is one brick_subtract call over the bricks and the holes, with no
    # brick-by-brick peel: no pairwise meet
    calls = []
    sweep = bht.space.brick_subtract
    monkeypatch.setattr(bht.space, "brick_subtract", lambda *args: calls.append(args) or sweep(*args))
    monkeypatch.setattr(Brick, "intersect", lambda b, c: pytest.fail("took a pairwise meet"))
    x, y, z = clp(V23, "0,e", "1,2", "e,0"), clp(V23, "0,1", "1,"), clp(V2, "0", "10")
    for make, want in ((lambda: x.difference(y), clp(V23, "0,0", "0,2")),
                       (lambda: y.complement(), clp(V23, "0,0", "0,2")),
                       (lambda: z.complement(), clp(V2, "11"))):
        calls.clear()
        got = make()
        assert len(calls) == 1 and got == want


def test_space_mismatch_rejected():
    with pytest.raises(SpaceMismatchError):
        clp(V2, "0").union(clp(V3, "0"))


def test_h0_class_examples():
    assert h0_class(clp(V3, "0", "1")) == 0
    assert h0_class(V3.full()) == 1
    # any space with some k_j = 2 has modulus 1
    assert h0_class(clp(V23, "0,e")) == 0
    assert h0_class(V23.full()) == 0


def test_h0_refinement_invariance_derived():
    x = clp(V3, "0", "1")
    refined = []
    for b in x.bricks:
        refined.extend(subdivide(V3, b, 0))
    assert len(refined) % V3.g == h0_class(x)
    assert h0_class(Clopen(V3, refined)) == h0_class(x)


def test_point_in_examples():
    assert point_in(pt(V2, ("e", "0")), clp(V2, "00"))
    assert not point_in(pt(V2, ("e", "01")), clp(V2, "00"))
    assert point_in(pt(V2, ("1", "0")), clp(V2, "10", "11"))


def test_point_normalization():
    # 0 * (10)^inf == (01)^inf
    assert pt(V2, ("0", "10")) == pt(V2, ("e", "01"))
    # period is reduced to its primitive root
    assert pt(V2, ("e", "0101")) == pt(V2, ("e", "01"))
    # absorbing the boundary: 011 * (01)^inf == 01 * (10)^inf == 0 * (11 0 ...)? use letters
    p = pt(V2, ("011", "01"))
    q = pt(V2, ("01", "10"))
    assert p == q
    assert [p.letter(0, i) for i in range(8)] == [0, 1, 1, 0, 1, 0, 1, 0]


def test_point_validation():
    with pytest.raises(DomainError):
        pt(V2, ("e", "e"))
    with pytest.raises(DomainError):
        pt(V2, ("2", "0"))
    with pytest.raises(DomainError):
        RationalPoint(V2, 1, [((), (0,))])


def test_canonicalization_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        space = rng.choice([V2, V3, V2x2, V23])
        x = random_clopen(space, rng, splits=4)
        assert canonical_bricks(space, x.bricks) == x.bricks


def test_canonical_form_unique_under_resplitting():
    # The same point set built from a randomly refined brick list must
    # canonicalize to the identical brick tuple.
    rng = random.Random(13)
    for _ in range(200):
        space = rng.choice([V2, V3, V2x2, V23])
        x = random_clopen(space, rng, splits=4)
        pieces = list(x.bricks)
        for _ in range(rng.randrange(6)):
            if not pieces:
                break
            i = rng.randrange(len(pieces))
            dim = rng.randrange(space.n)
            pieces[i:i + 1] = subdivide(space, pieces[i], dim)
        rng.shuffle(pieces)
        assert Clopen(space, pieces) == x


def test_canonical_form_agrees_across_construction_paths():
    # The same set reached through complements, intersections and unions of
    # refined copies must land on the identical canonical brick tuple.
    rng = random.Random(53)
    for _ in range(150):
        space = rng.choice([V2, V3, V2x2, V23, SpaceSpec(1, (2,), 2)])
        a = random_clopen(space, rng, splits=4)
        b = random_clopen(space, rng, splits=3)
        assert a.complement().complement() == a
        assert V_full(space).difference(a.complement()) == a
        assert a.difference(b) == a.intersect(b.complement())
        # union with an overlapping refined copy changes nothing
        pieces = list(a.bricks)
        for _ in range(rng.randrange(4)):
            if not pieces:
                break
            i = rng.randrange(len(pieces))
            pieces[i:i + 1] = subdivide(space, pieces[i], rng.randrange(space.n))
        assert Clopen(space, list(a.bricks) + pieces) == a
        assert a.union(b).union(a) == b.union(a)


def V_full(space):
    return space.full()


def _cells_at_profile(space, brick, profile):
    """All descendants of a brick at exactly the given per-dimension depths."""
    import itertools

    pools = []
    for j in range(space.n):
        need = profile[j] - len(brick.words[j])
        pools.append([tuple(w) for w in itertools.product(range(space.kbar[j]), repeat=need)])
    return {extend(brick, s) for s in itertools.product(*pools)}


def test_canonicalization_exhaustive_small_grid():
    # every subset of the depth-2 ternary grid: the canonical form must
    # refine back to exactly the chosen cells and be stable
    import itertools

    grid = sorted(_cells_at_profile(V3, V3.root_brick(0), (2,)))
    assert len(grid) == 9
    for mask in range(2 ** 9):
        chosen = [grid[i] for i in range(9) if mask >> i & 1]
        c = Clopen(V3, chosen)
        back = set()
        for b in c.bricks:
            back |= _cells_at_profile(V3, b, (2,))
        assert back == set(chosen), mask
        assert Clopen(V3, c.bricks) == c
        assert len(c.bricks) % V3.g == len(chosen) % V3.g


def test_canonicalization_sampled_two_dim_grid():
    rng = random.Random(59)
    grid = sorted(_cells_at_profile(V2x2, V2x2.root_brick(0), (2, 2)))
    assert len(grid) == 16
    for _ in range(300):
        chosen = [b for b in grid if rng.random() < 0.5]
        c = Clopen(V2x2, chosen)
        back = set()
        for b in c.bricks:
            back |= _cells_at_profile(V2x2, b, (2, 2))
        assert back == set(chosen)
        shuffled = chosen[:]
        rng.shuffle(shuffled)
        assert Clopen(V2x2, shuffled) == c


def test_h0_invariant_under_random_subdivision():
    rng = random.Random(17)
    for _ in range(100):
        space = rng.choice([V3, V2x2, SpaceSpec(2, (3, 5), 2)])
        x = random_clopen(space, rng, splits=3)
        pieces = list(x.bricks)
        for _ in range(10):
            if not pieces:
                break
            i = rng.randrange(len(pieces))
            dim = rng.randrange(space.n)
            pieces[i:i + 1] = subdivide(space, pieces[i], dim)
        assert len(pieces) % space.g == h0_class(x)
        assert h0_class(Clopen(space, pieces)) == h0_class(x)


def test_boolean_algebra_against_membership_oracle():
    rng = random.Random(19)
    for _ in range(40):
        space = rng.choice([V2, V3, V2x2, V23])
        a = random_clopen(space, rng, splits=3)
        b = random_clopen(space, rng, splits=3)
        union = a.union(b)
        meet = a.intersect(b)
        diff = a.difference(b)
        comp = a.complement()
        demorgan = a.complement().intersect(b.complement())
        absorb = a.union(a.intersect(b))
        for _ in range(25):
            p = random_point(space, rng)
            ina, inb = point_in(p, a), point_in(p, b)
            assert point_in(p, union) == (ina or inb)
            assert point_in(p, meet) == (ina and inb)
            assert point_in(p, diff) == (ina and not inb)
            assert point_in(p, comp) == (not ina)
            assert point_in(p, demorgan) == (not (ina or inb))
        assert absorb == a
        assert demorgan == union.complement()


def test_disjointness_matches_empty_intersection():
    rng = random.Random(23)
    for _ in range(100):
        space = rng.choice([V2, V3, V2x2])
        a = random_clopen(space, rng, splits=3)
        b = random_clopen(space, rng, splits=3)
        assert a.isdisjoint(b) == a.intersect(b).is_empty()


def test_measure_consistency():
    rng = random.Random(29)
    for _ in range(50):
        space = rng.choice([V2, V3, V23])
        a = random_clopen(space, rng, splits=3)
        b = random_clopen(space, rng, splits=3)
        assert (measure(space, a.union(b).bricks) + measure(space, a.intersect(b).bricks)
                == measure(space, a.bricks) + measure(space, b.bricks))
    assert measure(V2, V2.full().bricks) == 1
    assert measure(SpaceSpec(1, (2,), 3), SpaceSpec(1, (2,), 3).full().bricks) == 3


def test_multi_root_clopens():
    space = SpaceSpec(1, (2,), 2)
    x = Clopen(space, [B(0, "0"), B(1, "e")])
    assert x.complement() == Clopen(space, [B(0, "1")])
    assert x.union(x.complement()) == space.full()
    assert point_in(RationalPoint(space, 1, [((), (1,))]), x)
    assert not point_in(RationalPoint(space, 0, [((1,), (1,))]), x)


def test_clopens_and_points_are_frozen_values():
    x = clp(V23, "0,e", "1,01", "1,2")
    p = pt(V2, ("1", "0"))
    for obj in (x, p, V23, SpaceSpec(1, [3], 2), V23.full(), Clopen._wrap(V23, x.bricks)):
        assert_frozen_value(obj)
    # the full set is built afresh each time, equal to the last
    assert V23.full() == V23.full() and V23.full() is not V23.full()
    # canonical, so equal point sets hash equal whatever the brick order
    y = Clopen(V23, reversed([B(0, "1", "2"), B(0, "0", ""), B(0, "1", "01")]))
    assert y == x and hash(y) == hash(x)
    assert Clopen._wrap(V23, x.bricks[::-1]) == x
    assert pt(V2, ("10", "00")) == p and hash(pt(V2, ("10", "00"))) == hash(p)
