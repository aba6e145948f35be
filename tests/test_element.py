import itertools
import random

import pytest

import bht.space
from bht.element import (
    PrefixBijection,
    TableElement,
    apply_point,
    canonicalize,
    closed_support,
    commutator,
    compose,
    compose_partial,
    equals,
    identity,
    image_clopen,
    invert,
    invert_partial,
    is_identity,
    order,
)
from bht.cli import main
from bht.errors import DomainError, SpaceMismatchError
from bht.sampling import random_clopen, random_element, random_permutation_element
from bht.space import Brick, BrickIndex, Clopen, SpaceSpec, compose_cells
from bht.textio import format_clopen
from util import (
    B, V2, V3, V23, V2x2, assert_frozen_value, clp, compose_cells_all_pairs, oracle_agree,
    oracle_image, pt, refine,
)

SWAP = TableElement(V2, [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))])
# source 0 grows, source 1 shrinks; infinite order
A_TBL = TableElement(
    V2,
    [
        (B(0, "0"), B(0, "00")),
        (B(0, "10"), B(0, "01")),
        (B(0, "11"), B(0, "1")),
    ],
)


def table(space, *cells) -> TableElement:
    return TableElement(
        space,
        [(B(0, *d.split(",")), B(0, *r.split(","))) for d, r in cells],
    )


def three_cycle(space, b0, b1, b2) -> TableElement:
    cells = [(b0, b1), (b1, b2), (b2, b0)]
    rest = Clopen(space, [b0, b1, b2]).complement()
    cells += [(b, b) for b in rest.bricks]
    return TableElement(space, cells)


def test_validation_rejects_bad_tables():
    with pytest.raises(DomainError):
        TableElement(V2, [(B(0, "0"), B(0, "e"))])
    with pytest.raises(DomainError):
        TableElement(V2, [(B(0, "0"), B(0, "0")), (B(0, "0"), B(0, "1"))])
    with pytest.raises(DomainError):
        PrefixBijection(V2, [(B(0, "0"), B(0, "e")), (B(0, "1"), B(0, "0"))])


def test_compose_identity_laws():
    assert equals(compose(identity(V2), SWAP), SWAP)
    assert equals(compose(SWAP, identity(V2)), SWAP)
    assert is_identity(compose(SWAP, invert(SWAP)))
    assert is_identity(compose(invert(SWAP), SWAP))


def test_compose_derived_against_oracle():
    aa = compose(A_TBL, A_TBL)
    expected = table(V2, ("0", "000"), ("10", "001"), ("110", "01"), ("111", "1"))
    assert aa == expected  # n = 1 canonical form is unique
    assert oracle_agree(aa, expected)
    # function composition on sample deep words
    for word in itertools.product((0, 1), repeat=6):
        root, (img,) = oracle_image(A_TBL, 0, (word,))
        root, (img2,) = oracle_image(A_TBL, root, (img,))
        root2, (got,) = oracle_image(aa, 0, (word,))
        m = min(len(got), len(img2))
        assert root2 == root and got[:m] == img2[:m]


def test_compose_meets_only_overlapping_bricks(monkeypatch):
    # counts the lookups instead of timing: an all-pairs meet of two 161-cell
    # tables would visit 161^2 pairs of bricks.  In one dimension each g cell
    # costs two bisections of f's sorted sources, one for the source that
    # may be a prefix of its target and one for the end of its extensions.
    rng = random.Random(160)
    f, g = (random_permutation_element(V2, rng, splits=160) for _ in range(2))
    probes = []
    bisect_left = bht.space.bisect_left
    monkeypatch.setattr(bht.space, "bisect_left", lambda *a: probes.append(a) or bisect_left(*a))
    fg = compose(f, g)
    monkeypatch.undo()
    assert len(probes) == 2 * len(g.cells)
    assert equals(fg, TableElement(V2, compose_cells_all_pairs(f.cells, g.cells)))
    # in two dimensions each g cell is one index lookup, and each pair it
    # finds makes one cell
    f, g = (random_permutation_element(V2x2, rng, splits=160) for _ in range(2))
    cells_out = len(list(compose_cells(f.cells, g.cells)))
    found = []
    meeting = BrickIndex.meeting
    monkeypatch.setattr(BrickIndex, "meeting", lambda index, b: found.append(meeting(index, b)) or found[-1])
    fg = compose(f, g)
    assert len(found) == len(g.cells)
    assert sum(len(hits) for hits in found) == cells_out
    assert equals(fg, TableElement(V2x2, compose_cells_all_pairs(f.cells, g.cells)))


def test_invert_examples():
    assert invert(identity(V2)) == identity(V2)
    assert invert(SWAP) == SWAP
    inv = invert(A_TBL)
    expected = table(V2, ("00", "0"), ("01", "10"), ("1", "11"))
    assert inv == expected
    assert oracle_agree(compose(inv, A_TBL), identity(V2))
    assert oracle_agree(compose(A_TBL, inv), identity(V2))


def test_canonicalize_examples():
    messy = table(V2, ("00", "10"), ("01", "11"), ("1", "0"))
    assert canonicalize(messy) == SWAP
    deep_id = TableElement(
        V2, [(B(0, "".join(w)), B(0, "".join(w)))
             for w in ("000", "001", "010", "011", "100", "101", "110", "111")]
    )
    assert canonicalize(deep_id) == identity(V2)
    assert canonicalize(deep_id).cells == (((B(0, "e"), B(0, "e"))),)


def test_canonicalize_idempotent_on_random_elements():
    rng = random.Random(31)
    for _ in range(300):
        space = rng.choice([V2, V3, V2x2, V23])
        g = random_element(space, rng, factors=2, splits=2)
        gc = canonicalize(g)
        assert canonicalize(gc) == gc
        # the canonical cells still form a full valid table
        assert TableElement(space, gc.cells) == gc


def test_equals_examples():
    rng = random.Random(37)
    for _ in range(20):
        g = random_element(V2x2, rng, factors=2, splits=2)
        assert equals(g, canonicalize(g))
    assert not equals(SWAP, identity(V2))
    with pytest.raises(SpaceMismatchError):
        equals(SWAP, identity(V3))


def test_equals_matches_oracle_on_generator_words():
    gens = [
        TableElement(V2x2, [(B(0, "0", "e"), B(0, "1", "e")), (B(0, "1", "e"), B(0, "0", "e"))]),
        TableElement(V2x2, [(B(0, "e", "0"), B(0, "e", "1")), (B(0, "e", "1"), B(0, "e", "0"))]),
        three_cycle(V2x2, B(0, "00", "e"), B(0, "01", "e"), B(0, "1", "e")),
    ]
    gens += [invert(g) for g in gens]
    rng = random.Random(41)
    for _ in range(25):
        w1 = [rng.choice(gens) for _ in range(5)]
        w2 = [rng.choice(gens) for _ in range(5)]
        f = identity(V2x2)
        g = identity(V2x2)
        for x in w1:
            f = compose(f, x)
        for x in w2:
            g = compose(g, x)
        assert equals(f, g) == oracle_agree(f, g)


def test_identity_tests_on_refined_cells():
    # equals, closed_support and order read raw cells, canonical or not
    rng = random.Random(67)
    for _ in range(40):
        space = rng.choice([V2, V3, V2x2, V23])
        g = random_element(space, rng, factors=2, splits=2)
        fine = refine(g, rng)
        assert len(fine.cells) > len(g.cells)
        assert equals(fine, g) and equals(g, fine)
        assert closed_support(fine) == closed_support(g)
        assert order(fine, 6) == order(g, 6)
        h = rng.choice([random_element(space, rng, factors=2, splits=2), refine(g, rng)])
        assert equals(fine, h) == oracle_agree(fine, h)


def test_apply_point_examples():
    p0 = pt(V2, ("e", "0"))
    assert apply_point(identity(V2), p0) == p0
    assert apply_point(SWAP, p0) == pt(V2, ("1", "0"))
    got = apply_point(A_TBL, pt(V2, ("e", "10")))
    assert got == pt(V2, ("01", "10"))
    # oracle: eight letters of the expansion
    assert [got.letter(0, i) for i in range(8)] == [0, 1, 1, 0, 1, 0, 1, 0]


def test_apply_point_respects_composition():
    rng = random.Random(43)
    from bht.sampling import random_point

    for _ in range(50):
        space = rng.choice([V2, V3, V23, SpaceSpec(1, (2,), 2)])
        f = random_element(space, rng, factors=2, splits=2)
        g = random_element(space, rng, factors=2, splits=2)
        p = random_point(space, rng)
        assert apply_point(compose(f, g), p) == apply_point(f, apply_point(g, p))


def test_closed_support_examples():
    cyc = three_cycle(V2, B(0, "00"), B(0, "010"), B(0, "011"))
    assert closed_support(cyc) == clp(V2, "00", "010", "011")
    assert closed_support(identity(V2)).is_empty()
    # full support even though the endpoints 0^inf and 1^inf are fixed
    assert closed_support(A_TBL).is_full()
    assert apply_point(A_TBL, pt(V2, ("e", "0"))) == pt(V2, ("e", "0"))
    assert apply_point(A_TBL, pt(V2, ("e", "1"))) == pt(V2, ("e", "1"))
    # no depth-8 cylinder around 0^inf is pointwise fixed
    for depth in range(1, 9):
        w = (0,) * depth
        moved = False
        for tail in itertools.product((0, 1), repeat=2):
            _, (img,) = oracle_image(A_TBL, 0, (w + tail,))
            if img[: len(w) + 2] != w + tail:
                moved = True
        assert moved


def test_order_examples():
    assert order(identity(V2), 10) == 1
    cyc = three_cycle(V2, B(0, "00"), B(0, "010"), B(0, "011"))
    assert order(cyc, 10) == 3
    assert order(A_TBL, 64) is None
    with pytest.raises(DomainError):
        order(SWAP, 0)


def test_order_is_least():
    # disjoint 2-cycle and 3-cycle combine to order 6, not less
    two = table(V2, ("000", "001"), ("001", "000"), ("01", "01"), ("1", "1"))
    three = three_cycle(V2, B(0, "10"), B(0, "110"), B(0, "111"))
    g = compose(two, three)
    assert order(g, 10) == 6
    assert order(compose(g, g), 10) == 3
    assert order(invert(g), 10) == 6
    assert order(two, 10) == 2


def test_commutator_examples():
    rng = random.Random(47)
    g = random_element(V3, rng, factors=2, splits=2)
    assert is_identity(commutator(g, g))
    assert is_identity(commutator(g, identity(V3)))
    a = three_cycle(V2, B(0, "00"), B(0, "010"), B(0, "011"))
    b = three_cycle(V2, B(0, "10"), B(0, "110"), B(0, "111"))
    assert closed_support(a).isdisjoint(closed_support(b))
    assert is_identity(commutator(a, b))
    assert equals(compose(a, b), compose(b, a))


def test_group_axioms_random():
    rng = random.Random(53)
    for space in (V2, V3, V2x2, V23):
        for _ in range(25):
            f = random_element(space, rng, factors=2, splits=2)
            g = random_element(space, rng, factors=2, splits=2)
            h = random_element(space, rng, factors=2, splits=2)
            assert equals(compose(compose(f, g), h), compose(f, compose(g, h)))
            assert is_identity(compose(f, invert(f)))
            assert is_identity(compose(invert(f), f))
            assert equals(invert(compose(f, g)), compose(invert(g), invert(f)))


def test_support_laws():
    rng = random.Random(59)
    for _ in range(40):
        space = rng.choice([V2, V3, V2x2])
        f = random_element(space, rng, factors=2, splits=2)
        g = random_element(space, rng, factors=2, splits=2)
        sf, sg = closed_support(f), closed_support(g)
        assert closed_support(compose(f, g)).issubset(sf.union(sg))
        assert closed_support(invert(g)) == image_clopen(g, sg)


def test_reduced_form_unique_for_dimension_one():
    rng = random.Random(61)
    for space in (V2, V3):
        for _ in range(60):
            f = random_element(space, rng, factors=2, splits=2)
            g = random_element(space, rng, factors=2, splits=2)
            same = equals(f, g)
            assert same == (canonicalize(f).cells == canonicalize(g).cells)
            # a refined copy of f still canonicalizes to the same table
            d, r = f.cells[0]
            refined = list(f.cells[1:])
            for a in range(space.kbar[0]):
                refined.append((d.child(0, a), r.child(0, a)))
            f2 = TableElement(space, refined)
            assert equals(f, f2)
            assert canonicalize(f2).cells == canonicalize(f).cells


def test_partial_bijections():
    half = PrefixBijection(V2, [(B(0, "0"), B(0, "10"))])
    other = PrefixBijection(V2, [(B(0, "10"), B(0, "0"))])
    back = compose_partial(other, half)
    assert back.cells == ((B(0, "0"), B(0, "0")),)
    assert invert_partial(half).cells == ((B(0, "10"), B(0, "0")),)
    assert half.source == clp(V2, "0")
    assert half.image == clp(V2, "10")
    assert image_clopen(half, clp(V2, "01")) == clp(V2, "101")
    with pytest.raises(DomainError):
        apply_point(half, pt(V2, ("1", "1")))


def test_derived_clopens_run_no_brick_validation(monkeypatch, capsys, tmp_path):
    # a fresh space, so that its cached full set is built inside the count
    space = SpaceSpec(2, (2, 3), 2)
    rng = random.Random(47)
    x, y = (random_clopen(space, rng, splits=5) for _ in range(2))
    g = random_permutation_element(space, rng, splits=6)
    calls = []
    validate = Brick.validate
    monkeypatch.setattr(Brick, "validate", lambda b, sp: calls.append(b) or validate(b, sp))
    x.union(y), x.intersect(y), x.difference(y), x.complement()
    x.issubset(y), x.isdisjoint(y)
    image_clopen(g, x), closed_support(g), g.source, g.image
    assert calls == []
    # bricks from outside are still checked
    with pytest.raises(DomainError):
        Clopen(space, [B(0, "0", "3")])
    bad = tmp_path / "bad.clp"
    bad.write_text(format_clopen(x) + "root:0 0,3\n")
    assert main(["double", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: line %d: " % (len(x.bricks) + 2)), err


def test_bisections_are_frozen_and_a_table_never_equals_a_bisection():
    g = random_element(V23, random.Random(61), factors=2, splits=3)
    b = PrefixBijection(V23, g.cells)
    for obj in (g, b, PrefixBijection._wrap(V23, list(g.cells))):
        assert_frozen_value(obj)
    assert b == PrefixBijection._wrap(V23, list(g.cells))
    assert g == TableElement(V23, g.cells) and hash(g) == hash(TableElement(V23, g.cells))
    assert b.cells == g.cells and b != g and g != b
    assert b in {b} and g not in {b}
    # tables are slotted too, however they are built
    for t in (TableElement(V23, g.cells), TableElement._wrap(V23, list(g.cells)), compose(g, g)):
        assert_frozen_value(t)
