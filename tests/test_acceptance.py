"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
per-criterion lines while running).
"""

import math
import random
import time

from bht.abelian import AbelianGroup, CharacterFamily, abelianization, homology, is_perfect, proper_characters
from bht.element import (
    TableElement,
    canonicalize,
    closed_support,
    compose,
    equals,
    image_clopen,
    invert,
    is_identity,
    order,
)
from bht.sampling import (
    random_clopen,
    random_element,
    random_partition,
)
from bht.space import Clopen, SpaceSpec, h0_class, point_in, subdivide
from bht.vembed import binary_space, build_v_embedding, evaluate_embedding, image_vigor_check
from bht.witness import (
    brick_neighborhood,
    compress,
    compressibility_witness,
    conjugate_family,
    doubling_witness,
    fixed_neighborhood,
    multisection,
    vigor_case,
    vigor_witness,
)
from util import clp, oracle_agree, pt

V2 = SpaceSpec(1, (2,), 1)
V3 = SpaceSpec(1, (3,), 1)
V2X2 = SpaceSpec(2, (2, 2), 1)
V23 = SpaceSpec(2, (2, 3), 1)


class Criterion:
    """Times a criterion body and prints its pass/fail line."""

    def __init__(self, number: int, description: str, limit: float):
        self.number = number
        self.description = description
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(
            "ACCEPTANCE %d: %s (%.2fs < %.0fs) %s"
            % (self.number, status, elapsed, self.limit, self.description)
        )
        if exc_type is None:
            assert elapsed < self.limit, (
                "criterion %d exceeded its time budget: %.2fs" % (self.number, elapsed)
            )
        return False


def make_space(n, k, r=1):
    kbar = (k,) * n if isinstance(k, int) else tuple(k)
    return SpaceSpec(n, kbar, r)


def test_criterion_1_homology_table():
    with Criterion(1, "homology table over the (n,k,r,i) grid", 1.0):
        for n in range(1, 5):
            for k in range(2, 8):
                per_r = []
                for r in range(1, 6):
                    sp = make_space(n, k, r)
                    row = [homology(sp, i) for i in range(n + 1)]
                    for i, got in enumerate(row):
                        expected = AbelianGroup.power(k - 1, math.comb(n - 1, i))
                        assert got == expected, (n, k, r, i)
                    per_r.append(tuple(row))
                assert all(row == per_r[0] for row in per_r), (n, k)


def test_criterion_2_abelianization_table():
    def expected_ab(n, k):
        if k % 2 == 0:
            return AbelianGroup.power(k - 1, n - 1)
        if n == 1:
            return AbelianGroup.cyclic(2)
        if k % 4 == 1:
            return AbelianGroup.cyclic(2).direct_sum(AbelianGroup.power(k - 1, n - 1))
        if n == 2:
            return AbelianGroup.cyclic(2 * k - 2)
        return AbelianGroup.power(k - 1, n - 1)

    with Criterion(2, "abelianization seven-case table and spot values", 1.0):
        for n in range(1, 5):
            for k in range(2, 10):
                assert abelianization(make_space(n, k)) == expected_ab(n, k), (n, k)
        assert abelianization(make_space(1, 3)) == AbelianGroup.cyclic(2)
        assert abelianization(make_space(2, 7)) == AbelianGroup.cyclic(12)
        assert abelianization(make_space(3, 5)) == AbelianGroup([2, 4, 4])
        assert abelianization(make_space(2, 2)).is_trivial()


def test_criterion_3_characters():
    def expected_families(n, k):
        if k == 2 or (k % 2 == 0 and n == 1):
            return ()
        if k % 2 == 0:
            return (CharacterFamily(n - 1, k - 1),)
        if n == 1:
            return (CharacterFamily(1, 2),)
        if k % 4 == 1:
            return (CharacterFamily(1, 2), CharacterFamily(n - 1, k - 1))
        if n == 2:
            return (CharacterFamily(1, 2 * k - 2),)
        return (CharacterFamily(n - 1, k - 1),)

    with Criterion(3, "proper character enumeration over the grid", 1.0):
        for n in range(1, 5):
            for k in range(2, 10):
                table = proper_characters(make_space(n, k))
                assert table.families == expected_families(n, k), (n, k)
                assert table.dual_group == abelianization(make_space(n, k))


def test_criterion_4_mixed_alphabets():
    with Criterion(4, "mixed alphabet homology and perfectness", 1.0):
        sp = make_space(2, (2, 3))
        for i in range(4):
            assert homology(sp, i).is_trivial()
        assert is_perfect(sp)
        sp = make_space(2, (3, 5))
        for j in range(4):
            assert homology(sp, j) == AbelianGroup.power(2, math.comb(1, j))


def test_criterion_5_group_law_oracle_suite():
    with Criterion(5, "group axioms and oracle agreement, 1000 triples x 4 spaces", 60.0):
        for sp in (V2, V3, V2X2, V23):
            rng = random.Random(1000 + sp.n * 10 + sp.kbar[-1])
            for t in range(1000):
                f = random_element(sp, rng, factors=2, splits=2)
                g = random_element(sp, rng, factors=2, splits=2)
                h = random_element(sp, rng, factors=2, splits=2)
                assert equals(compose(compose(f, g), h), compose(f, compose(g, h)))
                assert is_identity(compose(f, invert(f)))
                assert is_identity(compose(invert(f), f))
                assert equals(f, g) == oracle_agree(f, g)
                if t % 5 == 0:
                    # an equal pair presented by a different table
                    f2 = compose(compose(f, g), invert(g))
                    assert equals(f, f2) and oracle_agree(f, f2)


def test_criterion_6a_compress_suite():
    with Criterion(6, "a: compress suite, 200 instances", 60.0):
        rng = random.Random(6001)
        for _ in range(200):
            sp = rng.choice([V2, V3, V2X2, V23])
            a = random_clopen(sp, rng, splits=3, nonempty=True)
            b = random_clopen(sp, rng, splits=3, nonempty=True)
            out = compress(a, b)
            assert out.source == a
            assert out.image.issubset(b) and out.image != b


def test_criterion_6b_doubling_suite():
    with Criterion(6, "b: doubling suite, 200 instances", 60.0):
        rng = random.Random(6002)
        for _ in range(200):
            sp = rng.choice([V2, V3, V2X2, V23])
            x = random_clopen(sp, rng, splits=3, nonempty=True)
            b1, b2 = doubling_witness(x)
            assert b1.source == x and b2.source == x
            assert b1.image.isdisjoint(b2.image)
            union = b1.image.union(b2.image)
            assert union.issubset(x) and union != x


def test_criterion_6c_multisection_suite():
    with Criterion(6, "c: multisection suite, 200 instances", 60.0):
        rng = random.Random(6003)
        done = 0
        while done < 200:
            sp = rng.choice([V2, V3, V2X2, V23])
            parts = random_partition(sp, rng, splits=4)
            if len(parts) < 3:
                continue
            done += 1
            picks = rng.sample(parts, 3)
            sets = tuple(Clopen(sp, [p]) for p in picks)
            m = multisection(*sets)
            assert order(m.element, 4) == 3
            assert closed_support(m.element) == sets[0].union(sets[1]).union(sets[2])


def test_criterion_6d_vigor_suite():
    with Criterion(6, "d: vigor suite, 200 instances", 60.0):
        rng = random.Random(6004)
        done = 0
        while done < 200:
            sp = rng.choice([V2, V3, V2X2, V23])
            x = random_clopen(sp, rng, splits=3, nonempty=True, proper=True)
            y1 = random_clopen(sp, rng, splits=3).intersect(x)
            y2 = random_clopen(sp, rng, splits=3, nonempty=True).intersect(x)
            if y2.is_empty():
                continue
            if vigor_case(x, y1, y2) == "c" and y1 == x:
                continue  # rejected unsatisfiable corner
            done += 1
            g = vigor_witness(x, y1, y2)
            assert closed_support(g).issubset(x)
            assert image_clopen(g, y1).issubset(y2)
            if vigor_case(x, y1, y2) == "b":
                assert order(g, 4) == 3


def test_criterion_6e_conjugates_suite():
    with Criterion(6, "e: conjugate family suite, 200 instances, N=10", 60.0):
        rng = random.Random(6005)
        done = 0
        while done < 200:
            sp = rng.choice([V2, V3, V2X2, V23])
            g = random_element(sp, rng, factors=2, splits=2)
            if is_identity(g):
                continue
            done += 1
            fam = conjugate_family(g, 10)
            for i in range(10):
                # conjugacy re-verified without recomputing the same chain:
                # conj * h == h * g  iff  conj == h g h^-1
                assert equals(
                    compose(fam.conjugates[i], fam.conjugators[i]),
                    compose(fam.conjugators[i], fam.base),
                )
                assert image_clopen(fam.conjugates[i], fam.moved).issubset(fam.targets[i])
            for i in range(10):
                for j in range(i + 1, 10):
                    assert fam.targets[i].isdisjoint(fam.targets[j])
                    img_i = image_clopen(fam.conjugates[i], fam.moved)
                    img_j = image_clopen(fam.conjugates[j], fam.moved)
                    assert img_i.isdisjoint(img_j)
                    assert not equals(fam.conjugates[i], fam.conjugates[j])


def test_criterion_6f_compressibility_suite():
    with Criterion(6, "f: compressibility conditions 1-3 at 0^inf, 200 instances", 60.0):
        rng = random.Random(6006)
        for sp in (V2, V3):
            x0 = pt(sp, *((("e", "0"),) * sp.n))
            done = 0
            while done < 100:
                away = brick_neighborhood(x0, rng.randint(1, 2)).complement()
                # condition 1: an element supported away from the point
                parts = [b for b in random_partition(sp, rng, splits=4)
                         if Clopen(sp, [b]).issubset(away)]
                if len(parts) < 3:
                    continue
                picks = rng.sample(parts, 3)
                g = multisection(*(Clopen(sp, [p]) for p in picks)).element
                u = compressibility_witness(x0, 1, g)
                assert closed_support(g).issubset(u)
                assert not point_in(x0, u)
                # condition 2
                u1 = random_clopen(sp, rng, splits=3).intersect(away)
                u2 = random_clopen(sp, rng, splits=3, nonempty=True).intersect(away)
                if u2.is_empty():
                    continue
                g2 = compressibility_witness(x0, 2, u1, u2)
                assert image_clopen(g2, u1).issubset(u2)
                if not is_identity(g2):
                    assert point_in(x0, fixed_neighborhood(x0, g2))
                # condition 3: u1, u2 disjoint
                u3 = random_clopen(sp, rng, splits=3).intersect(away)
                u2b = away.difference(u1).difference(u3)
                done += 1
                g3 = compressibility_witness(x0, 3, u1, u2b, u3)
                assert image_clopen(g3, u1).isdisjoint(u3)
                assert closed_support(g3).isdisjoint(u2b)
                if not is_identity(g3):
                    assert point_in(x0, fixed_neighborhood(x0, g3))


def test_criterion_7_embedding_suite():
    with Criterion(7, "embedding suite for three targets", 120.0):
        BIN = binary_space()
        targets = (
            (make_space(1, 2, 1), clp(make_space(1, 2, 1), "0")),
            (make_space(1, 3, 1), clp(make_space(1, 3, 1), "0")),
            (make_space(2, 2, 1), Clopen(make_space(2, 2, 1), [make_space(2, 2, 1).root_brick(0).child(0, 0)])),
        )
        for sp, support in targets:
            emb = build_v_embedding(sp, support)
            assert support.issubset(emb.region)
            assert h0_class(emb.region) == 0
            rng = random.Random(7000 + sp.n + sp.kbar[0])
            for _ in range(100):
                v = random_element(BIN, rng, factors=2, splits=3)
                w = random_element(BIN, rng, factors=2, splits=3)
                assert equals(
                    evaluate_embedding(emb, compose(v, w)),
                    compose(evaluate_embedding(emb, v), evaluate_embedding(emb, w)),
                )
            nontrivial = 0
            while nontrivial < 50:
                v = random_element(BIN, rng, factors=2, splits=3)
                if is_identity(v):
                    continue
                nontrivial += 1
                img = evaluate_embedding(emb, v)
                assert not is_identity(img)
                assert closed_support(img).issubset(emb.region)
            report = image_vigor_check(emb, trials=100, depth=4, seed=7)
            assert report.successes == 100, report.failures


def test_criterion_8_h0_refinement_invariance():
    with Criterion(8, "class invariance under refinement, 500 clopens", 10.0):
        rng = random.Random(8000)
        spaces = [V2, V3, V2X2, V23, make_space(2, (3, 5)), make_space(1, 5, 2)]
        for _ in range(500):
            sp = rng.choice(spaces)
            x = random_clopen(sp, rng, splits=3)
            before = h0_class(x)
            pieces = list(x.bricks)
            for _ in range(rng.randint(0, 10)):
                if not pieces:
                    break
                i = rng.randrange(len(pieces))
                pieces[i:i + 1] = subdivide(sp, pieces[i], rng.randrange(sp.n))
            assert len(pieces) % sp.g == before
            assert h0_class(Clopen(sp, pieces)) == before


def test_criterion_9_reduced_form_uniqueness():
    with Criterion(9, "reduced table uniqueness in dimension one, 500 elements each", 30.0):
        for sp in (V2, V3):
            rng = random.Random(9000 + sp.kbar[0])
            for t in range(250):
                f = random_element(sp, rng, factors=2, splits=2)
                g = random_element(sp, rng, factors=2, splits=2)
                assert equals(f, g) == (canonicalize(f).cells == canonicalize(g).cells)
                # equal pair with a different presentation
                d, r = f.cells[0]
                refined = list(f.cells[1:])
                for a in range(sp.kbar[0]):
                    refined.append((d.child(0, a), r.child(0, a)))
                f2 = TableElement(sp, refined)
                assert equals(f, f2)
                assert canonicalize(f2).cells == canonicalize(f).cells
