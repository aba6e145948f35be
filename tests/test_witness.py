import random

import pytest

import bht.element
import bht.space
import bht.witness
from bht.element import (
    PrefixBijection,
    TableElement,
    apply_point,
    closed_support,
    compose,
    equals,
    identity,
    image_clopen,
    invert,
    is_identity,
    order,
)
from bht.errors import ClassMismatchError, DomainError, UnsatisfiableError
from bht.sampling import random_clopen, random_element, random_point
from bht.space import Brick, Clopen, SpaceSpec, h0_class, point_in, subdivide
from bht.textio import Witness, format_witness, parse_witness
from bht.vembed import binary_space, build_v_embedding, evaluate_embedding
from bht.verify import run_checks
from bht.witness import (
    avoiding_neighborhood,
    bisection_between,
    brick_neighborhood,
    compress,
    compressibility_witness,
    conjugate_family,
    doubling_witness,
    multisection,
    vigor_case,
    vigor_witness,
)
from util import (
    B, V2, V3, V23, V2x2, assert_frozen_value, clp, compressibility_claims, conjugate_blocks,
    conjugate_claims, cycle_claims, pt, set_claims,
)

V4 = SpaceSpec(1, (4,), 1)
V2R2 = SpaceSpec(1, (2,), 2)
V3R2 = SpaceSpec(1, (3,), 2)
SPACES = [V2, V3, V2x2, V23, V2R2, V3R2]


def test_compress_examples():
    out = compress(V2.full(), clp(V2, "0"))
    assert out.cells == ((B(0, "e"), B(0, "00")),)
    assert out.source == V2.full()
    assert out.image.issubset(clp(V2, "0")) and out.image != clp(V2, "0")

    self_c = compress(clp(V2, "0"), clp(V2, "0"))
    assert self_c.cells == ((B(0, "0"), B(0, "00")),)

    a = clp(V2, "00", "010", "1")  # three bricks, not sibling-mergeable
    out = compress(a, clp(V2, "0"))
    assert len(out.cells) == 3
    # 2^2 = 4 >= 3 + 1 depth-2 pieces of the first brick of b; one spare
    assert {r for _, r in out.cells} == {B(0, "000"), B(0, "001"), B(0, "010")}
    assert out.source == a

    with pytest.raises(DomainError):
        compress(V2.empty(), V2.full())


def test_compress_random_invariants():
    rng = random.Random(101)
    for _ in range(60):
        space = rng.choice(SPACES)
        a = random_clopen(space, rng, splits=3, nonempty=True)
        b = random_clopen(space, rng, splits=3, nonempty=True)
        out = compress(a, b)
        assert out.source == a
        assert out.image.issubset(b)
        assert out.image != b


def test_doubling_examples():
    b, b2 = doubling_witness(V2.full())
    assert b.source == V2.full() and b2.source == V2.full()
    assert b.image.isdisjoint(b2.image)
    assert b.image.union(b2.image).issubset(V2.full())
    assert b.cells == ((B(0, "e"), B(0, "00")),)

    b, b2 = doubling_witness(clp(V3, "1"))
    assert b.image.issubset(clp(V3, "10"))
    assert b2.image.issubset(clp(V3, "11"))


def test_doubling_random_invariants():
    rng = random.Random(103)
    for _ in range(60):
        space = rng.choice(SPACES)
        x = random_clopen(space, rng, splits=3, nonempty=True)
        b, b2 = doubling_witness(x)
        assert b.source == x and b2.source == x
        assert b.image.isdisjoint(b2.image)
        union = b.image.union(b2.image)
        assert union.issubset(x) and union != x


def test_between_examples():
    out = bisection_between(clp(V2, "0"), clp(V2, "1"))
    assert out.cells == ((B(0, "0"), B(0, "1")),)

    with pytest.raises(ClassMismatchError) as err:
        bisection_between(clp(V3, "0"), clp(V3, "1", "2"))
    assert err.value.left == 1 and err.value.right == 0 and err.value.modulus == 2

    # {10,11,12} is the clopen {1}; source and image come out exact
    out = bisection_between(clp(V3, "0"), clp(V3, "10", "11", "12"))
    assert out.source == clp(V3, "0")
    assert out.image == clp(V3, "10", "11", "12") == clp(V3, "1")
    assert out.cells == ((B(0, "0"), B(0, "1")),)

    # against a genuinely three-brick target the source splits once
    out = bisection_between(clp(V3, "0"), clp(V3, "10", "110", "2"))
    assert out.source == clp(V3, "0")
    assert out.image == clp(V3, "10", "110", "2")
    assert [d for d, _ in out.cells] == [B(0, "00"), B(0, "01"), B(0, "02")]


def test_between_random_invariants():
    rng = random.Random(107)
    hits = 0
    for _ in range(120):
        space = rng.choice([V3, SpaceSpec(2, (3, 5), 1), V2, SpaceSpec(1, (5,), 2)])
        a = random_clopen(space, rng, splits=3, nonempty=True)
        b = random_clopen(space, rng, splits=3, nonempty=True)
        if h0_class(a) != h0_class(b):
            with pytest.raises(ClassMismatchError):
                bisection_between(a, b)
            continue
        hits += 1
        out = bisection_between(a, b)
        assert out.source == a
        assert out.image == b
    assert hits > 20


def test_between_finds_a_common_count_far_above_both_counts():
    # both sides have class 1 mod g = 2, and the first common count is
    # 10003 = 1 + 10002 = 3 + 10000, 10000 past the larger side
    space = SpaceSpec(2, (10001, 10003), 1)
    a = Clopen(space, [Brick(0, ((0,), ()))])
    b = Clopen(space, [Brick(0, ((letter,), ())) for letter in (1, 2, 3)])
    out = bisection_between(a, b)
    assert len(out.cells) == 10003
    assert out.source == a and out.image == b


def test_multisection_example():
    m = multisection(clp(V4, "0"), clp(V4, "1"), clp(V4, "2"))
    assert m.element.cells == (
        (B(0, "0"), B(0, "1")),
        (B(0, "1"), B(0, "2")),
        (B(0, "2"), B(0, "0")),
        (B(0, "3"), B(0, "3")),
    )
    assert order(m.element, 10) == 3


def test_multisection_errors():
    with pytest.raises(DomainError):
        multisection(clp(V4, "0"), clp(V4, "0"), clp(V4, "2"))
    with pytest.raises(DomainError):
        multisection(V4.empty(), clp(V4, "1"), clp(V4, "2"))
    with pytest.raises(ClassMismatchError):
        multisection(clp(V3, "00"), clp(V3, "01"), clp(V3, "10", "11"))


def test_multisection_random_invariants():
    rng = random.Random(109)
    done = 0
    while done < 40:
        space = rng.choice(SPACES)
        parts = [space.root_brick(i) for i in range(space.r)]
        for _ in range(4):
            i = rng.randrange(len(parts))
            parts[i:i + 1] = subdivide(space, parts[i], rng.randrange(space.n))
        if len(parts) < 3:
            continue
        picks = rng.sample(parts, 3)
        sets = tuple(Clopen(space, [p]) for p in picks)
        m = multisection(*sets)
        done += 1
        assert order(m.element, 5) == 3
        assert closed_support(m.element) == sets[0].union(sets[1]).union(sets[2])
        for _ in range(5):
            p = random_point(space, rng)
            if not point_in(p, sets[0]):
                continue
            q = p
            for _ in range(3):
                q = apply_point(m.element, q)
            assert q == p
        img = image_clopen(m.element, sets[0])
        assert img == sets[1]
        assert image_clopen(m.element, sets[1]) == sets[2]
        assert image_clopen(m.element, sets[2]) == sets[0]


def test_vigor_case_a_identity():
    out = vigor_witness(clp(V2, "0"), clp(V2, "00"), clp(V2, "0"))
    assert is_identity(out)
    assert vigor_case(clp(V2, "0"), clp(V2, "00"), clp(V2, "0")) == "a"


def test_vigor_case_b_derived():
    x, y1, y2 = clp(V2, "0"), clp(V2, "00"), clp(V2, "01")
    assert vigor_case(x, y1, y2) == "b"
    g = vigor_witness(x, y1, y2)
    assert order(g, 5) == 3
    assert closed_support(g).issubset(x)
    assert image_clopen(g, y1).issubset(y2)
    # the cycle visits y1 -> 0100 -> 0110 -> y1
    assert image_clopen(g, y1) == clp(V2, "0100")
    assert image_clopen(g, clp(V2, "0100")) == clp(V2, "0110")
    assert image_clopen(g, clp(V2, "0110")) == y1


def test_vigor_case_c():
    x, y1, y2 = clp(V2, "0"), clp(V2, "00"), clp(V2, "000")
    assert vigor_case(x, y1, y2) == "c"
    g = vigor_witness(x, y1, y2)
    assert closed_support(g).issubset(x)
    assert image_clopen(g, y1).issubset(y2)


def test_vigor_errors():
    with pytest.raises(DomainError):
        vigor_witness(V2.full(), clp(V2, "0"), clp(V2, "1"))
    with pytest.raises(DomainError):
        vigor_witness(clp(V2, "0"), clp(V2, "00"), V2.empty())
    with pytest.raises(UnsatisfiableError):
        vigor_witness(clp(V2, "0"), clp(V2, "0"), clp(V2, "00"))
    with pytest.raises(DomainError):
        vigor_witness(clp(V2, "0"), clp(V2, "1"), clp(V2, "00"))


def test_vigor_random_invariants():
    rng = random.Random(113)
    done = cases = 0
    while done < 60:
        space = rng.choice(SPACES)
        x = random_clopen(space, rng, splits=3, nonempty=True, proper=True)
        y1 = random_clopen(space, rng, splits=3).intersect(x)
        y2 = random_clopen(space, rng, splits=3, nonempty=True).intersect(x)
        if y2.is_empty():
            continue
        done += 1
        case = vigor_case(x, y1, y2)
        if case == "c" and y1 == x:
            with pytest.raises(UnsatisfiableError):
                vigor_witness(x, y1, y2)
            continue
        g = vigor_witness(x, y1, y2)
        assert closed_support(g).issubset(x)
        assert image_clopen(g, y1).issubset(y2)
        if case == "b":
            cases += 1
            assert order(g, 5) == 3
    assert cases > 10


def test_distinct_conjugates_swap():
    swap = TableElement(V2, [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))])
    fam = conjugate_family(swap, 3)
    outs = fam.conjugates
    assert len(outs) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert not equals(outs[i], outs[j])
        h = fam.conjugators[i]
        assert equals(outs[i], compose(compose(h, swap), invert(h)))
        assert image_clopen(outs[i], fam.moved).issubset(fam.targets[i])
        assert is_identity(compose(h, invert(h)))
    for i in range(3):
        for j in range(i + 1, 3):
            assert fam.targets[i].isdisjoint(fam.targets[j])


def test_witness_records_are_frozen_values():
    swap = TableElement(V2, [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))])
    assert_frozen_value(conjugate_family(swap, 2))
    assert_frozen_value(multisection(clp(V3, "0"), clp(V3, "1"), clp(V3, "2")))


def test_distinct_conjugates_random():
    rng = random.Random(127)
    done = 0
    while done < 20:
        space = rng.choice(SPACES)
        g = random_element(space, rng, factors=2, splits=2)
        if is_identity(g):
            continue
        done += 1
        fam = conjugate_family(g, 4)
        for i in range(4):
            assert equals(
                fam.conjugates[i],
                compose(compose(fam.conjugators[i], g), invert(fam.conjugators[i])),
            )
            assert image_clopen(fam.conjugates[i], fam.moved).issubset(fam.targets[i])
            # conjugator: an order-3 cycle fixing the moved brick pointwise
            assert order(fam.conjugators[i], 4) == 3
            assert closed_support(fam.conjugators[i]).isdisjoint(fam.moved)
            for j in range(i + 1, 4):
                assert not equals(fam.conjugates[i], fam.conjugates[j])
    with pytest.raises(DomainError):
        conjugate_family(identity(V2), 2)


def x0_point(space):
    return pt(space, *((("e", "0"),) * space.n))


def test_compressibility_condition1():
    x0 = x0_point(V2)
    g = vigor_witness(clp(V2, "1"), clp(V2, "10"), clp(V2, "11"))
    u = compressibility_witness(x0, 1, g)
    assert closed_support(g).issubset(u)
    assert not point_in(x0, u)
    moved = TableElement(V2, [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))])
    with pytest.raises(DomainError):
        compressibility_witness(x0, 1, moved)


def test_compressibility_condition2():
    x0 = x0_point(V2)
    u1, u2 = clp(V2, "10"), clp(V2, "11")
    g = compressibility_witness(x0, 2, u1, u2)
    assert image_clopen(g, u1).issubset(u2)
    nb = avoiding_neighborhood(x0, closed_support(g))
    assert point_in(x0, nb)
    assert nb.isdisjoint(closed_support(g))


def test_compressibility_condition3():
    x0 = x0_point(V2)
    u1, u2, u3 = clp(V2, "10"), clp(V2, "110"), clp(V2, "111")
    g = compressibility_witness(x0, 3, u1, u2, u3)
    assert image_clopen(g, u1).isdisjoint(u3)
    assert closed_support(g).isdisjoint(u2)
    assert point_in(x0, avoiding_neighborhood(x0, closed_support(g)))
    with pytest.raises(DomainError):
        compressibility_witness(x0, 3, clp(V2, "10"), clp(V2, "10"), u3)


def test_compressibility_random():
    rng = random.Random(131)
    for space in (V2, V3):
        x0 = x0_point(space)
        done = 0
        while done < 15:
            d = rng.randint(1, 3)
            away = brick_neighborhood(x0, d).complement()
            u1 = random_clopen(space, rng, splits=3).intersect(away)
            u2 = random_clopen(space, rng, splits=3, nonempty=True).intersect(away)
            if u2.is_empty():
                continue
            done += 1
            g = compressibility_witness(x0, 2, u1, u2)
            assert image_clopen(g, u1).issubset(u2)
            if not is_identity(g):
                assert point_in(x0, avoiding_neighborhood(x0, closed_support(g)))
            u3 = random_clopen(space, rng, splits=3).intersect(away).difference(u1)
            g3 = compressibility_witness(x0, 3, u1, u3.complement().intersect(away).difference(u1), u3)
            assert image_clopen(g3, u1).isdisjoint(u3)


def test_avoiding_neighborhood():
    x0 = x0_point(V2)
    nb = avoiding_neighborhood(x0, clp(V2, "01"), clp(V2, "1"))
    assert point_in(x0, nb)
    assert nb.isdisjoint(clp(V2, "01")) and nb.isdisjoint(clp(V2, "1"))
    with pytest.raises(DomainError):
        avoiding_neighborhood(x0, clp(V2, "00"))


def test_witnesses_run_no_validating_constructor(monkeypatch):
    # every witness is derived from validated inputs and wrapped as it is
    # built, so none of these calls validates a bisection, table or brick again
    g = multisection(clp(V3, "0"), clp(V3, "10"), clp(V3, "11")).element
    v = TableElement(binary_space(), [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))])
    x0 = pt(V3, ("", "2"))
    # the inputs are checked here, before the count starts
    a2, b2, x2, y1, y2b, y2c = (clp(V2, *s.split()) for s in ("0", "1", "0 10", "00", "01", "000"))
    a3, b3, c3, d3, e3 = (clp(V3, *s.split()) for s in ("0", "1", "2", "10 11 2", "20"))
    calls = []
    for cls in (PrefixBijection, TableElement):
        init = cls.__dict__["__init__"]
        monkeypatch.setattr(cls, "__init__",
                            lambda self, *a, cls=cls, init=init: calls.append(cls) or init(self, *a))
    validate = Brick.validate
    monkeypatch.setattr(Brick, "validate", lambda b, sp: calls.append(Brick) or validate(b, sp))
    compress(a2, b2)
    doubling_witness(x2)
    bisection_between(a3, d3)
    bisection_between(V3.empty(), V3.empty())
    multisection(a3, b3, c3)
    for y2, case in ((a2, "a"), (y2b, "b"), (y2c, "c")):
        assert vigor_case(a2, y1, y2) == case
        vigor_witness(a2, y1, y2)
    conjugate_family(g, 3)
    compressibility_witness(x0, 1, g)
    compressibility_witness(x0, 2, a3, b3)
    compressibility_witness(x0, 3, a3, b3, e3)
    evaluate_embedding(build_v_embedding(a3), v)
    assert calls == []


def test_vigor_case_b_takes_its_free_region_once(monkeypatch):
    # the case rule and the cycle's free region share one y2 \ y1; the other
    # difference is the complement that closes the cycle
    x, y1, y2 = clp(V2, "0"), clp(V2, "00"), clp(V2, "01")
    calls = []
    difference = Clopen.difference
    monkeypatch.setattr(Clopen, "difference", lambda a, b: calls.append((a, b)) or difference(a, b))
    vigor_witness(x, y1, y2)
    assert len(calls) == 2 and calls.count((y2, y1)) == 1


def test_each_set_claim_fails_alone_under_some_mutation():
    def to(*words):
        return PrefixBijection(V2, [(B(0, "0"), B(0, w)) for w in words])

    a, b = clp(V2, "0"), clp(V2, "1")
    assert compress(a, b).cells == to("10").cells
    assert bisection_between(a, b).cells == to("1").cells
    assert [d.cells for d in doubling_witness(a)] == [to("000").cells, to("010").cells]
    cases = [
        ("compress", {"A": a, "B": b, "output": to()}, "source equals A"),
        ("compress", {"A": a, "B": clp(V2, "11"), "output": to("10")}, "image inside B"),
        ("compress", {"A": a, "B": clp(V2, "10"), "output": to("10")}, "image strictly smaller than B"),
        ("double", {"X": a, "output1": to(), "output2": to("010")}, "first source equals X"),
        ("double", {"X": a, "output1": to("000"), "output2": to()}, "second source equals X"),
        ("double", {"X": a, "output1": to("000"), "output2": to("000")}, "images disjoint"),
        ("double", {"X": a, "output1": to("000"), "output2": to("1")}, "images inside X"),
        ("double", {"X": a, "output1": to("00"), "output2": to("01")}, "images leave room in X"),
        ("between", {"A": clp(V2, "0", "10"), "B": b, "output": to("1")}, "source equals A"),
        ("between", {"A": a, "B": V2.full(), "output": to("1")}, "image equals B"),
    ]
    for kind, blocks, broken in cases:
        w = parse_witness(format_witness(Witness(kind, blocks=blocks)))
        claims = run_checks(w)
        assert claims == set_claims(kind, w.blocks)
        assert [what for ok, what in claims if not ok] == [broken], (kind, broken)


def test_each_cycle_claim_fails_under_some_mutation():
    def t3(*pairs):
        return TableElement(V3, [(B(0, d), B(0, r)) for d, r in (p.split() for p in pairs)])

    x0, x1, x2 = clp(V3, "0"), clp(V3, "1"), clp(V3, "2")
    cycle = multisection(x0, x1, x2).element
    assert cycle.cells == t3("0 1", "1 2", "2 0").cells
    x, y00, y01 = clp(V3, "0"), clp(V3, "00"), clp(V3, "01")
    assert vigor_case(x, y00, y01) == "b"
    vig = vigor_witness(x, y00, y01)
    # once g^3 = 1, any two "maps" claims imply the third (g(X2) = g^3(X0)),
    # so none of them fails alone while the order claim holds
    maps = ["maps X0 onto X1", "maps X1 onto X2", "maps X2 onto X0"]
    cases = [
        ("multisection", {"X0": x0, "X1": x1, "X2": x2, "element": cycle}, {}, []),
        ("multisection", {"X0": x0, "X1": x1, "X2": x2,
                          "element": t3("0 1", "1 2", "20 01", "21 02", "22 00")}, {},
         ["element has order 3"]),
        ("multisection", {"X0": clp(V3, "00"), "X1": clp(V3, "01"), "X2": clp(V3, "02"),
                          "element": t3("00 01", "01 02", "02 00", "10 11", "11 12", "12 10", "2 2")},
         {}, ["support is the union of the cycle sets"]),
        ("multisection", {"X0": x0, "X1": x2, "X2": x1, "element": cycle}, {}, maps),
        ("multisection", {"X0": V3.full(), "X1": V3.full(), "X2": V3.full(), "element": cycle}, {},
         ["cycle sets pairwise disjoint"]),
        ("vigor", {"X": x, "Y1": y00, "Y2": y01, "element": vig}, {"case": "b"}, []),
        ("vigor", {"X": x, "Y1": y00, "Y2": y00,
                   "element": t3("0 0", "10 11", "11 12", "12 10", "2 2")}, {"case": "a"},
         ["support inside X"]),
        ("vigor", {"X": x, "Y1": y00, "Y2": y00,
                   "element": t3("00 01", "01 02", "02 00", "1 1", "2 2")}, {"case": "a"},
         ["image of Y1 inside Y2"]),
        ("vigor", {"X": x, "Y1": y00, "Y2": y01,
                   "element": t3("00 01", "01 00", "02 02", "1 1", "2 2")}, {"case": "b"},
         ["single-cycle case has order 3"]),
        ("vigor", {"X": x, "Y1": y00, "Y2": y01, "element": vig}, {"case": "a"},
         ["case parameter matches the sets"]),
    ]
    for kind, blocks, params, broken in cases:
        w = parse_witness(format_witness(Witness(kind, params=params, blocks=blocks)))
        claims = run_checks(w)
        assert claims == cycle_claims(kind, w.blocks, w.params)
        assert [what for ok, what in claims if not ok] == broken, (kind, broken)


def test_verify_needs_no_unique_canonical_form(monkeypatch):
    # With every family merge skipped, each clopen and table still denotes
    # the right set or map, but one set can have many forms.  Verify decides
    # its set claims by meets and measure, so valid witnesses still pass.
    a, b = clp(V23, "0,e"), clp(V23, "1,0", "10,1")
    x0, x1, x2 = clp(V23, "0,0"), clp(V23, "0,1"), clp(V23, "1,e")
    emb = build_v_embedding(a)
    v = TableElement(binary_space(), [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))])
    witnesses = [
        Witness("between", blocks={"A": a, "B": b, "output": bisection_between(a, b)}),
        Witness("embed", blocks={"X": a, "Y": emb.region, "s0": emb.s0, "s1": emb.s1,
                                 "velement": v, "image": evaluate_embedding(emb, v)}),
        Witness("multisection", blocks={"X0": x0, "X1": x1, "X2": x2,
                                        "element": multisection(x0, x1, x2).element}),
    ]
    texts = [format_witness(w) for w in witnesses]
    for module in (bht.space, bht.element, bht.witness):
        monkeypatch.setattr(module, "merge_families", lambda sp, cells: sorted(cells))
    monkeypatch.setattr(bht.space, "_family_stack", lambda k, cells: sorted(cells))
    # the sources of the bisection are A cut finer, and stay so
    assert bisection_between(a, b).source.bricks != a.bricks
    for text in texts:
        assert [what for ok, what in run_checks(parse_witness(text)) if not ok] == [], text


def test_each_conjugates_claim_fails_alone_under_some_mutation():
    swap = TableElement(V2, [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))])
    fam = conjugate_family(swap, 2)
    c1, h1, t1, t2 = fam.conjugates[0], fam.conjugators[0], fam.targets[0], fam.targets[1]
    # h1 fixes the moved brick pointwise and is not the identity
    assert closed_support(h1).isdisjoint(fam.moved) and not is_identity(h1)
    assert (fam.moved, fam.image) == (clp(V2, "00"), clp(V2, "10"))
    cases = [
        ({}, []),
        ({"conjugate1": compose(c1, h1)}, ["conjugate 1 equals h g h^-1"]),
        ({"target1": V2.empty()}, ["conjugate 1 maps the moved brick into its target"]),
        ({"moved": V2.empty(), "image": V2.empty(), "conjugate2": c1, "conjugator2": h1},
         ["conjugates pairwise distinct"]),
        # equal conjugates whose targets overlap: disjoint images cannot tell
        # them apart, so they are compared
        ({"conjugate2": c1, "conjugator2": h1, "target2": t2.union(t1)},
         ["conjugates pairwise distinct", "targets pairwise disjoint"]),
        ({"target2": t2.union(t1)}, ["targets pairwise disjoint"]),
        ({"image": clp(V2, "11")}, ["element maps the moved brick onto the image"]),
    ]
    for change, broken in cases:
        blocks = dict(conjugate_blocks(fam), **change)
        w = parse_witness(format_witness(Witness("conjugates", params={"count": "2"}, blocks=blocks)))
        claims = run_checks(w)
        assert claims == conjugate_claims(w.blocks, w.params)
        assert [what for ok, what in claims if not ok] == broken, change


def test_each_compressibility_claim_fails_alone_under_some_mutation():
    def t2(*pairs):
        return TableElement(V2, [(B(0, d), B(0, r)) for d, r in (p.split() for p in pairs)])

    x0 = x0_point(V2)
    g1 = vigor_witness(clp(V2, "1"), clp(V2, "10"), clp(V2, "11"))
    u = compressibility_witness(x0, 1, g1)
    assert u == clp(V2, "1")
    u1, u2, u3 = clp(V2, "10"), clp(V2, "11"), clp(V2, "111")
    u2b = clp(V2, "110")
    cases = [
        ({"element": g1, "output": u}, []),
        ({"element": g1, "output": clp(V2, "10")}, ["support inside the subbase member"]),
        ({"element": g1, "output": V2.full()}, ["subbase member avoids the point"]),
        ({"U1": u1, "U2": u2, "element": compressibility_witness(x0, 2, u1, u2)}, []),
        ({"U1": u1, "U2": u2, "element": identity(V2)}, ["image of U1 inside U2"]),
        ({"U1": u1, "U2": clp(V2, "00", "11"), "element": compressibility_witness(x0, 2, u1, u2)},
         ["U1, U2 avoid the point"]),
        ({"U1": u1, "U2": u2, "element": t2("00 01", "01 00", "10 11", "11 10")},
         ["element fixes a neighborhood of the point"]),
        ({"U1": u1, "U2": u2b, "U3": u3, "element": compressibility_witness(x0, 3, u1, u2b, u3)}, []),
        ({"U1": u1, "U2": u2b, "U3": u3, "element": t2("0 0", "10 111", "110 110", "111 10")},
         ["image of U1 misses U3"]),
        ({"U1": u1, "U2": u2b, "U3": u3, "element": t2("0 0", "10 10", "110 111", "111 110")},
         ["support misses U2"]),
        ({"U1": u1, "U2": u1, "U3": u3, "element": identity(V2)}, ["U1 and U2 disjoint"]),
        ({"U1": u1, "U2": u2b, "U3": u3, "element": t2("00 01", "01 00", "1 1")},
         ["element fixes a neighborhood of the point"]),
        ({"U1": u1, "U2": u2b, "U3": clp(V2, "0"), "element": identity(V2)},
         ["U1, U2, U3 avoid the point"]),
    ]
    for blocks, broken in cases:
        params = {"condition": "1" if "output" in blocks else str(len(blocks) - 1), "point": "root:0 e(0)"}
        w = parse_witness(format_witness(Witness("compressibility", params=params, blocks=blocks)))
        claims = run_checks(w)
        assert claims == compressibility_claims(w.blocks, w.params)
        assert [what for ok, what in claims if not ok] == broken, (params["condition"], broken)
