import itertools
import random

import pytest

from bht import vembed, verify
from bht.cli import main
from bht.element import (
    TableElement,
    closed_support,
    compose,
    equals,
    identity,
    is_identity,
    order,
)
from bht.errors import DomainError
from bht.sampling import random_element
from bht.space import Clopen, SpaceSpec, h0_class
from bht.textio import Witness, format_clopen, format_vpair, format_witness
from bht.vembed import (
    VEmbedding,
    binary_space,
    build_v_embedding,
    evaluate_embedding,
    image_vigor_check,
)
from bht.witness import bisection_between
from util import B, V2, V3, clp

BIN = binary_space()


def vswap() -> TableElement:
    return TableElement(BIN, [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))])


def test_build_for_class_zero_support():
    emb = build_v_embedding(V2, clp(V2, "0"))
    assert emb.region == clp(V2, "0")
    assert emb.s0.image == clp(V2, "00")
    assert emb.s1.image == clp(V2, "01")


def test_build_enlarges_to_class_zero():
    emb = build_v_embedding(V3, clp(V3, "0"))
    assert emb.region == clp(V3, "0", "1")
    assert h0_class(emb.region) == 0
    assert h0_class(emb.s0.image) == 0
    assert h0_class(emb.s1.image) == 0
    assert emb.s0.image.union(emb.s1.image) == emb.region
    assert clp(V3, "0").issubset(emb.region)


def _broken(case):
    """(region, s0, s1) from the embedding for V3 and "0" with one condition broken."""
    emb = build_v_embedding(V3, clp(V3, "0"))
    y, s0, s1 = emb.region, emb.s0, emb.s1
    assert (y, s0.image, s1.image) == (clp(V3, "0", "1"), clp(V3, "00", "01"), clp(V3, "02", "1"))
    if case == "class":
        # halves of a class-one region cannot partition it as well
        y = clp(V3, "0")
        s0, s1 = bisection_between(y, clp(V3, "00")), bisection_between(y, clp(V3, "01"))
    elif case == "source":
        s1 = bisection_between(clp(V3, "0", "2"), s1.image)
    else:
        s1 = bisection_between(y, clp(V3, "02", "10"))
    return y, s0, s1


BROKEN = {
    "class": "region has class zero",
    "source": "halving maps start from the region",
    "cover": "halves partition the region",
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_embedding_rejects_broken_condition(case, capsys, tmp_path):
    y, s0, s1 = _broken(case)
    with pytest.raises(DomainError):
        VEmbedding(V3, y, s0, s1)
    path = tmp_path / "e.txt"
    path.write_text(format_witness(Witness("embed", blocks={"X": y, "Y": y, "s0": s0, "s1": s1})))
    assert main(["verify", str(path)]) == 1
    assert "FAIL " + BROKEN[case] in capsys.readouterr().out.splitlines()


def test_embedding_checks_run_once_per_embed_witness(monkeypatch, capsys, tmp_path):
    # build_v_embedding makes parts that pass the checks by construction, and
    # the verifier builds the embedding only after its own list has passed
    calls = []
    checks = vembed.embedding_checks
    for module in (vembed, verify):
        monkeypatch.setattr(module, "embedding_checks", lambda *a: calls.append(a) or checks(*a))
    build_v_embedding(V3, clp(V3, "0"))
    assert len(calls) == 0
    x, v = tmp_path / "x.clp", tmp_path / "v.vpair"
    x.write_text(format_clopen(clp(V3, "0")))
    v.write_text(format_vpair(vswap()))
    assert main(["embed-v", "--space", "1,3,1", "--support", str(x), str(v)]) == 0
    assert len(calls) == 0
    path = tmp_path / "e.txt"
    path.write_text(capsys.readouterr().out)
    assert main(["verify", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len(calls) == 1


def test_build_rejects_full_or_empty():
    with pytest.raises(DomainError):
        build_v_embedding(V2, V2.full())
    with pytest.raises(DomainError):
        build_v_embedding(V2, V2.empty())


def test_cells_partition_region():
    rng = random.Random(211)
    for space, support in ((V2, clp(V2, "0")), (V3, clp(V3, "2")), (SpaceSpec(2, (2, 2), 1), None)):
        if support is None:
            support = Clopen(space, [space.root_brick(0).child(0, 0)])
        emb = build_v_embedding(space, support)
        # uniform antichains of depth 1..4
        for depth in range(1, 5):
            cells = [emb.cell(w) for w in itertools.product((0, 1), repeat=depth)]
            total = space.empty()
            for i, c in enumerate(cells):
                for d in cells[i + 1:]:
                    assert c.isdisjoint(d)
                total = total.union(c)
            assert total == emb.region
        # random antichains from random binary partitions
        for _ in range(10):
            parts = [()]
            for _ in range(rng.randrange(1, 6)):
                i = rng.randrange(len(parts))
                w = parts[i]
                parts[i:i + 1] = [w + (0,), w + (1,)]
            total = space.empty()
            for w in parts:
                total = total.union(emb.cell(w))
            assert total == emb.region


def test_identity_and_swap():
    emb = build_v_embedding(V2, clp(V2, "0"))
    assert is_identity(evaluate_embedding(emb, identity(BIN)))
    img = evaluate_embedding(emb, vswap())
    assert order(img, 5) == 2
    assert closed_support(img) == emb.region
    # the swap exchanges the two halves
    from bht.element import image_clopen

    assert image_clopen(img, emb.s0.image) == emb.s1.image
    assert image_clopen(img, emb.s1.image) == emb.s0.image


def test_homomorphism_property():
    rng = random.Random(223)
    emb = build_v_embedding(V3, clp(V3, "0"))
    for _ in range(30):
        v = random_element(BIN, rng, factors=2, splits=3)
        w = random_element(BIN, rng, factors=2, splits=3)
        lhs = evaluate_embedding(emb, compose(v, w))
        rhs = compose(evaluate_embedding(emb, v), evaluate_embedding(emb, w))
        assert equals(lhs, rhs)


def test_nontriviality_and_support():
    rng = random.Random(227)
    emb = build_v_embedding(V2, clp(V2, "10"))
    seen = 0
    while seen < 20:
        v = random_element(BIN, rng, factors=2, splits=3)
        if is_identity(v):
            continue
        seen += 1
        img = evaluate_embedding(emb, v)
        assert not is_identity(img)
        assert closed_support(img).issubset(emb.region)


def test_image_vigor_check_small():
    emb = build_v_embedding(V2, clp(V2, "0"))
    report = image_vigor_check(emb, trials=20, depth=3, seed=5)
    assert report.all_ok()
    assert report.successes == 20
    assert report.failures == ()


def test_degenerate_vigor_instance_accepted():
    # y1 inside y2 gives the identity, which satisfies both containments
    from bht.element import image_clopen
    from bht.witness import vigor_witness

    emb = build_v_embedding(V2, clp(V2, "0"))
    xb = Clopen(BIN, [B(0, "0")])
    y1 = Clopen(BIN, [B(0, "00")])
    v = vigor_witness(xb, y1, xb)
    assert is_identity(v)
    img = evaluate_embedding(emb, v)
    assert is_identity(img)
    assert closed_support(img).issubset(emb.transport(xb))
    assert image_clopen(img, emb.transport(y1)).issubset(emb.transport(xb))


def test_embeddings_are_frozen_and_compare_by_identity():
    emb = build_v_embedding(V3, clp(V3, "0"))
    for field in ("space", "region", "s0", "s1", "_words"):
        with pytest.raises(AttributeError):
            setattr(emb, field, getattr(emb, field))
    # the word-bisection cache is the one mutable part
    assert emb.cell((0, 1)) == emb.cell((0, 1)) and (0, 1) in emb._words
    twin = VEmbedding._wrap(V3, emb.region, emb.s0, emb.s1)
    assert emb == emb and twin != emb and len({emb, twin}) == 2
