import random

import pytest

from bht.element import PrefixBijection, TableElement, canonicalize
from bht.errors import ParseError
from bht.sampling import random_clopen, random_element, random_point
from bht.space import Brick, Clopen, SpaceSpec
from bht.textio import (
    Witness,
    format_bisection,
    format_clopen,
    format_point,
    format_table,
    format_vpair,
    format_witness,
    parse_clopen,
    parse_point,
    parse_table,
    parse_table_like,
    parse_vpair,
    parse_witness,
)
from bht.vembed import binary_space
from bht.witness import compress
from util import B, V2, V23, V3, clp, pt


def test_clopen_round_trip_fixed():
    x = clp(V23, "0,e", "1,01")
    text = format_clopen(x)
    assert text == "space n=2 k=2,3 r=1\nroot:0 0,e\nroot:0 1,01\n"
    assert parse_clopen(text) == x
    assert parse_clopen(format_clopen(V2.empty())) == V2.empty()


def test_clopen_round_trip_random():
    rng = random.Random(301)
    for _ in range(60):
        space = rng.choice([V2, V3, V23, SpaceSpec(1, (2,), 3)])
        x = random_clopen(space, rng, splits=3)
        assert parse_clopen(format_clopen(x)) == x


def test_table_round_trip():
    rng = random.Random(307)
    for _ in range(40):
        space = rng.choice([V2, V3, V23])
        g = canonicalize(random_element(space, rng, factors=2, splits=2))
        text = format_table(g)
        assert parse_table(text) == g
        assert text == format_table(parse_table(text))


def test_bisection_round_trip():
    b = PrefixBijection(V2, [(B(0, "0"), B(0, "10"))])
    text = format_bisection(b)
    assert text.startswith("bisection n=1 k=2 r=1\n")
    assert parse_table_like(text) == b
    with pytest.raises(ParseError):
        parse_table(text)


def test_vpair_round_trip():
    v = TableElement(binary_space(), [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))])
    text = format_vpair(v)
    assert text == "vpair\n0 -> 1\n1 -> 0\n"
    assert parse_vpair(text) == v


def test_point_round_trip():
    rng = random.Random(311)
    for _ in range(60):
        space = rng.choice([V2, V3, V23])
        p = random_point(space, rng)
        assert parse_point(format_point(p), space) == p
    assert format_point(pt(V2, ("e", "0"))) == "root:0 e(0)"
    assert parse_point("root:0 1(0)", V2) == pt(V2, ("1", "0"))


def test_parse_errors_report_lines():
    with pytest.raises(ParseError, match="line 1"):
        parse_clopen("nonsense\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_clopen("space n=1 k=2 r=1\nroot:0 0,1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_table("table n=1 k=2 r=1\nroot:0 0 root:0 1\n")
    with pytest.raises(ParseError, match="^line 1: target bricks overlap"):
        parse_vpair("vpair\n0 -> 0\n1 -> e\n")
    with pytest.raises(ParseError):
        parse_point("0(1)", V2)
    with pytest.raises(ParseError):
        parse_clopen("space n=1 k=99 r=x\n")
    # headers that parse but describe no space
    for header, message in (("space n=1 k=1 r=1", "every alphabet size must be >= 2"),
                            ("space n=0 k=2 r=1", "dimension count must be >= 1")):
        with pytest.raises(ParseError, match="^line 2: %s$" % message):
            parse_clopen("# comment\n%s\nroot:0 e\n" % header)
        with pytest.raises(ParseError, match="^line 1: %s$" % message):
            parse_table(header.replace("space", "table") + "\nroot:0 e -> root:0 e\n")


def test_witness_round_trip():
    x = clp(V2, "0")
    g = TableElement(V2, [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))])
    w = Witness("vigor", params={"case": "b"}, blocks={"X": x, "element": g})
    text = format_witness(w)
    back = parse_witness(text)
    assert back.kind == "vigor"
    assert back.params == {"case": "b"}
    assert back.blocks["X"] == x
    assert back.blocks["element"] == g
    assert format_witness(back) == text


def test_witness_parse_errors():
    with pytest.raises(ParseError):
        parse_witness("not a witness\n")
    lines = format_witness(Witness("compress", blocks={
        "A": clp(V2, "0"), "B": V2.full(), "output": compress(clp(V2, "0"), V2.full())})).splitlines()
    assert lines[7:12] == ["root:0 e", "end", "begin output", "bisection n=1 k=2 r=1", "root:0 0 -> root:0 0"]
    # errors inside a block report the line of the file, not of the block
    for i, bad, line in ((7, "root:0 2", 8), (11, "root:0 ? -> root:0 0", 12), (11, "root:0 2 -> root:0 0", 11)):
        text = "\n".join(lines[:i] + [bad] + lines[i + 1:]) + "\n"
        with pytest.raises(ParseError, match="^line %d: " % line):
            parse_witness(text)
    with pytest.raises(ParseError, match="^line 3: target bricks overlap"):
        parse_witness("witness embed\nbegin velement\nvpair\n0 -> 0\n1 -> e\nend\n")
    with pytest.raises(ParseError):
        parse_witness("witness vigor\nbegin X\nspace n=1 k=2 r=1\n")
    with pytest.raises(ParseError, match="^line 4: every alphabet size must be >= 2$"):
        parse_witness("witness compress\n\nbegin A\nspace n=1 k=1 r=1\nroot:0 e\nend\n")
    w = parse_witness("witness compressibility\ncondition 2\n# note\npoint root:0 e(0)\n")
    assert w.param_lines == {"condition": 2, "point": 4}
