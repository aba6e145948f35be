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
    format_witness,
    parse,
    parse_point,
    parse_witness,
)
from bht.vembed import binary_space
from bht.witness import bisection_between, compress
from util import B, V2, V23, V3, clp, pt, vpair_text


def test_clopen_round_trip_fixed():
    x = clp(V23, "0,e", "1,01")
    text = format_clopen(x)
    assert text == "space n=2 k=2,3 r=1\nroot:0 0,e\nroot:0 1,01\n"
    assert parse(text, Clopen) == x
    assert parse(format_clopen(V2.empty()), Clopen) == V2.empty()


def test_clopen_round_trip_random():
    rng = random.Random(301)
    for _ in range(60):
        space = rng.choice([V2, V3, V23, SpaceSpec(1, (2,), 3)])
        x = random_clopen(space, rng, splits=3)
        assert parse(format_clopen(x), Clopen) == x


def test_clopen_file_checks_each_brick_once(monkeypatch):
    space = SpaceSpec(2, (2, 3), 2)
    x = random_clopen(space, random.Random(53), splits=8, nonempty=True)
    lines = format_clopen(x).splitlines()
    calls = []
    validate = Brick.validate
    # the checker takes the whole list; record every brick it is handed
    monkeypatch.setattr(Brick, "validate", lambda sp, bricks: calls.extend(bricks) or validate(sp, bricks))
    assert parse(format_clopen(x), Clopen) == x
    assert calls == list(x.bricks)
    # a bad letter on brick line k still names line k
    for k in range(2, len(lines) + 1):
        bad = lines[:k - 1] + ["root:0 0,3"] + lines[k:]
        with pytest.raises(ParseError, match="^line %d: letter out of range in dimension 1$" % k):
            parse("\n".join(bad) + "\n", Clopen)


def test_bad_cell_names_its_own_line():
    # a bad letter or root on cell line k names line k, in a table, a
    # bisection and a vpair alike
    rng = random.Random(59)
    space = SpaceSpec(2, (2, 3), 2)
    x, y = (random_clopen(space, rng, splits=4, nonempty=True, proper=True) for _ in range(2))
    files = [format_table(random_element(space, rng, factors=2, splits=4)),
             format_bisection(compress(x, y)),
             vpair_text(random_element(binary_space(), rng, factors=2, splits=4))]
    edits = {
        "cells": [(lambda d, r: "root:0 2,e -> " + r, "letter out of range in dimension 0"),
                  (lambda d, r: d + " -> root:1 e,3", "letter out of range in dimension 1"),
                  (lambda d, r: d + " -> root:2 e,e", "root 2 out of range")],
        "vpair": [(lambda d, r: "2 -> " + r, "letter out of range in dimension 0"),
                  (lambda d, r: d + " -> 0102", "letter out of range in dimension 0")],
    }
    for text in files:
        lines = text.splitlines()
        for k in range(2, len(lines) + 1):
            dom, _, ran = lines[k - 1].partition(" -> ")
            for edit, error in edits["vpair" if lines[0] == "vpair" else "cells"]:
                bad = "\n".join(lines[:k - 1] + [edit(dom, ran)] + lines[k:]) + "\n"
                with pytest.raises(ParseError, match="^line %d: %s$" % (k, error)):
                    parse(bad)


def test_table_round_trip():
    rng = random.Random(307)
    for _ in range(40):
        space = rng.choice([V2, V3, V23])
        g = canonicalize(random_element(space, rng, factors=2, splits=2))
        text = format_table(g)
        assert parse(text, TableElement) == g
        assert text == format_table(parse(text, TableElement))


def test_bisection_round_trip():
    b = PrefixBijection(V2, [(B(0, "0"), B(0, "10"))])
    text = format_bisection(b)
    assert text.startswith("bisection n=1 k=2 r=1\n")
    assert parse(text) == b
    with pytest.raises(ParseError, match="^line 1: expected a 'table' or 'vpair' header$"):
        parse(text, TableElement)


def test_vpair_round_trip():
    v = TableElement(binary_space(), [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))])
    text = vpair_text(v)
    assert text == "vpair\n0 -> 1\n1 -> 0\n"
    assert parse(text) == v


def test_point_round_trip():
    rng = random.Random(311)
    for _ in range(60):
        space = rng.choice([V2, V3, V23])
        p = random_point(space, rng)
        assert parse_point(format_point(p), space) == p
    assert format_point(pt(V2, ("e", "0"))) == "root:0 e(0)"
    assert parse_point("root:0 1(0)", V2) == pt(V2, ("1", "0"))
    with pytest.raises(ParseError, match="^alphabet too large for the text format$"):
        format_point(random_point(SpaceSpec(1, (15,), 1), rng))


def test_parse_errors_report_lines():
    with pytest.raises(ParseError, match="line 1"):
        parse("nonsense\n", Clopen)
    with pytest.raises(ParseError, match="line 2"):
        parse("space n=1 k=2 r=1\nroot:0 0,1\n", Clopen)
    with pytest.raises(ParseError, match="line 2"):
        parse("table n=1 k=2 r=1\nroot:0 0 root:0 1\n", TableElement)
    with pytest.raises(ParseError, match="^line 1: target bricks overlap"):
        parse("vpair\n0 -> 0\n1 -> e\n")
    with pytest.raises(ParseError):
        parse_point("0(1)", V2)
    with pytest.raises(ParseError):
        parse("space n=1 k=99 r=x\n", Clopen)
    # headers that parse but describe no space, or one the digits cannot spell
    for header, message in (("space n=1 k=1 r=1", "every alphabet size must be >= 2"),
                            ("space n=0 k=2 r=1", "dimension count must be >= 1"),
                            # 'e' is the empty word, so the letters are 0-9a-d
                            ("space n=1 k=15 r=1", "alphabet too large for the text format")):
        with pytest.raises(ParseError, match="^line 2: %s$" % message):
            parse("# comment\n%s\nroot:0 e\n" % header, Clopen)
        with pytest.raises(ParseError, match="^line 1: %s$" % message):
            parse(header.replace("space", "table") + "\nroot:0 e -> root:0 e\n", TableElement)
    # a header gives n, k and r once each
    for header, message in (("space n=1 k=2 r=1 foo=3", "unknown header field 'foo'"),
                            ("table n=1 k=2 r=1 colour=red", "unknown header field 'colour'"),
                            ("space n=1 k=2 r=1 r=1 n=1", "repeated header field 'r'")):
        body = "root:0 e -> root:0 e" if header.startswith("table") else "root:0 e"
        with pytest.raises(ParseError, match="^line 1: %s$" % message):
            parse("%s\n%s\n" % (header, body))


def test_one_letter_words_round_trip_at_fourteen_letters():
    space = SpaceSpec(1, (14,), 1)
    for a in range(14):
        x = Clopen(space, [Brick(0, ((a,),))])
        assert parse(format_clopen(x), Clopen) == x


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
    with pytest.raises(ParseError, match="^line 1: expected a 'witness <kind>' header$"):
        parse_witness("not a witness\n")
    with pytest.raises(ParseError, match="^line 3: expected a 'witness <kind>' header$"):
        parse_witness("# note\n\nwitnes compress\n")
    lines = format_witness(Witness("compress", blocks={
        "A": clp(V2, "0"), "B": V2.full(), "output": compress(clp(V2, "0"), V2.full())})).splitlines()
    assert lines[7:12] == ["root:0 e", "end", "begin output", "bisection n=1 k=2 r=1", "root:0 0 -> root:0 0"]
    # errors inside a block report the line of the file, not of the block
    for i, bad, line in ((7, "root:0 2", 8), (11, "root:0 ? -> root:0 0", 12), (11, "root:0 2 -> root:0 0", 12)):
        text = "\n".join(lines[:i] + [bad] + lines[i + 1:]) + "\n"
        with pytest.raises(ParseError, match="^line %d: " % line):
            parse_witness(text)
    with pytest.raises(ParseError, match="^line 3: target bricks overlap"):
        parse_witness("witness embed\nbegin velement\nvpair\n0 -> 0\n1 -> e\nend\n")
    with pytest.raises(ParseError, match="^line 2: unterminated block 'X'$"):
        parse_witness("witness vigor\nbegin X\nspace n=1 k=2 r=1\n")
    with pytest.raises(ParseError, match="^line 2: empty block$"):
        parse_witness("witness vigor\nbegin X\n# nothing\nend\n")
    with pytest.raises(ParseError, match="^line 4: unknown block type 'clopen'$"):
        parse_witness("witness vigor\nbegin X\n\nclopen n=1 k=2 r=1\nend\n")
    with pytest.raises(ParseError, match="^line 4: every alphabet size must be >= 2$"):
        parse_witness("witness compress\n\nbegin A\nspace n=1 k=1 r=1\nroot:0 e\nend\n")
    w = parse_witness("witness compressibility\ncondition 2\n# note\npoint root:0 e(0)\n")
    assert w.param_lines == {"condition": 2, "point": 4}
    # a repeated block or parameter is refused on the repeat's line: a forged
    # output before the genuine one must not be silently replaced by it
    text = format_witness(Witness("between", blocks={
        "A": clp(V2, "0"), "B": clp(V2, "1"), "output": bisection_between(clp(V2, "0"), clp(V2, "1"))}))
    assert text.count("begin output\n") == 1
    forged = text.replace("begin output\n", "begin output\nbisection n=1 k=2 r=1\n"
                          "root:0 0 -> root:0 0\nend\nbegin output\n")
    with pytest.raises(ParseError, match="^line 14: repeated block 'output'$"):
        parse_witness(forged)
    with pytest.raises(ParseError, match="^line 3: repeated parameter 'case'$"):
        parse_witness("witness vigor\ncase b\ncase c\n")
