import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bht
from bht import cli
from bht.cli import main
from bht.element import TableElement
from bht.space import Clopen, SpaceSpec
from bht.textio import (
    Witness,
    format_bisection,
    format_clopen,
    format_table,
    format_witness,
    parse,
    parse_witness,
)
from bht.vembed import binary_space
from bht.witness import compress, multisection, vigor_witness
from util import B, V2, V3, clp, vpair_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def swap_file(tmp_path):
    swap = TableElement(V2, [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))])
    return write(tmp_path, "swap.tbl", format_table(swap))


@pytest.fixture
def id_file(tmp_path):
    from bht.element import identity

    return write(tmp_path, "id.tbl", format_table(identity(V2)))


def test_eq_and_compose(capsys, tmp_path, swap_file, id_file):
    code, out, _ = run(capsys, "eq", id_file, id_file)
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "eq", swap_file, id_file)
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(capsys, "compose", swap_file, swap_file)
    assert code == 0
    assert parse(out, TableElement).cells == ((B(0, "e"), B(0, "e")),)
    code, out, _ = run(capsys, "invert", swap_file)
    assert code == 0 and parse(out, TableElement) == parse(Path(swap_file).read_text(), TableElement)


def test_order_support_apply(capsys, tmp_path):
    a = TableElement(
        V2,
        [(B(0, "0"), B(0, "00")), (B(0, "10"), B(0, "01")), (B(0, "11"), B(0, "1"))],
    )
    path = write(tmp_path, "a.tbl", format_table(a))
    code, out, _ = run(capsys, "order", path, "--max", "8")
    assert code == 0 and out.strip() == "exceeds bound"
    code, out, _ = run(capsys, "support", path)
    assert code == 0 and parse(out, Clopen) == V2.full()
    code, out, _ = run(capsys, "apply", path, "--point", "root:0 e(10)")
    assert code == 0 and out.strip() == "root:0 01(10)"


def test_witness_commands_then_verify(capsys, tmp_path):
    files = {
        "X.clp": format_clopen(clp(V2, "0")),
        "Y1.clp": format_clopen(clp(V2, "00")),
        "Y2.clp": format_clopen(clp(V2, "01")),
        "A.clp": format_clopen(clp(V2, "0")),
        "B.clp": format_clopen(clp(V2, "1")),
        "full.clp": format_clopen(V2.full()),
    }
    paths = {name: write(tmp_path, name, text) for name, text in files.items()}

    for argv in (
        ["compress", paths["full.clp"], paths["X.clp"]],
        ["double", paths["X.clp"]],
        ["between", paths["A.clp"], paths["B.clp"]],
        ["vigor", paths["X.clp"], paths["Y1.clp"], paths["Y2.clp"]],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        wfile = write(tmp_path, "w.txt", out)
        code, out2, _ = run(capsys, "verify", wfile)
        assert code == 0, (argv, out2)
        assert "FAIL" not in out2
        assert all(line.startswith("ok ") for line in out2.strip().splitlines())


def test_multisection_and_conjugates_verify(capsys, tmp_path, swap_file):
    x = write(tmp_path, "x0.clp", format_clopen(clp(V3, "0")))
    y = write(tmp_path, "x1.clp", format_clopen(clp(V3, "1")))
    z = write(tmp_path, "x2.clp", format_clopen(clp(V3, "2")))
    code, out, _ = run(capsys, "multisection", x, y, z)
    assert code == 0
    wfile = write(tmp_path, "m.txt", out)
    code, out2, _ = run(capsys, "verify", wfile)
    assert code == 0 and "FAIL" not in out2

    code, out, _ = run(capsys, "conjugates", swap_file, "--count", "3")
    assert code == 0
    wfile = write(tmp_path, "c.txt", out)
    code, out2, _ = run(capsys, "verify", wfile)
    assert code == 0 and "FAIL" not in out2


def test_compressibility_commands(capsys, tmp_path):
    u1 = write(tmp_path, "u1.clp", format_clopen(clp(V2, "10")))
    u2 = write(tmp_path, "u2.clp", format_clopen(clp(V2, "11")))
    code, out, _ = run(capsys, "compressibility", "--point", "root:0 e(0)",
                       "--cond", "2", u1, u2)
    assert code == 0
    wfile = write(tmp_path, "c2.txt", out)
    code, out2, _ = run(capsys, "verify", wfile)
    assert code == 0 and "FAIL" not in out2

    u2b = write(tmp_path, "u2b.clp", format_clopen(clp(V2, "110")))
    u3 = write(tmp_path, "u3.clp", format_clopen(clp(V2, "111")))
    code, out, _ = run(capsys, "compressibility", "--point", "root:0 e(0)",
                       "--cond", "3", u1, u2b, u3)
    assert code == 0
    wfile = write(tmp_path, "c3.txt", out)
    code, out2, _ = run(capsys, "verify", wfile)
    assert code == 0 and "FAIL" not in out2

    # condition 1 with an element supported away from the point
    g = vigor_witness(clp(V2, "1"), clp(V2, "10"), clp(V2, "11"))
    gfile = write(tmp_path, "g.tbl", format_table(g))
    code, out, _ = run(capsys, "compressibility", "--point", "root:0 e(0)",
                       "--cond", "1", gfile)
    assert code == 0
    wfile = write(tmp_path, "c1.txt", out)
    code, out2, _ = run(capsys, "verify", wfile)
    assert code == 0 and "FAIL" not in out2


def test_embed_v_command(capsys, tmp_path):
    x1 = write(tmp_path, "x.clp", format_clopen(clp(V3, "0")))
    v = TableElement(binary_space(), [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))])
    vfile = write(tmp_path, "v.vpair", vpair_text(v))
    code, out, _ = run(capsys, "embed-v", "--space", "1,3,1", "--support", x1, vfile)
    assert code == 0
    wfile = write(tmp_path, "e.txt", out)
    code, out2, _ = run(capsys, "verify", wfile)
    assert code == 0 and "FAIL" not in out2
    # the complement of this support is the one brick root:0 0, so the
    # region adjoins a piece split from it
    x = write(tmp_path, "x2.clp", "space n=1 k=3 r=2\nroot:0 1\nroot:0 2\nroot:1 e\n")
    code, out, _ = run(capsys, "embed-v", "--space", "1,3,2", "--support", x)
    region = clp(SpaceSpec(1, (3,), 2), "00", "1", "2", (1, "e"))
    assert code == 0 and parse_witness(out).blocks["Y"] == region
    code, out2, _ = run(capsys, "verify", write(tmp_path, "e2.txt", out))
    assert code == 0 and "FAIL" not in out2
    # a V table that swaps 0^L 0 and 0^L 1 and fixes every 0^i 1 names
    # words of L + 1 letters, more than one stack frame per letter allows
    L = 600
    deep = TableElement(binary_space(), [(B(0, "0" * i + "1"), B(0, "0" * i + "1")) for i in range(L)]
                        + [(B(0, "0" * L + "0"), B(0, "0" * L + "1")), (B(0, "0" * L + "1"), B(0, "0" * L + "0"))])
    vfile = write(tmp_path, "deep.vpair", vpair_text(deep))
    code, out, _ = run(capsys, "embed-v", "--space", "1,3,1", "--support", x1, vfile)
    assert code == 0
    code, out2, _ = run(capsys, "verify", write(tmp_path, "e3.txt", out))
    assert code == 0 and "FAIL" not in out2


def test_v_elements_in_vpair_form_with_comments(capsys, tmp_path):
    x = write(tmp_path, "x.clp", format_clopen(clp(V3, "0")))
    v = TableElement(binary_space(), [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))])
    vfile = write(tmp_path, "v.vpair", "# the swap of the two halves\n\n" + vpair_text(v))
    code, out, err = run(capsys, "embed-v", "--space", "1,3,1", "--support", x, vfile)
    assert (code, err) == (0, "")
    code, out2, _ = run(capsys, "verify", write(tmp_path, "e.txt", out))
    assert code == 0 and "FAIL" not in out2
    # any command that reads a table reads the vpair form too
    code, out, err = run(capsys, "invert", vfile)
    assert (code, err) == (0, "") and parse(out, TableElement) == v


def test_verify_reads_embed_blocks_in_any_order(capsys, tmp_path):
    x = write(tmp_path, "x.clp", format_clopen(clp(V3, "0")))
    vfile = write(tmp_path, "v.vpair", "vpair\n0 -> 1\n1 -> 0\n")
    code, out, _ = run(capsys, "embed-v", "--space", "1,3,1", "--support", x, vfile)
    assert code == 0
    code, checks, err = run(capsys, "verify", write(tmp_path, "e.txt", out))
    assert (code, err) == (0, "") and len(checks.splitlines()) == 7
    blocks = parse_witness(out).blocks
    # the velement block, over the binary space, first; then every block reversed
    for names in (["velement"] + [n for n in blocks if n != "velement"], list(blocks)[::-1]):
        reordered = format_witness(Witness("embed", blocks={n: blocks[n] for n in names}))
        assert run(capsys, "verify", write(tmp_path, "r.txt", reordered)) == (0, checks, ""), names


def test_verify_lists_embed_checks_when_halves_overlap(capsys, tmp_path):
    x = write(tmp_path, "x.clp", format_clopen(clp(V3, "0")))
    vfile = write(tmp_path, "v.vpair", "vpair\n0 -> 1\n1 -> 0\n")
    code, out, _ = run(capsys, "embed-v", "--space", "1,3,1", "--support", x, vfile)
    assert code == 0
    forged = parse_witness(out)
    forged.blocks["s1"] = forged.blocks["s0"]
    code, out, err = run(capsys, "verify", write(tmp_path, "e.txt", format_witness(forged)))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert "FAIL halves disjoint" in lines
    assert "FAIL image matches the evaluated element" in lines
    assert len(lines) == 7


def test_parser_reuse_carries_no_state(capsys):
    code, out, _ = run(capsys, "--porcelain", "perfect", "--space", "2,2,3,1")
    assert (code, out) == (0, "perfect=true\n")
    code, out, _ = run(capsys, "perfect", "--space", "2,2,3,1")
    assert (code, out) == (0, "true\n")


def test_table_commands(capsys, swap_file, id_file):
    code, out, _ = run(capsys, "homology", "--space", "2,3,5", "--degree", "1")
    assert code == 0 and out.strip() == "Z_2"
    code, out, _ = run(capsys, "abelianization", "--space", "2,7,1")
    assert code == 0 and out.strip() == "Z_12"
    code, out, _ = run(capsys, "characters", "--space", "1,3,1")
    assert code == 0 and "1 of order 2" in out
    code, out, _ = run(capsys, "perfect", "--space", "2,2,3,1")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "--porcelain", "homology", "--space", "2,3,5", "--degree", "1")
    assert code == 0 and "group=Z_2" in out
    code, out, _ = run(capsys, "--porcelain", "characters", "--space", "2,4,1")
    assert (code, out) == (0, "count=1\nfamilies=1x3\ndual=Z_3\n")
    code, out, _ = run(capsys, "--porcelain", "abelianization", "--space", "2,7,1")
    assert (code, out) == (0, "group=Z_12\n")
    for argv, plain, porcelain in (
        (["eq", id_file, id_file], "true\n", "equal=true\n"),
        (["eq", swap_file, id_file], "false\n", "equal=false\n"),
        (["order", swap_file, "--max", "2"], "2\n", "order=2\n"),
        (["order", swap_file, "--max", "1"], "exceeds bound\n", "order=exceeds-bound\n"),
    ):
        assert run(capsys, *argv) == (0, plain, ""), argv
        assert run(capsys, "--porcelain", *argv) == (0, porcelain, ""), argv


# Per subcommand: its handler, its required arguments (each a group of argv
# tokens), its optional positional arguments, and the fields that the full
# argv parses to.
PARSER_CASES = [
    ("compose", "_cmd_compose", [["L"], ["R"]], [], {"left": "L", "right": "R"}),
    ("invert", "_cmd_invert", [["T"]], [], {"table": "T"}),
    ("eq", "_cmd_eq", [["L"], ["R"]], [], {"left": "L", "right": "R"}),
    ("order", "_cmd_order", [["T"], ["--max", "8"]], [], {"table": "T", "max": 8}),
    ("support", "_cmd_support", [["T"]], [], {"table": "T"}),
    ("apply", "_cmd_apply", [["T"], ["--point", "root:0 e(10)"]], [],
     {"table": "T", "point": "root:0 e(10)"}),
    ("compress", "_cmd_compress", [["A"], ["B"]], [], {"a": "A", "b": "B"}),
    ("double", "_cmd_double", [["X"]], [], {"x": "X"}),
    ("between", "_cmd_between", [["A"], ["B"]], [], {"a": "A", "b": "B"}),
    ("multisection", "_cmd_multisection", [["X0"], ["X1"], ["X2"]], [],
     {"x0": "X0", "x1": "X1", "x2": "X2"}),
    ("vigor", "_cmd_vigor", [["X"], ["Y1"], ["Y2"]], [], {"x": "X", "y1": "Y1", "y2": "Y2"}),
    ("conjugates", "_cmd_conjugates", [["G"], ["--count", "3"]], [], {"table": "G", "count": 3}),
    ("compressibility", "_cmd_compressibility", [["--point", "root:0 e(0)"], ["--cond", "2"]],
     ["U1", "U2"], {"inputs": ["U1", "U2"], "point": "root:0 e(0)", "cond": 2}),
    ("embed-v", "_cmd_embed_v", [["--space", "1,3,1"], ["--support", "X"]], ["V"],
     {"velement": "V", "space": "1,3,1", "support": "X"}),
    ("homology", "_cmd_homology", [["--space", "2,3,5"], ["--degree", "1"]], [],
     {"space": "2,3,5", "degree": 1}),
    ("abelianization", "_cmd_abelianization", [["--space", "2,7,1"]], [], {"space": "2,7,1"}),
    ("characters", "_cmd_characters", [["--space", "1,3,1"]], [], {"space": "1,3,1"}),
    ("perfect", "_cmd_perfect", [["--space", "2,2,3,1"]], [], {"space": "2,2,3,1"}),
    ("verify", "_cmd_verify", [["W"]], [], {"witness": "W"}),
]


@pytest.mark.parametrize("name, handler, required, optional, fields", PARSER_CASES,
                         ids=[case[0] for case in PARSER_CASES])
def test_parser_gives_each_subcommand_its_handler_and_fields(name, handler, required, optional, fields):
    def argv(groups):
        return [name] + [token for group in groups for token in group] + optional

    args = cli.build_parser().parse_args(argv(required))
    assert vars(args) == dict(fields, porcelain=False, command=name, func=getattr(cli, handler))
    for i in range(len(required)):
        with pytest.raises(SystemExit) as exit_:
            cli.build_parser().parse_args(argv(required[:i] + required[i + 1:]))
        assert exit_.value.code == 2, required[i]


def test_exit_codes(capsys, tmp_path):
    bad = write(tmp_path, "bad.clp", "garbage\n")
    code, _, err = run(capsys, "double", bad)
    assert code == 2 and "parse error" in err
    # headers that parse but describe no space
    for header in ("space n=1 k=1 r=1", "space n=0 k=2 r=1"):
        bad = write(tmp_path, "bad.clp", "# a set\n%s\nroot:0 e\n" % header)
        code, out, err = run(capsys, "double", bad)
        assert (code, out) == (2, "") and err.startswith("parse error: line 2: ")
    a = write(tmp_path, "a.clp", format_clopen(clp(V3, "0")))
    b = write(tmp_path, "b.clp", format_clopen(clp(V3, "1", "2")))
    code, _, err = run(capsys, "between", a, b)
    assert code == 1 and "class mismatch" in err
    code, _, err = run(capsys, "abelianization", "--space", "2,3,5,1")
    assert code == 1 and "not" in err
    # a --space value that describes no space is a parse error, as in a header
    for space, error in (("0,2,1", "dimension count must be >= 1"),
                         ("1,1,1", "every alphabet size must be >= 2"),
                         ("1,2,0", "root count must be >= 1"),
                         ("2,3,2,0", "root count must be >= 1"),
                         ("2,x,1", "space must be a comma-separated list of integers"),
                         ("1,2", "space must be 'n,k,r' or 'n,k_1,...,k_n,r'")):
        code, out, err = run(capsys, "homology", "--space", space, "--degree", "0")
        assert (code, out, err) == (2, "", "parse error: %s\n" % error), space
    missing = str(tmp_path / "missing.clp")
    code, out, err = run(capsys, "double", missing)
    assert (code, out) == (2, "") and err.startswith("parse error: cannot read %s: " % missing)
    # compressibility takes conditions 1-3, each with its own input count
    for cond, inputs, error in (("4", [a], "condition must be 1, 2 or 3"),
                                ("2", [a], "condition 2 needs two clopen files"),
                                ("1", [], "condition 1 needs one table file")):
        code, out, err = run(capsys, "compressibility", "--point", "root:0 e(0)", "--cond", cond, *inputs)
        assert (code, out, err) == (2, "", "parse error: %s\n" % error), cond
    # a file of the wrong kind is refused at its header line
    part = write(tmp_path, "b.bis", format_bisection(compress(clp(V2, "0"), V2.full())))
    table = write(tmp_path, "t.tbl", format_table(TableElement(V2, [(B(0, "e"), B(0, "e"))])))
    # an alphabet that the digits 0-9a-d cannot spell, or a header field other
    # than n, k and r, is refused at the header
    big = write(tmp_path, "big.clp", "space n=1 k=37 r=1\nroot:0 0\n")
    big_table = write(tmp_path, "big.tbl", "table n=1 k=40 r=1\nroot:0 e -> root:0 e\n")
    # at k = 16 the letter 14 would be written 'e', the empty word
    sixteen = write(tmp_path, "a16.clp", "space n=1 k=16 r=1\n%s\n" % "\n".join(
        "root:0 %s" % c for c in "0123456789abcdf"))
    root = write(tmp_path, "r16.clp", "space n=1 k=16 r=1\nroot:0 e\n")
    odd = write(tmp_path, "odd.clp", "space n=1 k=2 r=1 foo=3\nroot:0 0\n")
    for argv in (["invert", part], ["double", table], ["double", big], ["invert", big_table],
                 ["order", "--max", "3", big_table], ["compress", sixteen, root], ["double", odd]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("parse error: line 1: "), argv


@pytest.mark.parametrize("cycle_sets, failed", [
    ("full", "cycle sets pairwise disjoint"),
    ("empty", "support is the union of the cycle sets"),
], ids=["full", "empty"])
def test_verify_rejects_forged_multisection(capsys, tmp_path, cycle_sets, failed):
    # a genuine 3-cycle of the whole space, claimed with X0 = X1 = X2
    g = multisection(clp(V3, "0"), clp(V3, "1"), clp(V3, "2")).element
    x = V3.full() if cycle_sets == "full" else V3.empty()
    forged = Witness("multisection", blocks={"X0": x, "X1": x, "X2": x, "element": g})
    code, out, _ = run(capsys, "verify", write(tmp_path, "m.txt", format_witness(forged)))
    assert code == 1
    assert "FAIL " + failed in out.splitlines()


def test_verify_rejects_compressibility_sets_at_the_point(capsys, tmp_path):
    u1, u2, u3 = (write(tmp_path, "u%d.clp" % i, format_clopen(clp(V2, w)))
                  for i, w in enumerate(("1", "01", "11"), start=1))
    code, out, _ = run(capsys, "compressibility", "--point", "root:0 e(0)", "--cond", "3", u1, u2, u3)
    assert code == 0
    # U3 = 000 contains the point 0^inf, which the constructor refuses
    forged = parse_witness(out)
    forged.blocks["U3"] = clp(V2, "000")
    code, out, _ = run(capsys, "verify", write(tmp_path, "c3.txt", format_witness(forged)))
    assert code == 1
    assert "FAIL U1, U2, U3 avoid the point" in out.splitlines()


@pytest.mark.parametrize("case", ["clopen-output", "mixed-spaces", "bad-condition"])
def test_verify_malformed_witness_is_parse_error(capsys, tmp_path, case):
    a, b = clp(V2, "0"), clp(V2, "1")
    if case == "clopen-output":
        w = Witness("compress", blocks={"A": a, "B": b, "output": b})
    elif case == "mixed-spaces":
        w = Witness("compress", blocks={"A": a, "B": clp(V3, "1"), "output": compress(a, b)})
    else:
        w = Witness("compressibility", params={"condition": "z", "point": "root:0 e(0)"},
                    blocks={"U1": a, "U2": b})
    code, out, err = run(capsys, "verify", write(tmp_path, "w.txt", format_witness(w)))
    assert code == 2 and out == ""
    assert re.match(r"parse error: line \d+: ", err), err


COMPRESSIBILITY = """witness compressibility
condition 2
point root:0 e(0)
begin U1
space n=1 k=2 r=1
root:0 10
end
begin U2
space n=1 k=2 r=1
root:0 11
end
begin element
table n=1 k=2 r=1
root:0 0 -> root:0 0
root:0 10 -> root:0 11
root:0 11 -> root:0 10
end
"""


@pytest.mark.parametrize("kind, old, new, error", [
    ("compressibility", "point root:0 e(0)", "point root:0 q(", "line 3: bad coordinate 'q('"),
    ("compressibility", "point root:0 e(0)", "point root:5 e(0)", "line 3: root 5 out of range"),
    ("compressibility", "condition 2", "condition two",
     "line 2: witness 'compressibility' parameter 'condition' must be an integer"),
    ("compressibility", "space n=1 k=2 r=1\nroot:0 11", "space n=1 k=1 r=1\nroot:0 11",
     "line 9: every alphabet size must be >= 2"),
    ("compressibility", "space n=1 k=2 r=1\nroot:0 10", "space n=0 k=2 r=1\nroot:0 10",
     "line 5: dimension count must be >= 1"),
    ("compressibility", "witness compressibility", "witness compressibilit",
     "line 1: unknown witness kind 'compressibilit'"),
    ("compressibility", "begin U2", "begin U4",
     "line 1: witness 'compressibility' is missing block 'U2'"),
    ("compressibility", "begin element\ntable", "begin element\nbisection",
     "line 12: witness 'compressibility' block 'element' is not a table"),
    ("compressibility", "space n=1 k=2 r=1\nroot:0 11", "space n=1 k=3 r=1\nroot:0 11",
     "line 8: witness 'compressibility' block 'U2' is over space n=1 k=3 r=1, "
     "expected space n=1 k=2 r=1"),
    ("compressibility", "condition 2", "condition 5",
     "line 2: compressibility condition must be 1, 2 or 3"),
    ("compressibility", "condition 2", "# no condition",
     "line 1: witness 'compressibility' is missing parameter 'condition'"),
    ("compressibility", "point root:0 e(0)", "# no point",
     "line 1: witness 'compressibility' is missing parameter 'point'"),
    ("conjugates", "count 2", "# no count",
     "line 1: witness 'conjugates' is missing parameter 'count'"),
], ids=["point", "point-root", "condition", "alphabet", "dimension", "kind", "missing-block",
        "block-kind", "block-space", "condition-range", "missing-condition", "missing-point",
        "missing-count"])
def test_verify_parse_errors_report_lines(capsys, tmp_path, swap_file, kind, old, new, error):
    text = COMPRESSIBILITY
    if kind == "conjugates":
        text = run(capsys, "conjugates", swap_file, "--count", "2")[1]
    code, out, _ = run(capsys, "verify", write(tmp_path, "w.txt", text))
    assert code == 0 and "FAIL" not in out
    code, out, err = run(capsys, "verify", write(tmp_path, "w.txt", text.replace(old, new)))
    assert (code, out, err) == (2, "", "parse error: %s\n" % error)


def test_verify_names_the_line_of_a_byte_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "w.txt"
    path.write_bytes(COMPRESSIBILITY.encode().replace(b"root:0 11", b"root:0 1\x80", 1))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out, err) == (2, "", "parse error: line 10: byte 0x80 is not UTF-8 text\n")


@pytest.mark.parametrize("data, error", [
    # a form feed ends no line for an editor, nor for the parser
    (b"space n=1 k=2 r=1\nroot:0 0\x0c\nroot:0 2\n", "line 3: letter out of range in dimension 0"),
    # nor does U+0085 (NEL), when counting the line of a bad byte
    (b"space n=1 k=2 r=1\nroot:0 0\xc2\x85\n\x80\n", "line 3: byte 0x80 is not UTF-8 text"),
], ids=["form-feed", "next-line"])
def test_parse_errors_count_only_newlines(capsys, tmp_path, data, error):
    path = tmp_path / "X.clp"
    path.write_bytes(data)
    assert run(capsys, "double", str(path)) == (2, "", "parse error: %s\n" % error)


def test_conjugates_count_error_reports_line(capsys, tmp_path, swap_file):
    code, out, _ = run(capsys, "conjugates", swap_file, "--count", "2")
    assert code == 0
    for count, error in (("2.5", "witness 'conjugates' parameter 'count' must be an integer"),
                         ("0", "conjugates witness needs a positive 'count' parameter")):
        bad = out.replace("count 2", "count " + count)
        code, out2, err = run(capsys, "verify", write(tmp_path, "c.txt", bad))
        assert (code, out2) == (2, "")
        assert err == "parse error: line 2: %s\n" % error


def test_byte_stable_output(capsys, tmp_path):
    x = write(tmp_path, "x.clp", format_clopen(clp(V2, "0")))
    code, out1, _ = run(capsys, "double", x)
    code, out2, _ = run(capsys, "double", x)
    assert out1 == out2
    assert out1.endswith("\n")
    assert "\r" not in out1


def _mutation_fuzz(capsys, tmp_path, rng, witness_text, rounds):
    lines = witness_text.splitlines()
    rejected = 0
    for _ in range(rounds):
        mutated = lines[:]
        i = rng.randrange(len(mutated))
        line = mutated[i]
        if "root:" in line:
            mutated[i] = line.replace("0", "1", 1) if "0" in line else line.replace("1", "0", 1)
        else:
            mutated[i] = line + "x"
        wfile = write(tmp_path, "mut.txt", "\n".join(mutated) + "\n")
        code = main(["verify", wfile])
        err = capsys.readouterr().err
        # every malformed witness is refused on a line of the file
        assert code != 2 or re.match(r"parse error: line \d+: ", err), (mutated[i], err)
        if code != 0:
            rejected += 1
    return rejected


def test_verify_rejects_mutated_witnesses(capsys, tmp_path):
    x = write(tmp_path, "x.clp", format_clopen(clp(V2, "0")))
    y1 = write(tmp_path, "y1.clp", format_clopen(clp(V2, "00")))
    y2 = write(tmp_path, "y2.clp", format_clopen(clp(V2, "01")))
    code, out, _ = run(capsys, "vigor", x, y1, y2)
    assert code == 0
    rng = random.Random(911)
    # most random single-line mutations must be caught (some lines are
    # comments or benign); none may silently verify a wrong claim
    assert _mutation_fuzz(capsys, tmp_path, rng, out, 30) >= 20


@pytest.mark.parametrize("case", ["zzb", "c", None], ids=["zzb", "wrong-letter", "missing"])
def test_verify_checks_the_vigor_case(capsys, tmp_path, case):
    x, y1, y2 = (write(tmp_path, "%s.clp" % name, format_clopen(clp(V2, w)))
                 for name, w in (("x", "0"), ("y1", "00"), ("y2", "01")))
    code, out, _ = run(capsys, "vigor", x, y1, y2)
    assert code == 0 and "case b" in out.splitlines()
    forged = parse_witness(out)
    if case is None:
        del forged.params["case"]
    else:
        forged.params["case"] = case
    code, out, _ = run(capsys, "verify", write(tmp_path, "v.txt", format_witness(forged)))
    assert code == 1
    assert out.splitlines()[-1] == "FAIL case parameter matches the sets"


def test_verify_rejects_mutations_across_kinds(capsys, tmp_path):
    rng = random.Random(913)
    x = write(tmp_path, "x.clp", format_clopen(clp(V3, "0")))
    y = write(tmp_path, "y.clp", format_clopen(clp(V3, "1")))
    z = write(tmp_path, "z.clp", format_clopen(clp(V3, "2")))
    full = write(tmp_path, "f.clp", format_clopen(V3.full()))
    y1 = write(tmp_path, "y1.clp", format_clopen(clp(V3, "00")))
    y2 = write(tmp_path, "y2.clp", format_clopen(clp(V3, "01")))
    u1, u2, u2b, u3 = (write(tmp_path, "u%d.clp" % i, format_clopen(clp(V2, w)))
                       for i, w in enumerate(("10", "11", "110", "111")))
    g = write(tmp_path, "g.tbl", format_table(vigor_witness(clp(V2, "1"), clp(V2, "10"), clp(V2, "11"))))
    point = ["--point", "root:0 e(0)"]
    outputs = []
    for argv in (
        ["compress", full, x],
        ["between", x, y],
        ["multisection", x, y, z],
        ["embed-v", "--space", "1,3,1", "--support", x],
        ["double", x],
        ["vigor", x, y1, y2],
        ["conjugates", g, "--count", "3"],
        ["compressibility", *point, "--cond", "1", g],
        ["compressibility", *point, "--cond", "2", u1, u2],
        ["compressibility", *point, "--cond", "3", u1, u2b, u3],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        outputs.append(out)
    rejected = [_mutation_fuzz(capsys, tmp_path, rng, out, 15) for out in outputs]
    assert min(rejected) >= 10, rejected


def run_module(argv):
    """Exit code, stdout and stderr of ``python -m bht.cli`` in a new process,
    whose recursion limit and stack are the defaults."""
    path = os.pathsep.join([str(Path(bht.__file__).resolve().parent.parent),
                            os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-m", "bht.cli", *argv], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=10)
    return out.returncode, out.stdout, out.stderr


# k - 1 = 2^61 - 1 is prime: trial division would take about 2^30 steps.
@pytest.mark.parametrize("argv, expected", [
    (["homology", "--space", "2,2305843009213693952,1", "--degree", "1"], "Z_2305843009213693951"),
    (["abelianization", "--space", "2,2305843009213693952,1"], "Z_2305843009213693951"),
    (["characters", "--space", "2,2305843009213693952,1"],
     "1 of order 2305843009213693951 (dual group Z_2305843009213693951)"),
    (["perfect", "--space", "3,2305843009213693952,1"], "false"),
    # g = 1: the trivial group, not a list of C(59, 29) trivial summands
    (["homology", "--space", "60,2,1", "--degree", "29"], "0"),
], ids=["homology", "abelianization", "characters", "perfect", "trivial-homology"])
def test_closed_forms_of_a_large_prime_alphabet_need_no_factoring(argv, expected):
    assert run_module(argv) == (0, expected + "\n", "")


# Words of L = 1200 letters, longer than Python's default limit of 1000 stack
# frames.  In one dimension: 0^L 0 and 0^L 1 in a clopen, and the comb table
# that swaps them and fixes every 0^i 1.  In two: the same pair with an empty
# second word, and e,0 beside 0^L,1.
DEEP = "0" * 1200
DEEP_CLOPEN = "space n=1 k=2 r=1\nroot:0 %s0\nroot:0 %s1\n" % (DEEP, DEEP)
DEEP_COMB = "".join(["table n=1 k=2 r=1\n"]
                    + ["root:0 %s1 -> root:0 %s1\n" % (DEEP[:i], DEEP[:i]) for i in range(len(DEEP))]
                    + ["root:0 %s0 -> root:0 %s1\nroot:0 %s1 -> root:0 %s0\n" % ((DEEP,) * 4)])
DEEP_PLANE = "space n=2 k=2,2 r=1\nroot:0 %s0,e\nroot:0 %s1,e\n" % (DEEP, DEEP)
DEEP_STEP = "space n=2 k=2,2 r=1\nroot:0 e,0\nroot:0 %s,1\n" % DEEP


# Each command reads the output of the one before it; ``expected`` None
# checks only that the commands answer, and a verify must print only ``ok``
# lines.
@pytest.mark.parametrize("argv, text, expected", [
    # the two bricks are a family, so X is the one brick 0^L
    (["double"], DEEP_CLOPEN,
     "witness double\nbegin X\nspace n=1 k=2 r=1\nroot:0 %s\nend\n"
     "begin output1\nbisection n=1 k=2 r=1\nroot:0 %s -> root:0 %s00\nend\n"
     "begin output2\nbisection n=1 k=2 r=1\nroot:0 %s -> root:0 %s10\nend" % ((DEEP,) * 5)),
    (["support"], DEEP_COMB, "space n=1 k=2 r=1\nroot:0 " + DEEP),
    (["double"], DEEP_PLANE,
     "witness double\nbegin X\nspace n=2 k=2,2 r=1\nroot:0 %s,e\nend\n"
     "begin output1\nbisection n=2 k=2,2 r=1\nroot:0 %s,e -> root:0 %s00,e\nend\n"
     "begin output2\nbisection n=2 k=2,2 r=1\nroot:0 %s,e -> root:0 %s10,e\nend" % ((DEEP,) * 5)),
    (["double"], DEEP_STEP, None),
    # the witness holds bricks e,0 and 0^L,1: the brick index of every check
    # meets words of L letters
    (["double", "verify"], DEEP_STEP, None),
], ids=["deep-double", "deep-support", "deep-double-plane", "deep-double-step", "deep-verify-step"])
def test_long_words_need_no_recursion_per_letter(tmp_path, argv, text, expected):
    for command in argv:
        code, text, err = run_module([command, write(tmp_path, "input.txt", text)])
        assert (code, err) == (0, "")
    if expected is not None:
        assert text == expected + "\n"
    if argv[-1] == "verify":
        lines = text.splitlines()
        assert lines and all(line.startswith("ok ") for line in lines)
