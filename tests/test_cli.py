import random

import pytest

from bht.cli import main
from bht.element import TableElement
from bht.space import Clopen
from bht.textio import (
    Witness,
    format_bisection,
    format_clopen,
    format_table,
    format_vpair,
    format_witness,
    parse,
    parse_witness,
)
from bht.vembed import binary_space
from bht.witness import compress, multisection, vigor_witness
from util import B, V2, V3, clp


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
    assert code == 0 and parse(out, TableElement) == parse(open(swap_file).read(), TableElement)


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
    x = write(tmp_path, "x.clp", format_clopen(clp(V3, "0")))
    v = TableElement(binary_space(), [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))])
    vfile = write(tmp_path, "v.vpair", format_vpair(v))
    code, out, _ = run(capsys, "embed-v", "--space", "1,3,1", "--support", x, vfile)
    assert code == 0
    wfile = write(tmp_path, "e.txt", out)
    code, out2, _ = run(capsys, "verify", wfile)
    assert code == 0 and "FAIL" not in out2


def test_v_elements_in_vpair_form_with_comments(capsys, tmp_path):
    x = write(tmp_path, "x.clp", format_clopen(clp(V3, "0")))
    v = TableElement(binary_space(), [(B(0, "0"), B(0, "1")), (B(0, "1"), B(0, "0"))])
    vfile = write(tmp_path, "v.vpair", "# the swap of the two halves\n\n" + format_vpair(v))
    code, out, err = run(capsys, "embed-v", "--space", "1,3,1", "--support", x, vfile)
    assert (code, err) == (0, "")
    code, out2, _ = run(capsys, "verify", write(tmp_path, "e.txt", out))
    assert code == 0 and "FAIL" not in out2
    # any command that reads a table reads the vpair form too
    code, out, err = run(capsys, "invert", vfile)
    assert (code, err) == (0, "") and parse(out, TableElement) == v


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


def test_table_commands(capsys):
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
    for space in ("0,2,1", "1,1,1", "1,2,0", "2,3,2,0"):
        code, out, err = run(capsys, "homology", "--space", space, "--degree", "0")
        assert (code, out) == (2, "") and err.startswith("parse error: "), space
    # a file of the wrong kind is refused at its header line
    part = write(tmp_path, "b.bis", format_bisection(compress(clp(V2, "0"), V2.full())))
    table = write(tmp_path, "t.tbl", format_table(TableElement(V2, [(B(0, "e"), B(0, "e"))])))
    for argv in (["invert", part], ["double", table]):
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
    assert err.startswith("parse error:")


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


@pytest.mark.parametrize("old, new, error", [
    ("point root:0 e(0)", "point root:0 q(", "line 3: bad coordinate 'q('"),
    ("point root:0 e(0)", "point root:5 e(0)", "line 3: root 5 out of range"),
    ("condition 2", "condition two",
     "line 2: witness 'compressibility' parameter 'condition' must be an integer"),
    ("space n=1 k=2 r=1\nroot:0 11", "space n=1 k=1 r=1\nroot:0 11",
     "line 9: every alphabet size must be >= 2"),
    ("space n=1 k=2 r=1\nroot:0 10", "space n=0 k=2 r=1\nroot:0 10",
     "line 5: dimension count must be >= 1"),
], ids=["point", "point-root", "condition", "alphabet", "dimension"])
def test_verify_parse_errors_report_lines(capsys, tmp_path, old, new, error):
    code, out, _ = run(capsys, "verify", write(tmp_path, "w.txt", COMPRESSIBILITY))
    assert code == 0 and "FAIL" not in out
    code, out, err = run(capsys, "verify", write(tmp_path, "w.txt", COMPRESSIBILITY.replace(old, new)))
    assert (code, out, err) == (2, "", "parse error: %s\n" % error)


def test_conjugates_count_error_reports_line(capsys, tmp_path, swap_file):
    code, out, _ = run(capsys, "conjugates", swap_file, "--count", "2")
    assert code == 0
    bad = out.replace("count 2", "count 2.5")
    code, out, err = run(capsys, "verify", write(tmp_path, "c.txt", bad))
    assert (code, out) == (2, "")
    assert err == "parse error: line 2: witness 'conjugates' parameter 'count' must be an integer\n"


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
        capsys.readouterr()
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
