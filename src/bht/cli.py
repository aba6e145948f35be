"""Command line front end.

Every subcommand reads the text formats of :mod:`bht.textio`, runs one
operation and prints canonical output (byte-stable for equal inputs).
Witness-producing commands embed their inputs in the emitted file so that
``verify`` can re-check every postcondition later.  Exit codes: 0 success,
1 domain error, 2 parse error.
"""

import argparse
import functools
import sys
from pathlib import Path

from . import abelian, element, textio, verify, vembed, witness
from .errors import DomainError, ParseError
from .space import Clopen, SpaceSpec

def _parse_space_arg(text: str) -> SpaceSpec:
    try:
        nums = [int(p) for p in text.split(",")]
    except ValueError:
        raise ParseError("space must be a comma-separated list of integers") from None
    if len(nums) == 3:
        n, k, r = nums
        kbar = (k,) * n
    elif len(nums) > 3 and len(nums) == nums[0] + 2:
        n, kbar, r = nums[0], tuple(nums[1:-1]), nums[-1]
    else:
        raise ParseError("space must be 'n,k,r' or 'n,k_1,...,k_n,r'")
    try:
        return SpaceSpec(n, kbar, r)
    except DomainError as err:
        raise ParseError(str(err)) from None


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as err:
        raise ParseError("cannot read %s: %s" % (path, err)) from None


def _clopen(path: str) -> Clopen:
    return textio.parse(_read(path), Clopen)


def _table(path: str) -> element.TableElement:
    return textio.parse(_read(path), element.TableElement)


def _emit(text: str):
    sys.stdout.write(text)


def _emit_witness(kind: str, blocks: dict, **params) -> int:
    _emit(textio.format_witness(textio.Witness(kind, params=params, blocks=blocks)))
    return 0


def _porcelain(args, pairs):
    if args.porcelain:
        for key, value in pairs:
            print("%s=%s" % (key, value))
        return True
    return False


def _cmd_compose(args):
    out = element.compose(_table(args.left), _table(args.right))
    _emit(textio.format_table(out))
    return 0


def _cmd_invert(args):
    _emit(textio.format_table(element.invert(_table(args.table))))
    return 0


def _cmd_eq(args):
    same = element.equals(_table(args.left), _table(args.right))
    text = "true" if same else "false"
    if not _porcelain(args, [("equal", text)]):
        print(text)
    return 0


def _cmd_order(args):
    got = element.order(_table(args.table), args.max)
    porcelain_value = "exceeds-bound" if got is None else got
    if not _porcelain(args, [("order", porcelain_value)]):
        print("exceeds bound" if got is None else got)
    return 0


def _cmd_support(args):
    _emit(textio.format_clopen(element.closed_support(_table(args.table))))
    return 0


def _cmd_apply(args):
    tbl = _table(args.table)
    point = textio.parse_point(args.point, tbl.space)
    print(textio.format_point(element.apply_point(tbl, point)))
    return 0


def _cmd_compress(args):
    a, b = _clopen(args.a), _clopen(args.b)
    return _emit_witness("compress", {"A": a, "B": b, "output": witness.compress(a, b)})


def _cmd_double(args):
    x = _clopen(args.x)
    b1, b2 = witness.doubling_witness(x)
    return _emit_witness("double", {"X": x, "output1": b1, "output2": b2})


def _cmd_between(args):
    a, b = _clopen(args.a), _clopen(args.b)
    return _emit_witness("between", {"A": a, "B": b, "output": witness.bisection_between(a, b)})


def _cmd_multisection(args):
    x0, x1, x2 = _clopen(args.x0), _clopen(args.x1), _clopen(args.x2)
    m = witness.multisection(x0, x1, x2)
    return _emit_witness("multisection", {"X0": x0, "X1": x1, "X2": x2, "element": m.element})


def _cmd_vigor(args):
    x, y1, y2 = _clopen(args.x), _clopen(args.y1), _clopen(args.y2)
    g = witness.vigor_witness(x, y1, y2)
    return _emit_witness("vigor", {"X": x, "Y1": y1, "Y2": y2, "element": g},
                         case=witness.vigor_case(x, y1, y2))


def _cmd_conjugates(args):
    g = _table(args.table)
    fam = witness.conjugate_family(g, args.count)
    blocks = {"element": fam.base, "moved": fam.moved, "image": fam.image}
    for i in range(args.count):
        blocks["target%d" % (i + 1)] = fam.targets[i]
        blocks["conjugator%d" % (i + 1)] = fam.conjugators[i]
        blocks["conjugate%d" % (i + 1)] = fam.conjugates[i]
    return _emit_witness("conjugates", blocks, count=str(args.count))


# per condition: the reader of its inputs, their count and block names, and
# the output's block name
_COMPRESSIBILITY = {
    1: (_table, "one table file", ("element",), "output"),
    2: (_clopen, "two clopen files", ("U1", "U2"), "element"),
    3: (_clopen, "three clopen files", ("U1", "U2", "U3"), "element"),
}


def _cmd_compressibility(args):
    if args.cond not in _COMPRESSIBILITY:
        raise ParseError("condition must be 1, 2 or 3")
    read, needs, names, out = _COMPRESSIBILITY[args.cond]
    if len(args.inputs) != len(names):
        raise ParseError("condition %d needs %s" % (args.cond, needs))
    inputs = [read(p) for p in args.inputs]
    point = textio.parse_point(args.point, inputs[0].space)
    blocks = dict(zip(names, inputs))
    blocks[out] = witness.compressibility_witness(point, args.cond, *inputs)
    return _emit_witness("compressibility", blocks, condition=str(args.cond), point=args.point)


def _cmd_embed_v(args):
    space = _parse_space_arg(args.space)
    x = _clopen(args.support)
    space.check_same(x.space)
    emb = vembed.build_v_embedding(space, x)
    blocks = {"X": x, "Y": emb.region, "s0": emb.s0, "s1": emb.s1}
    if args.velement is not None:
        v = blocks["velement"] = _table(args.velement)
        blocks["image"] = vembed.evaluate_embedding(emb, v)
    return _emit_witness("embed", blocks)


def _cmd_homology(args):
    group = abelian.homology(_parse_space_arg(args.space), args.degree)
    if not _porcelain(args, [("degree", args.degree), ("group", group)]):
        print(group)
    return 0


def _cmd_abelianization(args):
    group = abelian.abelianization(_parse_space_arg(args.space))
    if not _porcelain(args, [("group", group)]):
        print(group)
    return 0


def _cmd_characters(args):
    table = abelian.proper_characters(_parse_space_arg(args.space))
    if args.porcelain:
        print("count=%d" % table.total)
        print("families=%s" % ";".join(
            "%dx%d" % (f.count, f.order) for f in table.families
        ))
        print("dual=%s" % table.dual_group)
    else:
        print(table)
    return 0


def _cmd_perfect(args):
    flag = abelian.is_perfect(_parse_space_arg(args.space))
    text = "true" if flag else "false"
    if not _porcelain(args, [("perfect", text)]):
        print(text)
    return 0


def _cmd_verify(args):
    w = textio.parse_witness(_read(args.witness))
    checks = verify.run_checks(w)
    for ok, description in checks:
        print("%s %s" % ("ok" if ok else "FAIL", description))
    return 0 if all(ok for ok, _ in checks) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bht",
        description="Exact computations in Brin-Higman-Thompson groups.",
    )
    parser.add_argument("--porcelain", action="store_true",
                        help="emit key=value output for scripting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="compose two tables (right acts first)")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("invert", help="invert a table")
    p.add_argument("table")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("eq", help="decide equality of two tables")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_eq)

    p = sub.add_parser("order", help="order of a table element up to a bound")
    p.add_argument("table")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("support", help="closed support of a table element")
    p.add_argument("table")
    p.set_defaults(func=_cmd_support)

    p = sub.add_parser("apply", help="apply a table to an ultimately periodic point")
    p.add_argument("table")
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("compress", help="bisection from A strictly into B")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("double", help="two bisections from X into disjoint parts of X")
    p.add_argument("x")
    p.set_defaults(func=_cmd_double)

    p = sub.add_parser("between", help="bisection from A exactly onto B")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_between)

    p = sub.add_parser("multisection", help="order-3 element cycling three clopens")
    p.add_argument("x0")
    p.add_argument("x1")
    p.add_argument("x2")
    p.set_defaults(func=_cmd_multisection)

    p = sub.add_parser("vigor", help="element supported in X taking Y1 into Y2")
    p.add_argument("x")
    p.add_argument("y1")
    p.add_argument("y2")
    p.set_defaults(func=_cmd_vigor)

    p = sub.add_parser("conjugates", help="pairwise distinct conjugates of a table")
    p.add_argument("table")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_cmd_conjugates)

    p = sub.add_parser("compressibility", help="witness for one compressibility condition")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--point", required=True)
    p.add_argument("--cond", type=int, required=True)
    p.set_defaults(func=_cmd_compressibility)

    p = sub.add_parser("embed-v", help="embedding of V supported on a region containing X")
    p.add_argument("velement", nargs="?")
    p.add_argument("--space", required=True)
    p.add_argument("--support", required=True)
    p.set_defaults(func=_cmd_embed_v)

    p = sub.add_parser("homology", help="homology of the underlying groupoid")
    p.add_argument("--space", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("abelianization", help="abelianization of the full group")
    p.add_argument("--space", required=True)
    p.set_defaults(func=_cmd_abelianization)

    p = sub.add_parser("characters", help="proper character families")
    p.add_argument("--space", required=True)
    p.set_defaults(func=_cmd_characters)

    p = sub.add_parser("perfect", help="whether the full group is perfect")
    p.add_argument("--space", required=True)
    p.set_defaults(func=_cmd_perfect)

    p = sub.add_parser("verify", help="re-check the postconditions of a witness file")
    p.add_argument("witness")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return 2
    except DomainError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
