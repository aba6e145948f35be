"""Text formats: spaces, clopens, tables, bisections, V tables, points,
and the witness container used by the command line.

All formats are line based, UTF-8, LF.  Words are spelled with the base-36
digits 0-9a-z ('e' is the empty word), so alphabets up to 36 letters are
supported.  Emission always happens in canonical order, making output files
byte-stable for equal inputs.
"""

from dataclasses import dataclass, field

from .element import PrefixBijection, TableElement
from .errors import DomainError, ParseError
from .space import Brick, Clopen, RationalPoint, SpaceSpec, Word

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def format_word(w: Word) -> str:
    if not w:
        return "e"
    return "".join(_DIGITS[a] for a in w)


def parse_word(s: str, line: int | None = None) -> Word:
    if s == "e":
        return ()
    try:
        return tuple(_DIGITS.index(c) for c in s)
    except ValueError:
        raise ParseError("bad word %r" % s, line) from None


def format_space(space: SpaceSpec) -> str:
    if any(k > len(_DIGITS) for k in space.kbar):
        raise ParseError("alphabet too large for the text format")
    return "space n=%d k=%s r=%d" % (
        space.n,
        ",".join(str(k) for k in space.kbar),
        space.r,
    )


def _parse_space_fields(rest: list[str], line: int) -> SpaceSpec:
    fields = {}
    for item in rest:
        if "=" not in item:
            raise ParseError("expected key=value, got %r" % item, line)
        key, _, value = item.partition("=")
        fields[key] = value
    try:
        n = int(fields["n"])
        kbar = tuple(int(x) for x in fields["k"].split(","))
        r = int(fields["r"])
        return SpaceSpec(n, kbar, r)
    except DomainError as err:
        raise ParseError(str(err), line) from None
    except (KeyError, ValueError):
        raise ParseError("bad space header", line) from None


def _split_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((i, line))
    return out


def _parse_side(s: str, space: SpaceSpec, line: int) -> Brick:
    if not s.startswith("root:"):
        raise ParseError("expected 'root:<int> <words>', got %r" % s, line)
    try:
        root_text, words_text = s.split(None, 1)
    except ValueError:
        raise ParseError("missing words after %r" % s, line) from None
    try:
        root = int(root_text[5:])
    except ValueError:
        raise ParseError("bad root in %r" % s, line) from None
    words = tuple(parse_word(w, line) for w in words_text.split(","))
    if len(words) != space.n:
        raise ParseError("expected %d words, got %d" % (space.n, len(words)), line)
    return Brick(root, words)


def _format_side(b: Brick) -> str:
    return "root:%d %s" % (b.root, ",".join(format_word(w) for w in b.words))


def format_clopen(c: Clopen) -> str:
    lines = [format_space(c.space)]
    lines += [_format_side(b) for b in c.bricks]
    return "\n".join(lines) + "\n"


def parse_clopen(text: str) -> Clopen:
    lines = _split_lines(text)
    if not lines or not lines[0][1].startswith("space "):
        raise ParseError("expected a 'space' header", lines[0][0] if lines else 1)
    lineno, header = lines[0]
    space = _parse_space_fields(header.split()[1:], lineno)
    bricks = [_parse_side(body, space, no) for no, body in lines[1:]]
    for no, b in zip((no for no, _ in lines[1:]), bricks):
        try:
            b.validate(space)
        except Exception as err:
            raise ParseError(str(err), no) from None
    return Clopen(space, bricks)


def _format_table_like(t: PrefixBijection, kind: str) -> str:
    lines = [format_space(t.space).replace("space", kind, 1)]
    for d, r in t.cells:
        lines.append("%s -> %s" % (_format_side(d), _format_side(r)))
    return "\n".join(lines) + "\n"


def format_table(t: TableElement) -> str:
    return _format_table_like(t, "table")


def format_bisection(b: PrefixBijection) -> str:
    return _format_table_like(b, "bisection")


def parse_table_like(text: str):
    """Parse a 'table' (full element) or 'bisection' (partial) file."""
    lines = _split_lines(text)
    if not lines:
        raise ParseError("empty input", 1)
    lineno, header = lines[0]
    kind = header.split()[0]
    if kind not in ("table", "bisection"):
        raise ParseError("expected a 'table' or 'bisection' header", lineno)
    space = _parse_space_fields(header.split()[1:], lineno)
    cells = []
    for no, body in lines[1:]:
        if "->" not in body:
            raise ParseError("expected '<dom> -> <ran>'", no)
        dom_text, _, ran_text = body.partition("->")
        cells.append(
            (_parse_side(dom_text.strip(), space, no), _parse_side(ran_text.strip(), space, no))
        )
    try:
        if kind == "table":
            return TableElement(space, cells)
        return PrefixBijection(space, cells)
    except Exception as err:
        raise ParseError(str(err), lineno) from None


def parse_table(text: str) -> TableElement:
    out = parse_table_like(text)
    if not isinstance(out, TableElement):
        raise ParseError("expected a full table, got a partial bisection")
    return out


def format_vpair(v: TableElement) -> str:
    from .vembed import binary_space

    v.space.check_same(binary_space())
    lines = ["vpair"]
    for d, r in v.cells:
        lines.append("%s -> %s" % (format_word(d.words[0]), format_word(r.words[0])))
    return "\n".join(lines) + "\n"


def parse_vpair(text: str) -> TableElement:
    from .vembed import binary_space

    space = binary_space()
    lines = _split_lines(text)
    if not lines or lines[0][1] != "vpair":
        raise ParseError("expected a 'vpair' header", lines[0][0] if lines else 1)
    cells = []
    for no, body in lines[1:]:
        if "->" not in body:
            raise ParseError("expected '<dom> -> <ran>'", no)
        dom_text, _, ran_text = body.partition("->")
        cells.append(
            (
                Brick(0, (parse_word(dom_text.strip(), no),)),
                Brick(0, (parse_word(ran_text.strip(), no),)),
            )
        )
    try:
        return TableElement(space, cells)
    except Exception as err:
        raise ParseError(str(err), lines[0][0]) from None


def format_point(p: RationalPoint) -> str:
    coords = ",".join(
        "%s(%s)" % (format_word(pre), format_word(per)) for pre, per in p.coords
    )
    return "root:%d %s" % (p.root, coords)


def parse_point(text: str, space: SpaceSpec) -> RationalPoint:
    text = text.strip()
    if not text.startswith("root:"):
        raise ParseError("expected 'root:<int> <pre(per),...>', got %r" % text)
    try:
        root_text, coord_text = text.split(None, 1)
        root = int(root_text[5:])
    except ValueError:
        raise ParseError("bad point %r" % text) from None
    coords = []
    for piece in coord_text.split(","):
        piece = piece.strip()
        if not piece.endswith(")") or "(" not in piece:
            raise ParseError("bad coordinate %r" % piece)
        pre_text, _, per_text = piece[:-1].partition("(")
        coords.append((parse_word(pre_text or "e"), parse_word(per_text)))
    try:
        return RationalPoint(space, root, coords)
    except Exception as err:
        raise ParseError(str(err)) from None


@dataclass
class Witness:
    """A claim plus the data needed to re-check it: named, typed blocks.

    ``param_lines`` maps each parameter read from a file to its line.
    """

    kind: str
    params: dict = field(default_factory=dict)
    blocks: dict = field(default_factory=dict)
    param_lines: dict = field(default_factory=dict)


def _format_block(obj) -> str:
    if isinstance(obj, Clopen):
        return format_clopen(obj)
    if isinstance(obj, TableElement):
        return format_table(obj)
    if isinstance(obj, PrefixBijection):
        return format_bisection(obj)
    raise TypeError("cannot serialize %r" % type(obj))


def format_witness(w: Witness) -> str:
    lines = ["witness %s" % w.kind]
    for key in sorted(w.params):
        lines.append("%s %s" % (key, w.params[key]))
    out = "\n".join(lines) + "\n"
    for name, obj in w.blocks.items():
        out += "begin %s\n%send\n" % (name, _format_block(obj))
    return out


def _parse_block(text: str, lineno: int):
    lines = _split_lines(text)
    if not lines:
        raise ParseError("empty block", lineno)
    head = lines[0][1].split()[0]
    if head == "space":
        return parse_clopen(text)
    if head in ("table", "bisection"):
        return parse_table_like(text)
    if head == "vpair":
        return parse_vpair(text)
    raise ParseError("unknown block type %r" % head, lineno)


def parse_witness(text: str) -> Witness:
    lines = text.splitlines()
    idx = 0
    header = None
    while idx < len(lines):
        stripped = lines[idx].strip()
        if stripped and not stripped.startswith("#"):
            header = (idx + 1, stripped)
            break
        idx += 1
    if header is None or not header[1].startswith("witness "):
        raise ParseError("expected a 'witness <kind>' header", 1)
    w = Witness(kind=header[1].split(None, 1)[1].strip())
    idx += 1
    while idx < len(lines):
        stripped = lines[idx].strip()
        if not stripped or stripped.startswith("#"):
            idx += 1
            continue
        if stripped.startswith("begin "):
            name = stripped[6:].strip()
            start = idx + 1
            body = []
            idx += 1
            while idx < len(lines) and lines[idx].strip() != "end":
                body.append(lines[idx])
                idx += 1
            if idx >= len(lines):
                raise ParseError("unterminated block %r" % name, start)
            # padded so that errors in the block report the file's line numbers
            w.blocks[name] = _parse_block("\n" * start + "\n".join(body), start)
            idx += 1
        else:
            key, _, value = stripped.partition(" ")
            w.params[key] = value.strip()
            w.param_lines[key] = idx + 1
            idx += 1
    return w
