"""Text formats: clopens, tables, bisections, V tables, points, and the
witness container used by the command line.

All formats are line based, UTF-8, LF: only LF ends a line, and other line
break characters such as form feed count as spaces.  Blank lines and lines
starting with '#' may appear anywhere and are skipped; errors name the line
of the file.
Words are spelled with the digits 0-9a-d ('e' is the empty word), so an
alphabet has at most 14 letters, and a header names n, k and r once each.
An object is a header line and then one brick or cell per line:

    space n=2 k=2,3 r=1        a clopen, one brick 'root:0 0,e' per line
    table n=1 k=2 r=1          a full table, one 'root:0 0 -> root:0 1' per line
    bisection n=1 k=2 r=1      a partial bisection, cells as in a table
    vpair                      a V table over the binary space, '0 -> 1'

:func:`parse` reads all four and builds each with its checking constructor;
a brick out of range is reported on its own line, overlapping bricks and a
table that leaves part of the space uncovered on the header line.  A witness
wraps named objects in ``begin <name>`` ... ``end`` lines after its
``witness <kind>`` header and one ``<key> <value>`` line per parameter.
Emission always happens in canonical order, making output files byte-stable
for equal inputs.
"""

from dataclasses import dataclass, field

from .element import PrefixBijection, TableElement
from .errors import DomainError, ParseError
from .space import Brick, Clopen, RationalPoint, SpaceSpec, Word, binary_space

_DIGITS = "0123456789abcd"
_LETTERS = {c: a for a, c in enumerate(_DIGITS)}
_HEADERS = {"space": Clopen, "table": TableElement, "bisection": PrefixBijection,
            "vpair": TableElement}


def format_word(w: Word) -> str:
    if not w:
        return "e"
    return "".join(map(_DIGITS.__getitem__, w))


def parse_word(s: str, line: int | None = None) -> Word:
    if s == "e":
        return ()
    try:
        return tuple(map(_LETTERS.__getitem__, s))
    except KeyError:
        raise ParseError("bad word %r" % s, line) from None


def _spellable(space: SpaceSpec, line: int | None = None) -> SpaceSpec:
    if any(k > len(_DIGITS) for k in space.kbar):
        raise ParseError("alphabet too large for the text format", line)
    return space


def format_space(space: SpaceSpec) -> str:
    return str(_spellable(space))


def _parse_space_fields(rest: list[str], line: int) -> SpaceSpec:
    fields = {}
    for item in rest:
        if "=" not in item:
            raise ParseError("expected key=value, got %r" % item, line)
        key, _, value = item.partition("=")
        if key not in ("n", "k", "r"):
            raise ParseError("unknown header field %r" % key, line)
        if key in fields:
            raise ParseError("repeated header field %r" % key, line)
        fields[key] = value
    try:
        n = int(fields["n"])
        kbar = tuple(int(x) for x in fields["k"].split(","))
        r = int(fields["r"])
        space = SpaceSpec(n, kbar, r)
    except DomainError as err:
        raise ParseError(str(err), line) from None
    except (KeyError, ValueError):
        raise ParseError("bad space header", line) from None
    return _spellable(space, line)


def _split_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.split("\n"), start=1):
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


def parse(text: str, expect: type | None = None):
    """The clopen, table, bisection or V table written in ``text``.

    With ``expect`` (``Clopen``, ``TableElement`` or ``PrefixBijection``) an
    object of another kind is a :class:`ParseError` on its header line; a
    ``vpair`` is a table, and a table is accepted where a bisection is
    expected.
    """
    lines = _split_lines(text)
    if not lines:
        raise ParseError("empty input", 1)
    return _parse_object(lines, expect)


def _parse_object(lines: list[tuple[int, str]], expect: type | None = None):
    lineno, header = lines[0]
    word, *rest = header.split()
    kind = _HEADERS.get(word)
    if expect is not None and (kind is None or not issubclass(kind, expect)):
        raise ParseError("expected a %s header" % " or ".join(
            "'%s'" % w for w, k in _HEADERS.items() if issubclass(k, expect)), lineno)
    if kind is None:
        raise ParseError("unknown block type %r" % word, lineno)
    if word == "vpair":
        if rest:
            raise ParseError("bad vpair header", lineno)
        space = binary_space()
        side = lambda s, no: Brick(0, (parse_word(s, no),))
    else:
        space = _parse_space_fields(rest, lineno)
        side = lambda s, no: _parse_side(s, space, no)
    items = []
    for no, body in lines[1:]:
        if kind is Clopen:
            items.append(side(body, no))
        else:
            dom, arrow, ran = body.partition("->")
            if not arrow:
                raise ParseError("expected '<dom> -> <ran>'", no)
            items.append((side(dom.strip(), no), side(ran.strip(), no)))
    try:
        return kind(space, items)
    except DomainError as err:
        # name the line of the first brick out of range; overlap and
        # coverage errors belong to the header
        for (no, _), item in zip(lines[1:], items):
            try:
                Brick.validate(space, [item] if kind is Clopen else list(item))
            except DomainError as bad:
                raise ParseError(str(bad), no) from None
        raise ParseError(str(err), lineno) from None


def _format_table_like(t: PrefixBijection, kind: str) -> str:
    lines = [format_space(t.space).replace("space", kind, 1)]
    for d, r in t.cells:
        lines.append("%s -> %s" % (_format_side(d), _format_side(r)))
    return "\n".join(lines) + "\n"


def format_table(t: TableElement) -> str:
    return _format_table_like(t, "table")


def format_bisection(b: PrefixBijection) -> str:
    return _format_table_like(b, "bisection")


def format_point(p: RationalPoint) -> str:
    _spellable(p.space)
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
    except DomainError as err:
        raise ParseError(str(err)) from None


@dataclass
class Witness:
    """A claim plus the data needed to re-check it: named, typed blocks.

    Read from a file, it keeps the line of its ``witness`` header, of each
    parameter and of each block's ``begin``.
    """

    kind: str
    params: dict = field(default_factory=dict)
    blocks: dict = field(default_factory=dict)
    param_lines: dict = field(default_factory=dict)
    block_lines: dict = field(default_factory=dict)
    kind_line: int | None = None


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


def parse_witness(text: str) -> Witness:
    lines = _split_lines(text)
    if not lines or not lines[0][1].startswith("witness "):
        raise ParseError("expected a 'witness <kind>' header", lines[0][0] if lines else 1)
    w = Witness(kind=lines[0][1].split(None, 1)[1].strip(), kind_line=lines[0][0])
    idx = 1
    while idx < len(lines):
        lineno, line = lines[idx]
        if line.startswith("begin "):
            name = line[6:].strip()
            if name in w.blocks:
                raise ParseError("repeated block %r" % name, lineno)
            end = next((j for j in range(idx + 1, len(lines)) if lines[j][1] == "end"), None)
            if end is None:
                raise ParseError("unterminated block %r" % name, lineno)
            if end == idx + 1:
                raise ParseError("empty block", lineno)
            w.blocks[name] = _parse_object(lines[idx + 1:end])
            w.block_lines[name] = lineno
            idx = end + 1
        else:
            key, _, value = line.partition(" ")
            if key in w.params:
                raise ParseError("repeated parameter %r" % key, lineno)
            w.params[key] = value.strip()
            w.param_lines[key] = lineno
            idx += 1
    return w
