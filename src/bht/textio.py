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
a brick out of range is reported on its own line, overlapping bricks (as the
file spells them) and a table that leaves part of the space uncovered on the
header line.  A witness wraps named objects in ``begin <name>`` ... ``end``
lines after its ``witness <kind>`` header and one ``<key> <value>`` line per
parameter; outside a block, ``end``, a ``begin`` with no name and a second
``witness`` line are errors, and a block that meets a ``begin`` or the end
of the file before its ``end`` is unterminated.  Output is written in
canonical order, so equal inputs give equal bytes.

A :func:`parse` or :func:`parse_witness` call keeps one memo for that call:
per side syntax (the space, or None for the bare words of a ``vpair``), side
text to :class:`Brick`, so a repeated side is one brick; every block still
runs its checking constructor, and every error names the line where it first
occurs.  :func:`format_witness` writes each distinct brick once per call.
Nothing is cached at module level or on a value.
"""

from dataclasses import dataclass, field

from .element import PrefixBijection, TableElement
from .errors import DomainError, OverlapError, ParseError
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
    return _parse_object(lines, {}, expect)


def _parse_object(lines: list[tuple[int, str]], sides: dict, expect: type | None = None):
    """The object of one header line and its body lines.

    ``sides`` is the memo of the calling parse: side syntax (the space, or
    None for a vpair) to a dict from side text to brick.
    """
    lineno, header = lines[0]
    word, *rest = header.split()
    kind = _HEADERS.get(word)
    if expect is not None and (kind is None or not issubclass(kind, expect)):
        raise ParseError("expected a %s header" % " or ".join(
            "'%s'" % w for w, k in _HEADERS.items() if issubclass(k, expect)), lineno)
    if kind is None:
        raise ParseError("unknown block type %r" % word, lineno)
    vpair = word == "vpair"
    if vpair:
        if rest:
            raise ParseError("bad vpair header", lineno)
        space = binary_space()
    else:
        space = _parse_space_fields(rest, lineno)
    bricks = sides.setdefault(None if vpair else space, {})
    items = []
    for no, body in lines[1:]:
        if kind is Clopen:
            texts = (body,)
        else:
            dom, arrow, ran = body.partition("->")
            if not arrow:
                raise ParseError("expected '<dom> -> <ran>'", no)
            texts = (dom.strip(), ran.strip())
        for s in texts:
            if s in bricks:
                continue
            # a vpair side is a bare word; any other is 'root:<int> <words>'
            root, word_texts = 0, [s]
            if not vpair:
                if not s.startswith("root:"):
                    raise ParseError("expected 'root:<int> <words>', got %r" % s, no)
                try:
                    root_text, words_text = s.split(None, 1)
                except ValueError:
                    raise ParseError("missing words after %r" % s, no) from None
                try:
                    root = int(root_text[5:])
                except ValueError:
                    raise ParseError("bad root in %r" % s, no) from None
                word_texts = words_text.split(",")
            words = tuple([parse_word(w, no) for w in word_texts])
            if len(words) != space.n:
                raise ParseError("expected %d words, got %d" % (space.n, len(words)), no)
            bricks[s] = Brick(root, words)
        items.append(bricks[body] if kind is Clopen else (bricks[texts[0]], bricks[texts[1]]))
    try:
        return kind(space, items)
    except OverlapError as err:
        # name the two bricks as the file first spells them
        spelled = {b: text for text, b in reversed(bricks.items())}
        raise ParseError("%s bricks overlap: %r, %r" % (
            err.side, spelled[err.first], spelled[err.second]), lineno) from None
    except DomainError as err:
        # name the line of the first brick out of range; coverage is the header's
        for (no, _), item in zip(lines[1:], items):
            try:
                Brick.validate(space, [item] if kind is Clopen else list(item))
            except DomainError as bad:
                raise ParseError(str(bad), no) from None
        raise ParseError(str(err), lineno) from None


def _format_object(obj, kind: str, sides: dict) -> str:
    """The text of a clopen, or of a table or bisection under the header word
    ``kind``; ``sides`` maps each brick already written to its text."""
    def side(b: Brick) -> str:
        text = sides.get(b)
        if text is None:
            text = sides[b] = "root:%d %s" % (b.root, ",".join(map(format_word, b.words)))
        return text

    lines = [format_space(obj.space).replace("space", kind, 1)]
    if isinstance(obj, Clopen):
        lines += map(side, obj.bricks)
    else:
        lines += ["%s -> %s" % (side(d), side(r)) for d, r in obj.cells]
    return "\n".join(lines) + "\n"


def format_clopen(c: Clopen) -> str:
    return _format_object(c, "space", {})


def format_table(t: TableElement) -> str:
    return _format_object(t, "table", {})


def format_bisection(b: PrefixBijection) -> str:
    return _format_object(b, "bisection", {})


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


@dataclass(frozen=True, slots=True)
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


def format_witness(w: Witness) -> str:
    out = "witness %s\n" % w.kind
    out += "".join("%s %s\n" % (key, w.params[key]) for key in sorted(w.params))
    # kind to header word, the first of each kind: a table is written 'table', not 'vpair'
    words = {k: word for word, k in reversed(_HEADERS.items())}
    sides = {}
    for name, obj in w.blocks.items():
        out += "begin %s\n%send\n" % (name, _format_object(obj, words[type(obj)], sides))
    return out


def parse_witness(text: str) -> Witness:
    lines = _split_lines(text)
    if not lines or not lines[0][1].startswith("witness "):
        raise ParseError("expected a 'witness <kind>' header", lines[0][0] if lines else 1)
    kind_line, header = lines[0]
    params, param_lines, blocks, block_lines, sides = {}, {}, {}, {}, {}
    name, start = None, 0  # the open block and the index of its first body line
    for i in range(1, len(lines)):
        lineno, line = lines[i]
        key, _, value = line.partition(" ")
        if name is not None:
            if key == "begin":
                raise ParseError("unterminated block %r" % name, block_lines[name])
            if line == "end":
                if i == start:
                    raise ParseError("empty block", block_lines[name])
                blocks[name] = _parse_object(lines[start:i], sides)
                name = None
        elif key == "begin":
            name = value.strip()
            if not name:
                raise ParseError("missing block name", lineno)
            if name in block_lines:
                raise ParseError("repeated block %r" % name, lineno)
            block_lines[name] = lineno
            start = i + 1
        # 'end' closes a block and 'witness' opens the file: neither is a parameter
        elif key == "end":
            raise ParseError("'end' outside a block", lineno)
        elif key == "witness":
            raise ParseError("repeated 'witness' header", lineno)
        elif key in params:
            raise ParseError("repeated parameter %r" % key, lineno)
        else:
            params[key] = value.strip()
            param_lines[key] = lineno
    if name is not None:
        raise ParseError("unterminated block %r" % name, block_lines[name])
    return Witness(header.split(None, 1)[1].strip(), params, blocks, param_lines, block_lines, kind_line)
