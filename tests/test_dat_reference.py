"""Differential test of ``formats.parse_dat`` against the parser it replaced.

The reference below is the earlier ``.dat`` reader, copied unchanged: a
per-line tokenizer that builds one ``_Tok`` (text, line, column) per token
and a ``_Cursor`` walked through method calls. Its module-level name
``parse_dat`` is the reference; the parser under test is always called as
``formats.parse_dat``. On every mutated input both must agree: an equal
Instance and the same warnings, or the same error type, message, line and
column. A text the reference accepts must never reach the token walk,
``formats._walk_dat``, and each text it rejects must be explained by it.

The earlier scanner in front of the walk is kept here too, also copied
unchanged: it checks a set's shape by replacing every entry with a
placeholder (``subn``) and reads the integers by ``split`` and ``int``.
Its module-level name ``scan_dat`` is the reference for
``formats._scan_dat``, which must return the same values or None on every
text.
"""

import random
import re
import sys
import time
import tracemalloc
import warnings
from itertools import chain
from unittest import mock

import pytest

from ctwkit import formats
from ctwkit.errors import ParseError
from ctwkit.formats import _SETS, DAT_PARAMS
from ctwkit.generate import GenMode, GenParams, generate_planted
from ctwkit.model import Instance

from conftest import random_instance
from test_formats import anytime_shaped, audit_shaped

# ---------------------------------------------------------------------------
# Reference parser


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|-?\d+|[={}<>,;]|\S")


class _Tok:
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN.finditer(line):
            toks.append(_Tok(m.group(), lineno, m.start() + 1))
    return toks


class _Cursor:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self, expect: str | None = None) -> _Tok:
        tok = self.peek()
        if tok is None:
            last = self.toks[-1] if self.toks else None
            raise ParseError(
                f"unexpected end of input (expected {expect or 'more input'})",
                last.line if last else 1,
                last.col if last else 1,
            )
        if expect is not None and tok.text != expect:
            raise ParseError(f"expected '{expect}', found '{tok.text}'", tok.line, tok.col)
        self.i += 1
        return tok

    def next_int(self) -> tuple[int, _Tok]:
        tok = self.next()
        try:
            return int(tok.text), tok
        except ValueError:
            raise ParseError(f"expected an integer, found '{tok.text}'", tok.line, tok.col)


def _parse_int_set(cur: _Cursor) -> list[tuple[int, _Tok]]:
    cur.next("{")
    items: list[tuple[int, _Tok]] = []
    while True:
        tok = cur.peek()
        if tok is None or tok.text == "}":
            cur.next("}")
            return items
        items.append(cur.next_int())
        tok = cur.peek()
        if tok is not None and tok.text == ",":
            cur.next()
        elif tok is not None and tok.text != "}":
            raise ParseError(f"expected ',' or '}}', found '{tok.text}'", tok.line, tok.col)


def _parse_tuple_set(cur: _Cursor, arity: int) -> list[tuple[tuple[int, ...], _Tok]]:
    cur.next("{")
    items: list[tuple[tuple[int, ...], _Tok]] = []
    while True:
        tok = cur.peek()
        if tok is None or tok.text == "}":
            cur.next("}")
            return items
        start = cur.next("<")
        values = []
        for pos in range(arity):
            if pos:
                cur.next(",")
            values.append(cur.next_int()[0])
        cur.next(">")
        items.append((tuple(values), start))
        tok = cur.peek()
        if tok is not None and tok.text == ",":
            cur.next()
        elif tok is not None and tok.text != "}":
            raise ParseError(f"expected ',' or '}}', found '{tok.text}'", tok.line, tok.col)


def _dedupe(name: str, items: list):
    seen = set()
    out = []
    dropped = 0
    for value, tok in items:
        if value in seen:
            dropped += 1
        else:
            seen.add(value)
            out.append(value)
    if dropped:
        warnings.warn(f"{name}: {dropped} duplicate entr{'y' if dropped == 1 else 'ies'} dropped")
    return out


def parse_dat(text: str) -> Instance:
    """Parse the tuple-set data format into an Instance.

    Duplicate entries inside one set are dropped with a warning; all other
    invariant breaches (ids out of range, b > k/2, a pair both hard and
    soft, ...) are errors.
    """
    cur = _Cursor(_tokenize(text))
    seen: dict[str, object] = {}
    first_tok: dict[str, _Tok] = {}
    while cur.peek() is not None:
        name_tok = cur.next()
        name = name_tok.text
        if name not in DAT_PARAMS:
            raise ParseError(f"unknown parameter '{name}'", name_tok.line, name_tok.col)
        if name in seen:
            raise ParseError(f"parameter '{name}' assigned twice", name_tok.line, name_tok.col)
        first_tok[name] = name_tok
        cur.next("=")
        if name in ("k", "b"):
            value, vtok = cur.next_int()
            if value < 0:
                raise ParseError(f"{name} must be >= 0, found {value}", vtok.line, vtok.col)
            seen[name] = value
        elif name == "DirectSuccessors":
            seen[name] = _parse_int_set(cur)
        elif name == "DisjunctiveConstraints":
            seen[name] = _parse_tuple_set(cur, 4)
        else:
            seen[name] = _parse_tuple_set(cur, 2)
        cur.next(";")
    missing = [p for p in DAT_PARAMS if p not in seen]
    if missing:
        raise ParseError(f"missing parameter(s): {', '.join(missing)}")

    k = seen["k"]
    b = seen["b"]
    if 2 * b > k:
        tok = first_tok["b"]
        raise ParseError(f"b = {b} exceeds k/2 (k = {k})", tok.line, tok.col)

    def check_range(items, name, arity):
        for value, tok in items:
            entries = value if arity > 1 else (value,)
            for j in entries:
                if not 1 <= j <= k:
                    raise ParseError(
                        f"{name}: job {j} is outside 1..{k}", tok.line, tok.col
                    )

    check_range(seen["AtomicConstraints"], "AtomicConstraints", 2)
    check_range(seen["SoftAtomicConstraints"], "SoftAtomicConstraints", 2)
    check_range(seen["DisjunctiveConstraints"], "DisjunctiveConstraints", 4)
    for value, tok in seen["DirectSuccessors"]:
        if not 1 <= value <= 2 * b:
            raise ParseError(
                f"DirectSuccessors: {value} is not a two-sided cable end (b = {b})",
                tok.line,
                tok.col,
            )
    for name in ("AtomicConstraints", "SoftAtomicConstraints"):
        for value, tok in seen[name]:
            if value[0] == value[1]:
                raise ParseError(
                    f"{name}: <{value[0]},{value[1]}> relates a job to itself",
                    tok.line,
                    tok.col,
                )
    for value, tok in seen["DisjunctiveConstraints"]:
        if value[0] == value[1] or value[2] == value[3]:
            raise ParseError(
                f"DisjunctiveConstraints: <{','.join(map(str, value))}> has a trivial disjunct",
                tok.line,
                tok.col,
            )

    atomic = _dedupe("AtomicConstraints", seen["AtomicConstraints"])
    soft = _dedupe("SoftAtomicConstraints", seen["SoftAtomicConstraints"])
    disj = _dedupe("DisjunctiveConstraints", seen["DisjunctiveConstraints"])
    ds = _dedupe("DirectSuccessors", seen["DirectSuccessors"])

    both = set(atomic) & set(soft)
    if both:
        tok = first_tok["SoftAtomicConstraints"]
        raise ParseError(
            f"constraints both hard and soft: {sorted(both)}", tok.line, tok.col
        )
    return Instance(
        k=k,
        b=b,
        atomic=tuple(atomic),
        soft_atomic=tuple(soft),
        disjunctive=tuple(disj),
        direct_successors=tuple(ds),
    )


# ---------------------------------------------------------------------------
# Reference scanner


# One statement for ``_scan_dat``: ``k`` or ``b`` with an integer, or a set
# name with a brace body that holds no brace and no semicolon.
_STATEMENT = re.compile(
    r"\s*(?:(k|b)\s*=\s*(-?\d+)|(%s)\s*=\s*\{([^{};]*)\})\s*;" % "|".join(_SETS)
)

# One set entry: ``\d+`` for an integer, ``<\s*\d+\s*,\s*\d+\s*>`` for a
# pair, and so on. Each pattern starts with a fixed character and repeats
# only single characters: a leading ``\s*`` would make ``subn`` quadratic
# in a run of whitespace, and a repeated group would keep backtracking
# state for every entry of a set.
_ENTRY = {
    name: re.compile(r"\d+" if arity == 1 else r"<\s*%s\s*>" % r"\s*,\s*".join([r"\d+"] * arity))
    for name, arity in _SETS.items()
}
_TO_SPACE = str.maketrans("<>,", "   ")


def scan_dat(text: str) -> dict[str, object] | None:
    """The six values of ``text`` when it is well-formed, else None.

    Tuple sets come back as lists of tuples and DirectSuccessors as a list
    of ints, duplicates kept. A set's shape is checked by replacing every
    entry with ``x`` and comparing what is left, whitespace removed, with
    ``x,x,...,x`` (one ``x`` per replaced entry) and an optional trailing
    comma after at least one entry; an ``x`` in the input itself makes the
    lengths differ. The integers are then read by ``split``. Entries carry
    no sign, because no negative id is in range. No semantic check (b
    against k, ranges, self-loops, ...) is made here: ``Instance`` makes
    them. A text accepted here is one whose values ``_walk_dat`` reads the
    same before its own semantic checks.
    """
    seen: dict[str, object] = {}
    pos = 0
    while m := _STATEMENT.match(text, pos):
        size, number, name, body = m.groups()
        pos = m.end()
        if size:
            name, value = size, int(number)
        else:
            marked, count = _ENTRY[name].subn("x", body)
            shape = "x," * count
            if "".join(marked.split()) not in (shape, shape[:-1]):
                return None
            value = list(map(int, body.translate(_TO_SPACE).split()))
        if name in seen:
            return None
        seen[name] = value
    if len(seen) < len(DAT_PARAMS) or text[pos:].strip():
        return None
    for name, arity in _SETS.items():
        if arity > 1:
            values = iter(seen[name])
            seen[name] = list(zip(*[values] * arity))
    return seen


# ---------------------------------------------------------------------------
# Mutated inputs

_SEPARATORS = ("\n", "\r\n", "\r", "\t", "\v", "\f", "\x1c", "\x85", "\u2028", " ")
_TOKEN_POOL = (
    "{", "}", "<", ">", ",", ";", "=", "-", "#", "x", "_a1", "\u0663", "\ufeff",
    "0", "1", "2", "3", "-1", "7", "12", "99", *DAT_PARAMS,
)
_CHAR_POOL = "{}<>,;=-_#x0123456789" + "".join(_SEPARATORS)
_ITEM = re.compile(r"<[^<>{};]*>")


def _base_text(rng: random.Random) -> str:
    inst, _ = random_instance(rng, rng.choice(list(GenMode)), max_k=rng.choice((4, 7, 10)))
    lines = formats.emit_dat(inst).splitlines()
    if rng.random() < 0.3:
        rng.shuffle(lines)
    if rng.random() < 0.3:
        n = rng.randrange(len(lines))
        lines[n] = lines[n].replace("};", ",};")
    sep = rng.choice(("\n", "\n\n", " ", ""))
    return sep.join(lines) + rng.choice(("\n", ""))


def _mutate(rng: random.Random, text: str) -> str:
    spans = [m.span() for m in _TOKEN.finditer(text)]
    # edits that keep the syntax (3, 4, 8) are drawn more often, so that
    # parsed instances and duplicate warnings stay common
    op = rng.choice((0, 1, 2, 3, 3, 4, 4, 4, 5, 6, 7, 8, 8, 9, 10))
    if op == 0 and spans:  # delete a token
        a, b = rng.choice(spans)
        return text[:a] + text[b:]
    if op == 1:  # insert a token before another one, or at the end
        at = rng.choice([a for a, _ in spans] + [len(text)])
        return text[:at] + rng.choice(_TOKEN_POOL) + rng.choice(("", " ")) + text[at:]
    if op == 2 and len(spans) > 1:  # swap two neighbouring tokens
        n = rng.randrange(len(spans) - 1)
        (a, b), (c, d) = spans[n], spans[n + 1]
        return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    if op == 3:  # change a number: range errors, self-loops, duplicates
        numbers = [(a, b) for a, b in spans if text[a:b].lstrip("-").isdigit()]
        if numbers:
            a, b = rng.choice(numbers)
            return text[:a] + str(rng.choice((-1, 0, 1, 2, 3, 5, 11))) + text[b:]
    if op == 4:  # copy a tuple into its own or some other set: duplicates, overlap
        items = list(_ITEM.finditer(text))
        opens = [m.end() for m in re.finditer(r"\{", text)]
        if items and opens:
            item = rng.choice(items)
            if rng.random() < 0.5:
                return text[: item.end()] + "," + item.group() + text[item.end():]
            at = rng.choice(opens)
            return text[:at] + item.group() + "," + text[at:]
    if op == 5:  # insert a character
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(_CHAR_POOL) + text[at:]
    if op == 6 and text:  # delete a character
        at = rng.randrange(len(text))
        return text[:at] + text[at + 1:]
    if op == 7 and len(text) > 1:  # swap two neighbouring characters
        at = rng.randrange(len(text) - 1)
        return text[:at] + text[at + 1] + text[at] + text[at + 2:]
    if op == 8:  # other line separators
        return text.replace("\n", rng.choice(_SEPARATORS))
    if op == 9 and "}" in text:  # drop a closing brace
        closes = [i for i, ch in enumerate(text) if ch == "}"]
        at = rng.choice(closes)
        return text[:at] + text[at + 1:]
    if op == 10:  # truncate
        return text[: rng.randrange(len(text) + 1)]
    return text


def _outcome(parse, text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("ok", parse(text))
        except Exception as exc:  # compared field by field below
            result = (
                type(exc).__name__,
                str(exc),
                getattr(exc, "line", None),
                getattr(exc, "column", None),
            )
    return result, [(w.category, str(w.message)) for w in caught]


def _walked(text):
    """The outcome of ``formats.parse_dat`` on ``text``, and whether the
    text reached ``formats._walk_dat`` (at most once)."""
    with mock.patch.object(formats, "_walk_dat", wraps=formats._walk_dat) as walk:
        outcome = _outcome(formats.parse_dat, text)
    assert walk.call_args_list in ([], [mock.call(text)]), walk.call_args_list
    return outcome, walk.called


def _assert_matches_reference(seed: int, count: int) -> dict[str, int]:
    """Compare both parsers on ``count`` mutated texts drawn from ``seed``.

    Returns the counts of outcomes, of texts with warnings, of texts that
    reached the walk, and of those the scanner had read (so ``Instance``
    sent them there).
    """
    rng = random.Random(seed)
    counts = {"ok": 0, "ParseError": 0, "warned": 0, "walked": 0, "scanned": 0}
    for _ in range(count):
        text = _base_text(rng)
        for _ in range(rng.choice((1, 1, 2, 3))):
            text = _mutate(rng, text)
        new, walked = _walked(text)
        assert new == _outcome(parse_dat, text), repr(text)
        kind = new[0][0]
        counts[kind] = counts.get(kind, 0) + 1
        counts["warned"] += bool(new[1])
        # every accepted text skips the walk, every rejected one is explained by it
        assert walked == (kind != "ok"), repr(text)
        counts["walked"] += walked
        counts["scanned"] += walked and formats._scan_dat(text) is not None
    # the mix must keep exercising both outcomes, both ways into the walk
    # and the warnings
    assert counts["ok"] >= count // 10, counts
    assert counts["ParseError"] >= count // 2, counts
    assert counts["scanned"] >= count // 20, counts
    assert counts["warned"] >= count // 40, counts
    return counts


def test_parse_dat_matches_reference_parser():
    _assert_matches_reference(20201126, 6000)


def _mutated_texts(seed: int, count: int):
    """The ``count`` texts that ``_assert_matches_reference(seed, count)``
    draws, in its order."""
    rng = random.Random(seed)
    for _ in range(count):
        text = _base_text(rng)
        for _ in range(rng.choice((1, 1, 2, 3))):
            text = _mutate(rng, text)
        yield text


def assert_scan_matches_reference(seed: int, count: int) -> int:
    """``formats._scan_dat`` returns what ``scan_dat`` returns, values or
    None, on the ``count`` mutated texts of ``seed`` and on the ``.dat``
    texts of its anytime- and audit-shaped benchmark instances. Returns
    the number of texts both scanners read."""
    shaped = (formats.emit_dat(inst) for inst, _ in chain(anytime_shaped(seed),
                                                          audit_shaped(seed)))
    scanned = 0
    for text in chain(_mutated_texts(seed, count), shaped):
        values = scan_dat(text)
        assert formats._scan_dat(text) == values, repr(text[:200])
        scanned += values is not None
    return scanned


def test_scan_matches_reference_scanner():
    # both scanners read the 1,261 mutated texts that parse, the 432 that
    # Instance sends to the walk and the 29 shaped texts
    assert assert_scan_matches_reference(20201126, 6000) == 1261 + 432 + 29


# ---------------------------------------------------------------------------
# Hand-written spellings, for the scanner in front of the token walk

_STATEMENTS = (
    "k = 5;",
    "b = 2;",
    "AtomicConstraints = {<1,2>, <3,4>};",
    "SoftAtomicConstraints = {<2,1>};",
    "DisjunctiveConstraints = {<1,5,2,5>};",
    "DirectSuccessors = {1,3};",
)
_PLAIN = "\n".join(_STATEMENTS) + "\n"
_CRUSHED = "".join(_PLAIN.split())


def _spaced(sep: str) -> str:
    return sep + sep.join(_TOKEN.findall(_PLAIN)) + sep


_VALID_SPELLINGS = {
    "no whitespace": _CRUSHED,
    **{f"separator {sep!r}": _spaced(sep) for sep in ("\x1c", "\x85", "\xa0", "　", "\f")},
    "unicode digits": _PLAIN.replace("5", "５").replace("<1,2>", "<١,２>"),
    "leading zeros": _PLAIN.replace("k = 5", "k = 005").replace("<3,4>", "<03,0004>")
    .replace("{1,3}", "{0001,3}"),
    "trailing commas": _PLAIN.replace("<3,4>}", "<3,4>,}").replace("<2,1>}", "<2,1> ,\n}")
    .replace("{1,3}", "{1,3,}"),
    "empty sets": "k=3;b=0;AtomicConstraints={};SoftAtomicConstraints={ };"
    "DisjunctiveConstraints={\n};DirectSuccessors={\t};",
    "negative zero": "k = -0; b = -00; AtomicConstraints = {}; SoftAtomicConstraints = {};"
    "DisjunctiveConstraints = {}; DirectSuccessors = {};",
    "any order": "\n".join(reversed(_STATEMENTS)),
    "b before k": "\n".join(_STATEMENTS[1::-1] + _STATEMENTS[2:]),
    "duplicates": _PLAIN.replace("<3,4>}", "<3,4>, <1,2>, <3,4>, <1,2>}")
    .replace("{1,3}", "{1,3,1}").replace("<1,5,2,5>}", "<1,5,2,5>,<1,5,2,5>}"),
}

# Texts that a shape check by placeholders could take for valid ones: a
# literal ``x`` (the placeholder), a set of commas only, and duplicates in
# a text that a later check rejects (their warnings must come once). Then
# well-formed texts with one fault that only ``Instance`` finds.
_TRAPS = {
    "placeholder alone": _PLAIN.replace("{<2,1>}", "{x}"),
    "placeholder after an entry": _PLAIN.replace("{<2,1>}", "{<2,1>,x}"),
    "placeholder before an entry": _PLAIN.replace("{<2,1>}", "{x,<2,1>}"),
    "placeholder glued to an entry": _PLAIN.replace("{<2,1>}", "{<2,1>x}"),
    "placeholder with a trailing comma": _PLAIN.replace("{<2,1>}", "{x,}"),
    "placeholder among integers": _PLAIN.replace("{1,3}", "{1,x}"),
    "placeholder as the only integer": _PLAIN.replace("{1,3}", "{x}"),
    "comma only": _PLAIN.replace("{<2,1>}", "{,}"),
    "spaced comma only": _PLAIN.replace("{<1,5,2,5>}", "{ , }"),
    "comma only among integers": _PLAIN.replace("{1,3}", "{,}"),
    "two trailing commas": _PLAIN.replace("{1,3}", "{1,3,,}"),
    "double comma": _PLAIN.replace("<3,4>}", "<3,4>,,<4,5>}"),
    "duplicates, then an overlap": _PLAIN.replace("{<1,2>, <3,4>}", "{<1,2>, <1,2>, <2,1>}"),
    "duplicates, then a self-loop": _PLAIN.replace("{1,3}", "{1,3,3}").replace("<2,1>", "<2,2>"),
    "b above k/2": _PLAIN.replace("b = 2", "b = 3"),
    "negative k": _PLAIN.replace("k = 5", "k = -1"),
    "id outside 1..k": _PLAIN.replace("<3,4>", "<3,6>"),
    "DirectSuccessors end above 2b": _PLAIN.replace("{1,3}", "{1,5}"),
    "self-loop": _PLAIN.replace("<3,4>", "<3,3>"),
    "trivial disjunct": _PLAIN.replace("<1,5,2,5>", "<1,5,2,2>"),
    "hard/soft overlap": _PLAIN.replace("{<2,1>}", "{<1,2>}"),
}


def test_valid_spellings_are_scanned():
    for name, text in _VALID_SPELLINGS.items():
        new, walked = _walked(text)
        assert new == _outcome(parse_dat, text), name
        assert new[0][0] == "ok", name
        assert not walked, name
    warned = _outcome(formats.parse_dat, _VALID_SPELLINGS["duplicates"])[1]
    assert [message for _, message in warned] == [
        "AtomicConstraints: 3 duplicate entries dropped",
        "DisjunctiveConstraints: 1 duplicate entry dropped",
        "DirectSuccessors: 1 duplicate entry dropped",
    ]


def test_traps_are_rejected_and_explained_once():
    for name, text in _TRAPS.items():
        new, walked = _walked(text)
        assert new == _outcome(parse_dat, text), name
        assert new[0][0] == "ParseError", name
        assert walked, name
    warned = _outcome(formats.parse_dat, _TRAPS["duplicates, then an overlap"])[1]
    assert [message for _, message in warned] == [
        "AtomicConstraints: 1 duplicate entry dropped"
    ]


# Spellings that only JSON reads: the scanner, which reads each set body as
# a JSON array, must decline them, and the walk must explain each with a
# ParseError (never a RecursionError from the deep nesting).
_JSON_ONLY = {
    "NaN": _PLAIN.replace("{1,3}", "{1,NaN}"),
    "Infinity": _PLAIN.replace("<3,4>", "<3,Infinity>"),
    "true": _PLAIN.replace("{1,3}", "{true,3}"),
    "null": _PLAIN.replace("<2,1>", "<2,null>"),
    "float": _PLAIN.replace("{1,3}", "{1,2.0}"),
    "exponent": _PLAIN.replace("<1,5,2,5>", "<1,5,2e0,5>"),
    "negative": _PLAIN.replace("{1,3}", "{1,-2}"),
    "negative zero entry": _PLAIN.replace("<3,4>", "<3,-0>"),
    "square brackets": _PLAIN.replace("{<2,1>}", "{[2,1]}"),
    "string": _PLAIN.replace("{1,3}", '{1,"2"}'),
    "nested pair": _PLAIN.replace("<1,2>", "<<1,2>>"),
    "100,000 nested": _PLAIN.replace("<1,2>", "<" * 100_000 + "1,2" + ">" * 100_000),
    "empty entry": _PLAIN.replace("{<2,1>}", "{<>}"),
    "tuple in DirectSuccessors": _PLAIN.replace("{1,3}", "{<1>,3}"),
    # declined by the translation of letters, "." and '"', or by the count
    # of one "[" per entry, with no type check over the ids
    "nested pair in a later slot": _PLAIN.replace("<3,4>", "<3,<4>>"),
    "nested disjunct entry": _PLAIN.replace("<1,5,2,5>", "<1,5,<2>,5>"),
    "nested entry in the first slot": _PLAIN.replace("<1,5,2,5>", "<<1>,5,2,5>"),
    "capital exponent": _PLAIN.replace("<1,5,2,5>", "<1,5,2E0,5>"),
    "fraction in a pair": _PLAIN.replace("<2,1>", "<2,1.0>"),
    "-Infinity": _PLAIN.replace("<3,4>", "<3,-Infinity>"),
    "quoted numeral in a pair": _PLAIN.replace("<2,1>", '<2,"1">'),
    "false in a pair": _PLAIN.replace("<1,2>", "<1,false>"),
    "letter in DirectSuccessors": _PLAIN.replace("{1,3}", "{1,b}"),
    "true in DirectSuccessors": _PLAIN.replace("{1,3}", "{1,true}"),
}


def test_json_only_spellings_are_declined_to_the_walk():
    for name, text in _JSON_ONLY.items():
        assert formats._scan_dat(text) is None, name
        assert scan_dat(text) is None, name
        new, walked = _walked(text)
        assert new == _outcome(parse_dat, text), name
        assert new[0][0] == "ParseError", name
        assert walked, name


def test_scanner_matches_reference_scanner_on_hand_written_texts():
    for name, text in chain(_VALID_SPELLINGS.items(), _TRAPS.items()):
        assert formats._scan_dat(text) == scan_dat(text), name
    assert all(formats._scan_dat(text) for text in _VALID_SPELLINGS.values())


_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "old, numeral",
    [("k = 5", "k = " + "9" * 5000), ("<3,4>", "<3," + "4" * 5000 + ">"),
     ("{1,3}", "{1," + "0" * _LIMIT + "3}")],
    ids=["k", "atomic-entry", "leading-zeros"],
)
def test_numeral_longer_than_int_reads_is_a_parse_error(old, numeral):
    # the earlier scanner let int()'s ValueError escape, with no position
    text = _PLAIN.replace(old, numeral)
    with pytest.raises(ValueError, match="Exceeds the limit"):
        scan_dat(text)
    assert formats._scan_dat(text) is None
    digits = re.search(r"\d{1000,}", text)
    line = text.count("\n", 0, digits.start()) + 1
    column = digits.start() - text.rfind("\n", 0, digits.start())
    ((kind, message, *at), warned), walked = _walked(text)
    assert kind == "ParseError" and walked and not warned
    assert message == (
        f"line {line}, column {column}: integer of {len(digits.group())} digits exceeds "
        f"the limit of {_LIMIT} digits"
    )
    assert at == [line, column]


def _audit_shaped():
    # the shape of the largest audit benchmark files: k = 3000, about 144 KB
    k, b = 3000, 750
    inst, _ = generate_planted(GenParams(b=b, n=k - 2 * b, p_atomic=0.001, p_soft=0.0003,
                                         p_disjunctive=0.002, ds_count=b // 4, seed=300_009))
    return inst.canonical()


def _long_chain():
    # one set of 25,000 entries: a regex that repeats a group once per entry
    # keeps backtracking state for each, more than the walk's tokens take
    return Instance(k=25_001, b=0, atomic=[(j, j + 1) for j in range(1, 25_001)])


@pytest.mark.parametrize("make", [_audit_shaped, _long_chain])
def test_scan_peaks_no_higher_than_the_token_walk(make):
    inst = make()
    text = formats.emit_dat(inst)
    peaks = []
    for parse in (formats.parse_dat, formats._walk_dat):
        tracemalloc.start()
        try:
            assert parse(text) == inst
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks


def test_long_whitespace_runs_scan_in_linear_time():
    # An entry pattern that started with \s* would retry each run from every
    # one of its positions: minutes for these runs instead of milliseconds.
    run = " " * 100_000
    text = (
        _PLAIN.replace("<3,4>}", f"<3,{run}4>,{run}}}").replace("{1,3}", f"{{1,{run}3{run}}}")
        + run
    )
    start = time.perf_counter()
    assert formats._scan_dat(text) is not None
    assert time.perf_counter() - start < 5
