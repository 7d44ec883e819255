"""Instance and solution file formats.

Four textual formats are supported:

* ``.dat`` -- the tuple-set data format::

      k = 26;
      b = 6;
      AtomicConstraints = {<1,3>, <2,3>};
      SoftAtomicConstraints = {};
      DisjunctiveConstraints = {<8,15,8,16>};
      DirectSuccessors = {1,2,8,7,};

  Whitespace and newlines are insignificant, empty sets and a trailing
  comma before ``}`` are accepted, and exactly these six parameters must
  each appear once. Anything else is a hard error. The four sets, their
  order and the arity of their entries come from ``model.CONSTRAINT_SETS``;
  ``_SETS`` gives them their ``.dat`` names, and the statement pattern,
  the set reader, the token walk and both emitters are built from it.

  A scanner reads the syntax only, in a few C-level passes per
  statement: one anchored regex per statement, then per set one
  ``translate`` into a JSON array (``<>`` as brackets), one
  ``json.loads``, a bracket count and type and length checks over the
  entries, whose lists become the ``Instance``'s plain tuple rows. The
  ``_scan_dat`` docstring argues why this accepts exactly the ``.dat``
  grammar with the values ``int`` reads. Whether the values make a valid
  instance is decided by ``Instance`` alone. A text that the
  scanner or ``Instance`` rejects is read again from the start by a token
  walk: one regex scan into token strings, walked by index. Only the walk
  raises a ``ParseError``, which carries the line and column of the
  offending token (lines as ``str.splitlines`` counts them); they are
  worked out only on that error path, by scanning the text again line by
  line up to the token.

* ``.dzn`` -- the same data as MiniZinc-style assignments (emit only).
  Non-empty constraint tables use 2-d array literals, empty ones use
  ``array2d``/``array1d`` with explicit index sets so that k = 0 and empty
  sets stay well-formed.

* ``.json`` -- the canonical machine format; schema mirrors the instance
  fields verbatim plus ``format``/``version`` tags. The reader and the
  emitter walk ``model.CONSTRAINT_SETS`` for the four sets.

* solution files -- one permutation per file, declared either as the tour
  (``tour 5 3 4 2 1``: job per position) or as positions (``positions ...``:
  position per job), with at most one ``instance`` id line and at most
  one ``claimed`` cost line; ``#`` starts a comment line.

CSV report emitters for the benchmark harness live here as well. Their
cells come from ``dataclasses.astuple`` of ``bench.InstanceMetrics`` and
``CostBreakdown``, in the order of the column tuples.
"""

from __future__ import annotations

import csv
import io as _io
import json
import re
import string
import sys
import warnings
from dataclasses import astuple, dataclass, fields

from .costs import CostBreakdown
from .errors import InstanceError, ParseError, SchemaError, digit_limit_error, read_ints
from .model import CONSTRAINT_SETS, Instance, Permutation

# The ``.dat`` name of each constraint set, mapped to the arity of its
# entries, in ``CONSTRAINT_SETS`` order. Every reader and emitter of
# ``.dat`` and ``.dzn`` text reads the sets from here.
_SETS = dict(zip(
    ("AtomicConstraints", "SoftAtomicConstraints", "DisjunctiveConstraints", "DirectSuccessors"),
    CONSTRAINT_SETS.values(),
))
DAT_PARAMS = ("k", "b", *_SETS)

REPORT_COLUMNS = (
    "instance", "k", "b", "state", "S", "M", "L", "N", "objective", "runtime_ms", "nodes",
    "sum_of_constraints", "avg_constrainedness", "max_constrainedness", "flags",
)
METRICS_COLUMNS = (
    "instance", "k", "b", "n", *CONSTRAINT_SETS,
    "sum_of_constraints", "avg_constrainedness", "max_constrainedness",
)


# ---------------------------------------------------------------------------
# .DAT


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|-?\d+|[={}<>,;]|\S")

# One statement for ``_scan_dat``: ``k`` or ``b`` with an integer, or a set
# name with a brace body that holds no brace and no semicolon.
_STATEMENT = re.compile(
    r"\s*(?:(k|b)\s*=\s*(-?\d+)|(%s)\s*=\s*\{([^{};]*)\})\s*;" % "|".join(_SETS)
)

# A set body as the items of a JSON array: ``<`` and ``>`` become its
# brackets, and the ASCII whitespace that ``\s`` accepts but JSON does not
# becomes a blank. ``[``, ``]``, ``-``, ``.``, ``"`` and the ASCII letters,
# which the grammar lacks and JSON reads (in a sign, a fraction, an
# exponent, a string, ``true``, ``NaN``, ...), become ``x``, which JSON
# refuses outside a string. JSON then reads only ints and lists.
_TO_JSON = str.maketrans({
    "<": "[", ">": "]",
    **dict.fromkeys('[]-."' + string.ascii_letters, "x"),
    **dict.fromkeys("\v\f\x1c\x1d\x1e\x1f", " "),
})
_NON_ASCII = re.compile(r"[^\x00-\x7f]")
_ZERO_LED = re.compile(r"(?<![0-9])0[0-9]+")  # a numeral JSON refuses and int() reads


def _to_ascii(m: re.Match) -> str:
    """A non-ASCII digit as its ASCII digit, non-ASCII whitespace as a blank."""
    c = m.group()
    return str(int(c)) if c.isdecimal() else " " if c.isspace() else c


def _int_str(m: re.Match) -> str:
    return str(int(m.group()))


def _read_body(body: str, arity: int) -> list | None:
    """The entries of one set body (ints, or tuples of ``arity`` ints), or None."""
    body = body.translate(_TO_JSON)
    if not body.isascii():
        body = _NON_ASCII.sub(_to_ascii, body)
    body = body.rstrip()
    comma = body.endswith(",")
    array = f"[{body[:-1] if comma else body}]"
    try:
        try:
            entries = json.loads(array)
        except ValueError:
            # JSON refuses a leading zero; a numeral longer than int()
            # reads raises ValueError in either read
            entries = json.loads(_ZERO_LED.sub(_int_str, array))
    except (ValueError, RecursionError):
        return None
    if comma and not entries:
        return None
    # each list JSON read opened at one "[" of the body
    lists = body.count("[")
    if arity == 1:
        return None if lists else entries
    if (
        lists == len(entries)
        and set(map(type, entries)) <= {list}
        and set(map(len, entries)) <= {arity}
    ):
        return list(map(tuple, entries))
    return None


def _scan_dat(text: str) -> dict[str, object] | None:
    """The six values of ``text`` when it is well-formed, else None.

    Tuple sets come back as lists of plain int tuples, the rows
    ``Instance`` keeps, and DirectSuccessors as a list of ints, duplicates
    kept. No semantic check (b against k, ranges, self-loops, ...) is made
    here: ``Instance`` makes them. A text accepted here is one whose values ``_walk_dat``
    reads the same before its own semantic checks.

    A set body is well-formed when it is empty, or holds entries separated
    by commas with at most one comma after the last, whitespace (``\\s``)
    around any of them. An entry is a numeral (``\\d+``, any Unicode decimal
    digits, no sign) when the arity is 1, else ``<`` and ``>`` around
    ``arity`` numerals separated by commas. ``_read_body`` reads the body
    as one JSON array and accepts exactly these bodies:

    * Translation makes every grammar body a JSON array with the same
      values. ``<`` and ``>`` become brackets and ``\\s`` a JSON blank
      (non-ASCII characters are mapped only in a body that has one). A
      numeral becomes ASCII digits of the same value. JSON refuses only a
      leading zero among these, so on a refusal each numeral led by a zero
      is written as ``int`` reads it and the array read once more. The one
      trailing comma is cut off, and a body cut to nothing is refused.
    * Every accepted array was such a body. Translation turns ``[``,
      ``]``, ``-``, ``.``, ``"`` and every ASCII letter of the text into
      ``x``, which JSON refuses, and non-ASCII characters other than
      digits and ``\\s`` are refused as they stand. So JSON reads only
      ASCII digits, commas, brackets and blanks: no sign, fraction,
      exponent, string, ``true``, ``null`` or ``NaN``, only ints and
      lists, and every bracket came from ``<`` or ``>``. Each ``[`` opens
      one list, so counting them rules out nesting: a DirectSuccessors
      body must have none, and a tuple-set body exactly one per entry,
      each entry a list of ``arity`` items, which are then ints. Each
      digit, bracket, comma and blank came from a digit, ``<``, ``>``, a
      comma or ``\\s`` in the body, placed as the grammar places them.
      Translation maps each character to one, and the second read only
      shortens runs of digits, so digits that JSON reads as one number
      were one run of digits in the body.

    A numeral longer than ``int`` reads (``sys.get_int_max_str_digits``)
    makes the text ill-formed, here and in ``_walk_dat``, which reports it.
    So does nesting deep enough that JSON raises ``RecursionError``: such a
    body cannot be well-formed.
    """
    seen: dict[str, object] = {}
    pos = 0
    while m := _STATEMENT.match(text, pos):
        size, number, name, body = m.groups()
        pos = m.end()
        if size:
            try:
                name, value = size, int(number)
            except ValueError:  # more digits than int() reads
                return None
        else:
            value = _read_body(body, _SETS[name])
            if value is None:
                return None
        if name in seen:
            return None
        seen[name] = value
    if len(seen) < len(DAT_PARAMS) or text[pos:].strip():
        return None
    return seen


def _position(text: str, index: int) -> tuple[int, int]:
    """Line and column of token ``index`` of ``_TOKEN.findall(text)``.

    Lines are split as ``str.splitlines`` splits them. No token can contain
    a line separator (each one is whitespace to ``\\S``), so the per-line
    scan meets the same tokens in the same order as the whole-text scan.
    A negative index (no tokens at all) gives line 1, column 1.
    """
    if index >= 0:
        for lineno, line in enumerate(text.splitlines(), start=1):
            for m in _TOKEN.finditer(line):
                if not index:
                    return lineno, m.start() + 1
                index -= 1
    return 1, 1


def _error(text: str, index: int, message: str) -> ParseError:
    return ParseError(message, *_position(text, index))


def _unexpected(text: str, toks: list[str], i: int, expect: str | None) -> ParseError:
    """The error for token ``i`` when ``expect`` (None: an integer) was due.

    ``toks`` ends with the empty-string sentinel; reaching it reports the end
    of input at the last real token.
    """
    end = len(toks) - 1
    if i >= end:
        return _error(
            text, end - 1, f"unexpected end of input (expected {expect or 'more input'})"
        )
    if expect is None:
        return _error(text, i, f"expected an integer, found '{toks[i]}'")
    return _error(text, i, f"expected '{expect}', found '{toks[i]}'")


def _int(text: str, toks: list[str], i: int) -> int:
    try:
        return int(toks[i])
    except ValueError:
        digits = toks[i].removeprefix("-")
        if digits.isdecimal():  # a numeral longer than int() reads
            raise digit_limit_error(len(digits), *_position(text, i)) from None
        raise _unexpected(text, toks, i, None) from None


def _read_set(text: str, toks: list[str], i: int, arity: int):
    """Read ``{e, e, ...}`` from token ``i``.

    An entry is an integer when ``arity`` is 1, else ``<v,...>`` with
    ``arity`` integers. Returns the entries (tuples for ``arity`` > 1), the
    token index of each (its ``<`` for a tuple), and the index after ``}``.
    """
    if toks[i] != "{":
        raise _unexpected(text, toks, i, "{")
    i += 1
    values: list = []
    where: list[int] = []
    while True:
        tok = toks[i]
        if tok == "}":
            return values, where, i + 1
        if not tok:
            raise _unexpected(text, toks, i, "}")
        where.append(i)
        if arity == 1:
            values.append(_int(text, toks, i))
        else:
            if tok != "<":
                raise _unexpected(text, toks, i, "<")
            row = [_int(text, toks, i + 1)]
            i += 2
            for _ in range(1, arity):
                if toks[i] != ",":
                    raise _unexpected(text, toks, i, ",")
                row.append(_int(text, toks, i + 1))
                i += 2
            if toks[i] != ">":
                raise _unexpected(text, toks, i, ">")
            values.append(tuple(row))
        i += 1
        tok = toks[i]
        if tok == ",":
            i += 1
        elif tok and tok != "}":
            raise _error(text, i, f"expected ',' or '}}', found '{tok}'")


def _warn_dropped(name: str, values: list, kept: tuple) -> None:
    dropped = len(values) - len(kept)
    if dropped:
        warnings.warn(f"{name}: {dropped} duplicate entr{'y' if dropped == 1 else 'ies'} dropped")


def _dedupe(name: str, values: list) -> tuple:
    out = tuple(dict.fromkeys(values))
    _warn_dropped(name, values, out)
    return out


def parse_dat(text: str) -> Instance:
    """Parse the tuple-set data format into an Instance.

    Duplicate entries inside one set are dropped with a warning; all other
    invariant breaches (ids out of range, b > k/2, a pair both hard and
    soft, ...) are errors.

    ``_scan_dat`` reads a well-formed text, and ``Instance`` decides
    whether its values are valid. Its duplicate test is the one pass that
    hashes each row, so the values are deduplicated only when it raises,
    and built once more. A text that the scan or the deduplicated
    ``Instance`` rejects is read again from the start by the token walk,
    ``_walk_dat``, which explains the rejection with a ``ParseError`` and
    warns of its own duplicates (it would return the Instance of a valid
    spelling the scan did not know). This path therefore warns of
    duplicates only after the Instance is built, so that each warning comes
    once.
    """
    seen = _scan_dat(text)
    if seen is None:
        return _walk_dat(text)
    # _SETS names the sets in the order of Instance's fields
    sets = [seen[name] for name in _SETS]
    try:
        return Instance(seen["k"], seen["b"], *sets)
    except InstanceError:  # duplicates, or a value the walk explains
        pass
    kept = [tuple(dict.fromkeys(values)) for values in sets]
    try:
        inst = Instance(seen["k"], seen["b"], *kept)
    except InstanceError:
        return _walk_dat(text)
    for name, values, unique in zip(_SETS, sets, kept):
        _warn_dropped(name, values, unique)
    return inst


def _walk_dat(text: str) -> Instance:
    """Read ``text`` token by token, raising a ``ParseError`` at the first fault."""
    toks = _TOKEN.findall(text)
    end = len(toks)
    toks.append("")  # sentinel: equals no expected token and is no integer
    seen: dict[str, object] = {}
    first: dict[str, int] = {}
    where: dict[str, list[int]] = {}
    i = 0
    while i < end:
        name = toks[i]
        if name not in DAT_PARAMS:
            raise _error(text, i, f"unknown parameter '{name}'")
        if name in seen:
            raise _error(text, i, f"parameter '{name}' assigned twice")
        first[name] = i
        i += 1
        if toks[i] != "=":
            raise _unexpected(text, toks, i, "=")
        i += 1
        if name in _SETS:
            seen[name], where[name], i = _read_set(text, toks, i, _SETS[name])
        else:
            value = _int(text, toks, i)
            if value < 0:
                raise _error(text, i, f"{name} must be >= 0, found {value}")
            if name == "k" and value >= sys.maxsize:
                raise _error(text, i, f"k must be < {sys.maxsize}, found {value}")
            seen[name] = value
            i += 1
        if toks[i] != ";":
            raise _unexpected(text, toks, i, ";")
        i += 1
    missing = [p for p in DAT_PARAMS if p not in seen]
    if missing:
        raise ParseError(f"missing parameter(s): {', '.join(missing)}")

    k = seen["k"]
    b = seen["b"]
    if 2 * b > k:
        raise _error(text, first["b"], f"b = {b} exceeds k/2 (k = {k})")

    for name, arity in _SETS.items():
        if arity > 1:
            for row, at in zip(seen[name], where[name]):
                for j in row:
                    if not 1 <= j <= k:
                        raise _error(text, at, f"{name}: job {j} is outside 1..{k}")
    for value, at in zip(seen["DirectSuccessors"], where["DirectSuccessors"]):
        if not 1 <= value <= 2 * b:
            raise _error(
                text, at, f"DirectSuccessors: {value} is not a two-sided cable end (b = {b})"
            )
    for name, arity in _SETS.items():
        if arity == 2:
            for (before, after), at in zip(seen[name], where[name]):
                if before == after:
                    raise _error(text, at, f"{name}: <{before},{after}> relates a job to itself")
    for row, at in zip(seen["DisjunctiveConstraints"], where["DisjunctiveConstraints"]):
        if row[0] == row[1] or row[2] == row[3]:
            raise _error(
                text,
                at,
                f"DisjunctiveConstraints: <{','.join(map(str, row))}> has a trivial disjunct",
            )

    sets = [_dedupe(name, seen[name]) for name in _SETS]
    both = set(sets[0]) & set(sets[1])  # the hard and the soft pairs
    if both:
        raise _error(
            text,
            first["SoftAtomicConstraints"],
            f"constraints both hard and soft: {sorted(both)}",
        )
    return Instance(k, b, *sets)


def _dat_sets(inst: Instance):
    """``((name, arity), rows)`` for each set of ``inst``, in ``_SETS``
    order, each set's rows sorted ascending.

    Sorting the rows of a valid instance gives the rows of its
    ``canonical()`` form, so the emitters write that form without building
    and validating it as a second ``Instance``.
    """
    return zip(_SETS.items(), (sorted(getattr(inst, name)) for name in CONSTRAINT_SETS))


def emit_dat(inst: Instance) -> str:
    """Serialize to the tuple-set format, constraint sets sorted ascending:
    the text of ``inst.canonical()``, read from ``inst`` itself."""
    lines = [f"k = {inst.k};", f"b = {inst.b};"]
    for (name, arity), entries in _dat_sets(inst):
        if arity == 1:
            body = ",".join(map(str, entries))
        else:
            entry = "<%s>" % ",".join(["%s"] * arity)  # "<%s,%s>" for a pair
            body = ", ".join(map(entry.__mod__, entries))
        lines.append(f"{name} = {{{body}}};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# .DZN


def emit_dzn(inst: Instance) -> str:
    """MiniZinc-style data text with the six parameter assignments,
    constraint sets sorted ascending as in ``emit_dat``."""
    lines = [f"k = {inst.k};", f"b = {inst.b};"]
    for (name, arity), entries in _dat_sets(inst):
        if arity == 1:
            value = f"[{', '.join(map(str, entries))}]" if entries else "array1d(1..0, [])"
        elif entries:
            row = ", ".join(["%s"] * arity)  # "%s, %s" for a pair
            value = "[| %s |]" % " | ".join(map(row.__mod__, entries))
        else:
            value = f"array2d(1..0, 1..{arity}, [])"
        lines.append(f"{name} = {value};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON

JSON_FORMAT = "ctw-instance"
JSON_VERSION = 1


def emit_json(inst: Instance) -> str:
    """Canonical machine format; field order and constraint order preserved."""
    doc = {"format": JSON_FORMAT, "version": JSON_VERSION, "k": inst.k, "b": inst.b}
    doc.update((name, getattr(inst, name)) for name in CONSTRAINT_SETS)  # tuples as arrays
    return json.dumps(doc, indent=2) + "\n"


def _expect_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"expected an integer, found {value!r}", path)
    return value


def _expect_set(value, path: str, arity: int) -> tuple:
    """A constraint set: rows of ``arity`` integers, or integers when it is 1."""
    if not isinstance(value, list):
        found = f", found {type(value).__name__}" if arity > 1 else ""
        raise SchemaError(f"expected a list{found}", path)
    if arity == 1:
        return tuple(_expect_int(v, f"{path}[{i}]") for i, v in enumerate(value))
    rows = []
    for idx, row in enumerate(value):
        rpath = f"{path}[{idx}]"
        if not isinstance(row, list) or len(row) != arity:
            raise SchemaError(f"expected a list of {arity} integers", rpath)
        rows.append(tuple(_expect_int(v, f"{rpath}[{i}]") for i, v in enumerate(row)))
    return tuple(rows)


def parse_json(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, a numeral longer than int() reads, or nesting too deep
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", "$")
    for field_name in ("format", "version", "k", "b", *CONSTRAINT_SETS):
        if field_name not in doc:
            raise SchemaError("missing required field", f"$.{field_name}")
    if doc["format"] != JSON_FORMAT:
        raise SchemaError(f"expected {JSON_FORMAT!r}, found {doc['format']!r}", "$.format")
    # read as k and b are: true and 1.0 equal 1 but are no version
    if _expect_int(doc["version"], "$.version") != JSON_VERSION:
        raise SchemaError(f"unsupported version {doc['version']!r}", "$.version")
    k = _expect_int(doc["k"], "$.k")
    b = _expect_int(doc["b"], "$.b")
    sets = {name: _expect_set(doc[name], f"$.{name}", arity)
            for name, arity in CONSTRAINT_SETS.items()}
    return Instance(k, b, **sets)


def read_text(path) -> str:
    """The text of the file at ``path``, a leading UTF-8 byte-order mark
    skipped. Text that is not UTF-8 is a ``ParseError``."""
    from pathlib import Path

    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at offset {exc.start}") from None


def load_instance(path) -> Instance:
    """Parse an instance file read by ``read_text``, picking the format
    from the extension."""
    from pathlib import Path

    p = Path(path)
    text = read_text(p)
    if p.suffix.lower() == ".json":
        return parse_json(text)
    if p.suffix.lower() == ".dat":
        return parse_dat(text)
    raise ParseError(f"cannot infer format from extension {p.suffix!r} (use .dat or .json)")


# ---------------------------------------------------------------------------
# Solution files


@dataclass(frozen=True)
class SolutionFile:
    """A permutation claimed by some solver, before any checking.

    ``kind`` is ``"tour"`` (values are jobs by position) or ``"positions"``
    (values are positions by job). A tour's bijectivity is checked
    downstream when the file is audited against an instance.
    """

    instance_id: str | None
    kind: str
    values: tuple[int, ...]
    claimed: CostBreakdown | None = None

    def permutation(self) -> Permutation:
        """The values as a Permutation; ValueError when positions are not invertible."""
        if self.kind == "tour":
            return Permutation(self.values)
        return Permutation.from_positions(self.values)


_CLAIMED = re.compile(
    r"^S=(\d+)\s+M=(\d+)\s+L=(\d+)\s+N=(\d+)\s+objective=(\d+)$"
)


def parse_solution(text: str) -> SolutionFile:
    instance_id = None
    kind = None
    values: tuple[int, ...] | None = None
    claimed = None
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, *tail = line.split(None, 1)
        rest = tail[0] if tail else ""
        slot = "permutation" if head in ("tour", "positions") else head
        if slot in seen:
            raise ParseError(f"more than one {slot} line", lineno, 1)
        seen.add(slot)
        if head == "instance":
            instance_id = rest or None
        elif slot == "permutation":
            kind = head
            values = read_ints(rest.split(), lineno, f"non-integer entry in {head} line")
        elif head == "claimed":
            m = _CLAIMED.match(rest)
            if not m:
                raise ParseError(
                    "claimed line must read 'claimed S=<int> M=<int> L=<int> N=<int> objective=<int>'",
                    lineno,
                    1,
                )
            try:
                claimed = CostBreakdown(*map(int, m.groups()))
            except ValueError:  # a numeral longer than int() reads
                raise digit_limit_error(max(map(len, m.groups())), lineno) from None
        else:
            raise ParseError(f"unknown line '{head}'", lineno, 1)
    if kind is None:
        raise ParseError("no 'tour' or 'positions' line found")
    return SolutionFile(instance_id=instance_id, kind=kind, values=values, claimed=claimed)


# ---------------------------------------------------------------------------
# CSV reports


_NO_COSTS = ("",) * len(fields(CostBreakdown))


def _metric_cells(m) -> tuple:
    """The fields of ``InstanceMetrics`` ``m``, the two ratios to one decimal."""
    *counts, avg, peak = astuple(m)
    return (*counts, f"{avg:.1f}", f"{peak:.1f}")


def emit_report_csv(rows) -> str:
    """Benchmark report; one line per instance, ordered as given.

    ``rows`` is an iterable of ``bench.BenchRow``. Constrainedness is
    reported to one decimal; cost columns stay empty when no solution
    exists for the row.
    """
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        k, b, *_, total, avg, peak = _metric_cells(row.metrics)
        costs = astuple(row.breakdown) if row.breakdown else _NO_COSTS
        writer.writerow((row.instance_id, k, b, row.state.value, *costs, row.runtime_ms,
                         row.nodes, total, avg, peak, ";".join(row.flags)))
    return buf.getvalue()


def emit_metrics_csv(items) -> str:
    """Instance metrics only; ``items`` yields (instance_id, InstanceMetrics)."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    writer.writerows((instance_id, *_metric_cells(m)) for instance_id, m in items)
    return buf.getvalue()
