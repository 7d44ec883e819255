import codecs
import hashlib
import random
import re
import sys
from itertools import chain

import pytest

from ctwkit import (
    CostBreakdown,
    Instance,
    ParseError,
    Permutation,
    ResultState,
    SchemaError,
    emit_dat,
    emit_dzn,
    emit_json,
    emit_metrics_csv,
    emit_report_csv,
    load_instance,
    parse_dat,
    parse_json,
    parse_solution,
)
from ctwkit.bench import BenchRow, metrics
from ctwkit.generate import (
    GenMode,
    GenParams,
    anytime_suite,
    certification_suite,
    generate_planted,
)

from conftest import random_instance

R024_EXCERPT = """\
k = 26;

b = 6;

AtomicConstraints = {<1,3>, <2,3>, <3,18>, <6,18>, <15,25>, <17,21>};

SoftAtomicConstraints = {<2,1>, <4,3>, <6,5>, <12,26>};

DisjunctiveConstraints = {<8,15,8,16>, <16,12,6,16>, <9,17,9,18>};

DirectSuccessors = {1,2,8,7,};
"""


def test_parse_r024_excerpt():
    inst = parse_dat(R024_EXCERPT)
    assert inst.k == 26
    assert inst.b == 6
    for pair in ((1, 3), (2, 3), (3, 18), (6, 18), (15, 25), (17, 21)):
        assert pair in inst.atomic
    assert (2, 1) in inst.soft_atomic
    assert (8, 15, 8, 16) in inst.disjunctive
    assert set(inst.direct_successors) == {1, 2, 8, 7}  # trailing comma accepted


def test_parse_is_whitespace_insensitive():
    crushed = re.sub(r"\s+", " ", R024_EXCERPT)
    assert parse_dat(crushed).canonical() == parse_dat(R024_EXCERPT).canonical()
    assert parse_dat(R024_EXCERPT.replace("\n", "\r\n")).canonical() == parse_dat(
        R024_EXCERPT
    ).canonical()


def test_parse_empty_instance():
    text = (
        "k = 0;\nb = 0;\nAtomicConstraints = {};\nSoftAtomicConstraints = {};\n"
        "DisjunctiveConstraints = {};\nDirectSuccessors = {};\n"
    )
    inst = parse_dat(text)
    assert inst == Instance(k=0, b=0)


def _dat(k=5, b=2, atomic="{}", soft="{}", disj="{}", ds="{}"):
    return (
        f"k = {k};\nb = {b};\nAtomicConstraints = {atomic};\n"
        f"SoftAtomicConstraints = {soft};\nDisjunctiveConstraints = {disj};\n"
        f"DirectSuccessors = {ds};\n"
    )


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_dat(_dat(atomic="{<3,3>}"))
    assert err.value.line == 3

    with pytest.raises(ParseError, match="unknown parameter"):
        parse_dat(R024_EXCERPT + "Bogus = 3;\n")
    with pytest.raises(ParseError, match="assigned twice"):
        parse_dat(R024_EXCERPT + "k = 26;\n")
    with pytest.raises(ParseError, match="missing parameter"):
        parse_dat("k = 1;\nb = 0;\n")
    with pytest.raises(ParseError, match="exceeds k/2"):
        parse_dat(_dat(k=3, b=2))
    with pytest.raises(ParseError, match="outside 1..5"):
        parse_dat(_dat(atomic="{<1,6>}"))
    with pytest.raises(ParseError, match="both hard and soft"):
        parse_dat(_dat(atomic="{<1,2>}", soft="{<1,2>}"))
    with pytest.raises(ParseError, match="not a two-sided cable end"):
        parse_dat(_dat(ds="{5}"))
    with pytest.raises(ParseError, match="expected an integer"):
        parse_dat(_dat(atomic="{<1,x>}"))
    with pytest.raises(ParseError, match="trivial disjunct"):
        parse_dat(_dat(disj="{<1,1,2,3>}"))


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        # a line after \r\n, after a lone \r and after a form feed
        ("k = 5;\r\nb = x;\r\n", "expected an integer, found 'x'", 2, 5),
        (
            "k = 5;\rb = 2;\rAtomicConstraints = {<1,2> <2,3>};",
            "expected ',' or '}', found '<'",
            3,
            28,
        ),
        ("k = 5;\fb = 2;\f  AtomicConstraints = {<1;2>};", "expected ',', found ';'", 3, 26),
        # in the middle of a tuple
        (_dat(disj="{<1,2,3,4>, <2,3 4,5>}"), "expected ',', found '4'", 5, 43),
        # truncated: the end of input is reported at the last token
        (
            "k = 5;\nb = 2;\nAtomicConstraints = {<1,2>, <3,\n\n  ",
            "unexpected end of input (expected more input)",
            3,
            31,
        ),
        (R024_EXCERPT[: R024_EXCERPT.index("{<8,15")], "unexpected end of input (expected {)", 9, 24),
        ("k", "unexpected end of input (expected =)", 1, 1),
        # reported at the k token, like a negative k
        (_dat(k=2**70, b=0), f"k must be < {sys.maxsize}, found {2**70}", 1, 5),
        (_dat(k=-1, b=0), "k must be >= 0, found -1", 1, 5),
    ],
    ids=["crlf", "cr", "form-feed", "mid-tuple", "truncated-tuple", "truncated-set", "truncated-name",
         "k-unindexable", "k-negative"],
)
def test_parse_error_positions(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_dat(text)
    assert (str(err.value), err.value.line, err.value.column) == (
        f"line {line}, column {column}: {message}",
        line,
        column,
    )


@pytest.mark.parametrize("emit", [emit_dat, emit_json], ids=["dat", "json"])
def test_load_instance_skips_byte_order_mark(tmp_path, five_job, emit):
    suffix = ".dat" if emit is emit_dat else ".json"
    plain = tmp_path / f"plain{suffix}"
    marked = tmp_path / f"marked{suffix}"
    plain.write_text(emit(five_job), encoding="utf-8")
    marked.write_text(emit(five_job), encoding="utf-8-sig")
    assert marked.read_bytes().startswith(codecs.BOM_UTF8)
    assert load_instance(marked) == load_instance(plain) == five_job


def test_load_instance_rejects_text_that_is_not_utf8(tmp_path):
    for name in ("utf16.dat", "utf16.json", "latin1.dat"):
        path = tmp_path / name
        if name.startswith("utf16"):
            path.write_bytes(b"\xff\xfe" + "k = 1;".encode("utf-16-le"))
        else:
            path.write_bytes("k = 1; # caf\xe9\n".encode("latin-1"))
        with pytest.raises(ParseError, match="^not UTF-8 text: invalid .* at offset [0-9]+$"):
            load_instance(path)


def test_load_instance_rejects_an_unknown_extension(tmp_path, five_job):
    path = tmp_path / "five.txt"
    path.write_text(emit_dat(five_job), encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(
            "cannot infer format from extension '.txt' (use .dat or .json)")):
        load_instance(path)


def test_parse_dedupes_with_warning():
    with pytest.warns(UserWarning, match="duplicate"):
        inst = parse_dat(_dat(atomic="{<1,2>, <1,2>, <2,3>}"))
    assert inst.atomic == ((1, 2), (2, 3))


def test_dat_round_trip(five_job):
    assert parse_dat(emit_dat(five_job)).canonical() == five_job.canonical()
    assert parse_dat(emit_dat(Instance(k=0, b=0))) == Instance(k=0, b=0)
    rng = random.Random(47)
    for _ in range(100):
        mode = rng.choice(list(GenMode))
        inst, _ = random_instance(rng, mode)
        assert parse_dat(emit_dat(inst)).canonical() == inst.canonical()


def test_emit_dat_is_canonical():
    inst = Instance(k=4, b=0, atomic=[(3, 4), (1, 2)])
    text = emit_dat(inst)
    assert "AtomicConstraints = {<1,2>, <3,4>};" in text


_DZN_TABLE = re.compile(r"^(\w+) = \[\|(.*)\|\];$")
_DZN_EMPTY2 = re.compile(r"^(\w+) = array2d\(1\.\.0, 1\.\.(\d), \[\]\);$")


def _dzn_rows(line):
    m = _DZN_TABLE.match(line)
    if m:
        return [
            tuple(int(v) for v in row.split(","))
            for row in m.group(2).split("|")
        ]
    m = _DZN_EMPTY2.match(line)
    assert m, line
    return []


def test_emit_dzn_reference(five_job):
    lines = emit_dzn(five_job).strip().splitlines()
    assert lines[0] == "k = 5;"
    assert lines[1] == "b = 2;"
    table = {line.split(" = ")[0]: line for line in lines[2:]}
    assert _dzn_rows(table["AtomicConstraints"]) == [(3, 4), (4, 1), (5, 4)]
    assert _dzn_rows(table["SoftAtomicConstraints"]) == []
    assert _dzn_rows(table["DisjunctiveConstraints"]) == [(2, 5, 2, 1)]
    assert table["DirectSuccessors"] == "DirectSuccessors = [4];"


def test_emit_dzn_empty_instance_has_explicit_index_sets():
    text = emit_dzn(Instance(k=0, b=0))
    assert "k = 0;" in text
    assert "AtomicConstraints = array2d(1..0, 1..2, []);" in text
    assert "DisjunctiveConstraints = array2d(1..0, 1..4, []);" in text
    assert "DirectSuccessors = array1d(1..0, []);" in text


def test_emit_dzn_matches_dat_tuples():
    inst = parse_dat(R024_EXCERPT).canonical()
    lines = emit_dzn(inst).strip().splitlines()
    table = {line.split(" = ")[0]: line for line in lines[2:]}
    assert _dzn_rows(table["DisjunctiveConstraints"]) == [tuple(d) for d in inst.disjunctive]
    assert _dzn_rows(table["AtomicConstraints"]) == [tuple(a) for a in inst.atomic]


def anytime_shaped(seed):
    """The first 21 anytime benchmark instances of ``seed`` (k = 40..60)
    with their plants, drawn as ``perfbench/workloads.py`` draws them."""
    rng = random.Random(seed ^ 0x5EED)
    for idx in range(21):
        k = 40 + idx
        b = rng.randint(k // 4, k // 2)
        yield generate_planted(GenParams(
            b=b, n=k - 2 * b, p_atomic=0.18, p_soft=rng.choice((0.01, 0.02)),
            p_disjunctive=rng.choice((0.05, 0.1)), ds_count=rng.randint(0, b),
            seed=seed * 99_991 + idx))


def audit_shaped(seed):
    """The eight audit benchmark instances of ``seed`` (k = 2000..3000,
    every fourth one atomic-only) with their plants, drawn as
    ``perfbench/workloads.py`` draws them."""
    for idx in range(8):
        k = 2000 + 1000 * idx // 7
        if idx % 4 == 3:
            params = GenParams(b=0, n=k, p_atomic=0.002, seed=seed * 100_003 + idx,
                               mode=GenMode.ATOMIC_ONLY)
        else:
            b = k // 4
            params = GenParams(b=b, n=k - 2 * b, p_atomic=0.001, p_soft=0.0003,
                               p_disjunctive=0.002, ds_count=b // 4,
                               seed=seed * 100_003 + idx)
        yield generate_planted(params)


def assert_dat_round_trips(seed: int) -> int:
    """Each benchmark-shaped instance of ``seed`` reads back from its
    ``.dat`` text as its canonical form, which writes the same text again.
    Every parsed row is exactly ``tuple`` and every id a plain int.
    Returns the number of instances."""
    count = 0
    for inst, _ in chain(anytime_shaped(seed), audit_shaped(seed)):
        text = emit_dat(inst)
        parsed = parse_dat(text)
        assert parsed == inst.canonical(), (seed, count)
        assert emit_dat(parsed) == text, (seed, count)
        for rows in (parsed.atomic, parsed.soft_atomic, parsed.disjunctive):
            assert set(map(type, rows)) <= {tuple}, (seed, count)
            assert set(map(type, chain.from_iterable(rows))) <= {int}, (seed, count)
        assert set(map(type, parsed.direct_successors)) <= {int}, (seed, count)
        count += 1
    return count


def test_dat_round_trips_on_benchmark_shapes():
    assert assert_dat_round_trips(0) == 29


def _emitter_corpus():
    corpus = [generate_planted(p)[0] for _, p in certification_suite(seed=0)]
    corpus += [generate_planted(p)[0] for _, p in anytime_suite(seed=0, count=10)]
    corpus.append(Instance(k=0, b=0))
    # the shape of the largest audit benchmark files: k = 3000, about 144 KB
    corpus.append(generate_planted(GenParams(
        b=750, n=1500, p_atomic=0.001, p_soft=0.0003, p_disjunctive=0.002, ds_count=187,
        seed=300_009))[0])
    return corpus


# SHA-256 of each emitter's texts over _emitter_corpus(), one after another
_EMITTER_DIGESTS = {
    "emit_dat": "28426637712af6f8d7de922560f30ecabaca272276e267fbb15aa6426fb0b330",
    "emit_dzn": "edaff273cdb6698dcf509229b37e2bb1d4731efb9d9ea636c0ef38684dbb80c5",
    "emit_json": "2c338a4b2b492ffe27d0c224641bef3b5ddde0d2d2caea822c2f7562e88ca62b",
}


def test_emitters_reproduce_their_pinned_bytes():
    corpus = _emitter_corpus()
    assert len(corpus) == 212
    for emit in (emit_dat, emit_dzn, emit_json):
        digest = hashlib.sha256()
        for inst in corpus:
            digest.update(emit(inst).encode())
        assert digest.hexdigest() == _EMITTER_DIGESTS[emit.__name__], emit.__name__


def test_json_round_trip_is_identity():
    rng = random.Random(53)
    for _ in range(100):
        mode = rng.choice(list(GenMode))
        inst, _ = random_instance(rng, mode)
        assert parse_json(emit_json(inst)) == inst


@pytest.mark.parametrize("inst", [
    Instance(k=True, b=False),
    Instance(k=2, b=0, atomic=[(True, 2)]),
    Instance(k=4, b=True, atomic=[(True, 3)], soft_atomic=[(4, 2)],
             disjunctive=[(3, True, 3, 2)], direct_successors=[True]),
])
def test_bool_fields_emit_as_numbers_and_round_trip(inst):
    # a bool k, b or job id is kept as the int it stands for, so each
    # emitter writes a number that its reader takes back
    ids = chain((inst.k, inst.b), inst.direct_successors,
                *chain(inst.atomic, inst.soft_atomic, inst.disjunctive))
    assert {type(x) for x in ids} == {int}
    text = emit_dat(inst)
    assert parse_dat(text) == inst.canonical() and emit_dat(parse_dat(text)) == text
    assert parse_json(emit_json(inst)) == inst
    assert "True" not in emit_dzn(inst) and "true" not in emit_json(inst)


def test_json_schema_errors():
    import json as _json

    doc = _json.loads(emit_json(Instance(k=2, b=1)))
    del doc["b"]
    with pytest.raises(SchemaError, match=r"\$\.b"):
        parse_json(_json.dumps(doc))

    doc = _json.loads(emit_json(Instance(k=2, b=1)))
    doc["version"] = 99
    with pytest.raises(SchemaError, match="version"):
        parse_json(_json.dumps(doc))

    doc = _json.loads(emit_json(Instance(k=3, b=0, atomic=[(1, 2)])))
    doc["atomic"][0][0] = "one"
    with pytest.raises(SchemaError, match=r"\$\.atomic\[0\]\[0\]"):
        parse_json(_json.dumps(doc))

    with pytest.raises(ParseError):
        parse_json("{not json")
    # the decoder raises RecursionError and a bare ValueError for these
    with pytest.raises(ParseError, match="^invalid JSON: maximum recursion depth exceeded"):
        parse_json("[" * 100_000)
    text = emit_json(Instance(k=1, b=0)).replace('"k": 1', '"k": ' + "9" * 5000)
    with pytest.raises(ParseError, match="^invalid JSON: .* 5000 digits"):
        parse_json(text)


def _json_doc(**changes) -> str:
    import json as _json

    doc = _json.loads(emit_json(Instance(k=3, b=1, atomic=[(1, 3)], disjunctive=[(3, 1, 3, 2)],
                                         direct_successors=[1])))
    doc.update(changes)
    return _json.dumps(doc)


@pytest.mark.parametrize("text, message, path", [
    ("[1, 2]", "expected an object", "$"),
    (_json_doc(format="ctw-solution"), "expected 'ctw-instance', found 'ctw-solution'",
     "$.format"),
    (_json_doc(version=True), "expected an integer, found True", "$.version"),
    (_json_doc(version=1.0), "expected an integer, found 1.0", "$.version"),
    (_json_doc(version="1"), "expected an integer, found '1'", "$.version"),
    (_json_doc(version=2), "unsupported version 2", "$.version"),
    (_json_doc(atomic={"1": 3}), "expected a list, found dict", "$.atomic"),
    (_json_doc(atomic=[[1, 3], [1, 2, 3]]), "expected a list of 2 integers", "$.atomic[1]"),
    (_json_doc(disjunctive=[[3, 1, 3]]), "expected a list of 4 integers", "$.disjunctive[0]"),
    (_json_doc(atomic=[7]), "expected a list of 2 integers", "$.atomic[0]"),
    (_json_doc(direct_successors=1), "expected a list, found int", "$.direct_successors"),
], ids=["array", "format", "version-true", "version-float", "version-string", "version-2",
        "rows-not-a-list", "row-too-wide", "row-too-narrow", "row-not-a-list",
        "successors-not-a-list"])
def test_json_schema_error_paths(text, message, path):
    with pytest.raises(SchemaError) as err:
        parse_json(text)
    assert err.value.path == path
    assert str(err.value) == f"{path}: {message}"


def test_cross_format_equality(five_job):
    text = emit_dat(five_job)
    inst = parse_dat(text)
    assert parse_json(emit_json(inst)) == inst


def test_parse_solution_tour_inverts():
    sol = parse_solution("instance R\ntour 5 3 4 2 1\n")
    assert sol.kind == "tour"
    assert sol.instance_id == "R"
    assert sol.permutation() == Permutation((5, 3, 4, 2, 1))
    assert sol.permutation().positions_by_job() == (5, 4, 2, 3, 1)


def test_parse_solution_positions_and_claims():
    text = "positions 5 4 2 3 1\nclaimed S=1 M=1 L=2 N=1 objective=161\n"
    sol = parse_solution(text)
    assert sol.permutation() == Permutation((5, 3, 4, 2, 1))
    assert sol.claimed == CostBreakdown(1, 1, 2, 1, 161)


def test_parse_solution_errors():
    with pytest.raises(ParseError, match="no 'tour' or 'positions'"):
        parse_solution("# just a comment\n")
    with pytest.raises(ParseError, match="non-integer"):
        parse_solution("tour 1 2 x\n")
    with pytest.raises(ParseError, match="unknown line"):
        parse_solution("tour 1 2\nwat 3\n")
    with pytest.raises(ParseError, match="claimed line"):
        parse_solution("tour 1 2\nclaimed 161\n")
    # at most one line of each kind; an empty instance line counts too
    claim = "claimed S=1 M=1 L=2 N=1 objective=161"
    with pytest.raises(ParseError, match="^line 4, column 1: more than one claimed line$"):
        parse_solution(f"tour 5 3 4 2 1\n{claim}\n# again\n{claim}\n")
    with pytest.raises(ParseError, match="^line 3, column 1: more than one instance line$"):
        parse_solution("instance A\ntour 1 2\ninstance B\n")
    with pytest.raises(ParseError, match="^line 2, column 1: more than one instance line$"):
        parse_solution("instance\ninstance A\ntour 1\n")
    with pytest.raises(ParseError, match="^line 2, column 1: more than one permutation line$"):
        parse_solution("tour 1 2\npositions 1 2\n")
    claim = "claimed S=1 M=1 L=2 N=1 objective=" + "1" * 5000
    with pytest.raises(ParseError) as err:
        parse_solution(f"# a claim too long to read\ntour 5 3 4 2 1\n{claim}\n")
    assert str(err.value) == (
        f"line 3, column 1: integer of 5000 digits exceeds the limit of "
        f"{sys.get_int_max_str_digits()} digits"
    )
    # a duplicated tour is kept as it stands for validate to report; a
    # duplicated position map cannot be inverted at all
    assert not parse_solution("tour 1 1 2\n").permutation().is_bijection()
    with pytest.raises(ValueError, match="not a bijection at job 2"):
        parse_solution("positions 1 1 2\n").permutation()


@pytest.mark.parametrize("line", [
    "tour 5 3 " + "4" * 5000 + " 2 1",
    "positions 5 4 2 3 -" + "1" * 5000,
    "tour 5 3 +" + "4" * 5000 + " x 1",
], ids=["tour", "signed-position", "before-a-non-integer"])
def test_parse_solution_numeral_longer_than_int_reads(line):
    with pytest.raises(ParseError) as err:
        parse_solution(f"instance A\n# a tour too long to read\n{line}\n")
    message = (f"line 3, column 1: integer of 5000 digits exceeds the limit of "
               f"{sys.get_int_max_str_digits()} digits")
    assert str(err.value) == message and len(str(err.value)) < 80
    assert (err.value.line, err.value.column) == (3, 1)
    # the first entry int() refuses is the one reported
    with pytest.raises(ParseError) as err:
        parse_solution("tour 5 x " + "4" * 5000 + "\n")
    assert str(err.value) == "line 1, column 1: non-integer entry in tour line"


def test_parse_solution_keywords_may_be_followed_by_any_whitespace():
    text = (
        "instance\tR024\n"
        "tour\t5 3\t4 2 1\n"
        "claimed\tS=1\tM=1 L=2 N=1 objective=161\n"
    )
    sol = parse_solution(text)
    assert sol.instance_id == "R024"
    assert sol.permutation() == Permutation((5, 3, 4, 2, 1))
    assert sol.claimed == CostBreakdown(1, 1, 2, 1, 161)
    assert parse_solution("positions\xa0\t5 4 2 3 1\n").values == (5, 4, 2, 3, 1)
    assert parse_solution("instance\ntour 1\n").instance_id is None
    with pytest.raises(ParseError, match="^line 2, column 1: unknown line 'wat'$"):
        parse_solution("tour 1 2\nwat\t3\n")


def test_report_csv_header_only_when_empty():
    text = emit_report_csv([])
    assert text.splitlines() == [
        "instance,k,b,state,S,M,L,N,objective,runtime_ms,nodes,"
        "sum_of_constraints,avg_constrainedness,max_constrainedness,flags"
    ]


def test_metrics_csv_shape(five_job):
    text = emit_metrics_csv([("five", metrics(five_job))])
    lines = text.splitlines()
    assert lines[0].startswith("instance,k,b,n,")
    assert lines[1].startswith("five,5,2,1,3,0,1,1,")


def test_csv_reports_reproduce_their_exact_bytes(five_job):
    # a solved row, an unsolved one (empty cost cells), two flagged ones (one
    # flag quoted for its comma), and constrainedness 1/3 and 0.5 to one decimal
    third = Instance(k=3, b=0, disjunctive=[(1, 2, 3, 2)])
    five, one = metrics(five_job), metrics(third)
    rows = [
        BenchRow("five", ResultState.OPTIMAL, CostBreakdown(1, 1, 2, 0, 160), 12, 7, five),
        BenchRow("slow", ResultState.UNSOLVED, None, 300000, 500, one),
        BenchRow("odd", ResultState.SUBOPTIMAL, CostBreakdown(2, 1, 3, 5, 310), 0, 0, five,
                 ("claim-mismatch", "N>=k")),
        BenchRow("bad", ResultState.UNDEFINED, None, 0, 0, metrics(Instance(k=0, b=0)),
                 ("error:line 1, column 2: x",)),
    ]
    assert emit_report_csv(rows) == (
        "instance,k,b,state,S,M,L,N,objective,runtime_ms,nodes,"
        "sum_of_constraints,avg_constrainedness,max_constrainedness,flags\n"
        "five,5,2,optimal,1,1,2,0,160,12,7,7,0.8,1.0,\n"
        "slow,3,0,unsolved,,,,,,300000,500,1,0.3,0.5,\n"
        "odd,5,2,suboptimal,2,1,3,5,310,0,0,7,0.8,1.0,claim-mismatch;N>=k\n"
        'bad,0,0,undefined,,,,,,0,0,0,0.0,0.0,"error:line 1, column 2: x"\n'
    )
    assert emit_metrics_csv([("five", five), ("third", one)]) == (
        "instance,k,b,n,atomic,soft_atomic,disjunctive,direct_successors,"
        "sum_of_constraints,avg_constrainedness,max_constrainedness\n"
        "five,5,2,1,3,0,1,1,7,0.8,1.0\n"
        "third,3,0,3,0,0,1,0,1,0.3,0.5\n"
    )
