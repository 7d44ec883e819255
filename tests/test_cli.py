import json

import pytest

from ctwkit import Instance, emit_dat, emit_json, parse_dat, parse_json
from ctwkit.cli import main


@pytest.fixture
def five_dat(tmp_path, five_job):
    path = tmp_path / "five.dat"
    path.write_text(emit_dat(five_job), encoding="utf-8")
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_reference(five_dat, capsys):
    code, out, _ = run_cli(capsys, "solve", five_dat, "--time-limit", "5000")
    assert code == 0
    doc = json.loads(out)
    assert doc["state"] == "optimal"
    assert doc["objective"] == 160
    assert doc["breakdown"] == {"S": 1, "M": 1, "L": 2, "N": 0, "objective": 160}


def test_solve_exit_codes(tmp_path, capsys):
    unsat = tmp_path / "u.dat"
    unsat.write_text(emit_dat(Instance(k=2, b=0, atomic=[(1, 2), (2, 1)])))
    code, out, _ = run_cli(capsys, "solve", unsat)
    assert code == 2
    assert json.loads(out)["state"] == "unsatisfiable"

    from ctwkit.generate import GenParams, generate

    big = tmp_path / "big.dat"
    big.write_text(emit_dat(generate(GenParams(b=12, n=2, p_atomic=0.1,
                                               p_disjunctive=0.05, seed=3))))
    code, out, _ = run_cli(capsys, "solve", big, "--node-limit", "50")
    assert code in (1, 3)
    assert json.loads(out)["state"] in ("suboptimal", "unsolved")


def test_solve_engine_out_of_class_is_usage_error(five_dat, capsys):
    code, _, err = run_cli(capsys, "solve", five_dat, "--engine", "topo")
    assert code == 4
    assert "error" in err


def test_solve_csv_output(five_dat, capsys):
    code, out, _ = run_cli(capsys, "solve", five_dat, "--output", "csv",
                           "--no-timestamps")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("instance,k,b,state")
    assert lines[1].startswith("five,5,2,optimal,1,1,2,0,160,0,")


def test_solve_csv_row_equals_the_bench_row(tmp_path, capsys):
    # every ordered pair a soft edge: N = 3 >= k, which both rows flag
    soft = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    (tmp_path / "soft.dat").write_text(emit_dat(Instance(k=3, b=0, soft_atomic=soft)))
    code, solved, _ = run_cli(capsys, "solve", tmp_path / "soft.dat", "--output", "csv",
                              "--no-timestamps")
    assert code == 0
    code, benched, _ = run_cli(capsys, "bench", "--dir", tmp_path, "--jobs", "1",
                               "--no-timestamps")
    assert code == 0
    assert solved == benched and solved.splitlines()[1].endswith(",N>=k")


def test_validate_good_and_bad_solutions(five_dat, tmp_path, capsys):
    good = tmp_path / "good.sol"
    good.write_text("instance five\ntour 5 3 4 2 1\n")
    code, out, _ = run_cli(capsys, "validate", five_dat, "--solution", good)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["breakdown"]["objective"] == 160

    bad = tmp_path / "bad.sol"
    bad.write_text("tour 1 2 3 4 5\n")
    code, out, _ = run_cli(capsys, "validate", five_dat, "--solution", bad)
    assert code == 4
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["violations"]

    broken = tmp_path / "broken.sol"
    broken.write_text("tour 1 1 2 3 4\n")
    code, out, _ = run_cli(capsys, "validate", five_dat, "--solution", broken)
    assert code == 4


_VALID_160 = {"S": 1, "M": 1, "L": 2, "N": 0, "objective": 160}


@pytest.mark.parametrize(
    "text, code, doc, flags",
    [
        (
            "tour 5 3 4 2\n",
            4,
            {"violations": ["dimension: solution has 4 entries, instance has k=5"]},
            ("error:solution has 4 entries, instance has k=5",),
        ),
        (
            "positions 1 1 2 3 4\n",
            4,
            {"violations": ["not-bijective: position map is not a bijection at job 2"]},
            ("error:position map is not a bijection at job 2",),
        ),
        (
            "tour 1 1 2 3 4\n",
            4,
            {"violations": ["not-bijective: (1, 1, 2, 3, 4)"]},
            ("invalid:not-bijective: (1, 1, 2, 3, 4)",),
        ),
        (
            "tour 1 2 3 4 5\n",
            4,
            {
                "violations": [
                    "atomic: (4, 1)",
                    "atomic: (5, 4)",
                ],
                "breakdown": {"S": 2, "M": 1, "L": 1, "N": 0, "objective": 280},
            },
            (
                "invalid:atomic: (4, 1)",
                "invalid:atomic: (5, 4)",
            ),
        ),
        (
            "tour 5 3 4 2 1\nclaimed S=1 M=1 L=2 N=0 objective=161\n",
            0,
            {"valid": True, "breakdown": _VALID_160, "claim_matches": False},
            ("claim-mismatch",),
        ),
        ("positions 5 4 2 3 1\n", 0, {"valid": True, "breakdown": _VALID_160}, ()),
        (
            "instance\tfive\ntour\t5 3\t4 2 1\nclaimed\tS=1 M=1 L=2 N=0 objective=160\n",
            0,
            {"valid": True, "breakdown": _VALID_160, "claim_matches": True},
            (),
        ),
    ],
    ids=["short", "positions-not-invertible", "tour-not-bijective", "atomic", "claim-mismatch",
         "positions", "tab-separated"],
)
def test_validate_and_bench_report_one_audit(five_dat, five_job, tmp_path, capsys,
                                             text, code, doc, flags):
    from ctwkit import bench, parse_solution

    sol = tmp_path / "s.sol"
    sol.write_text(text)
    got_code, out, _ = run_cli(capsys, "validate", five_dat, "--solution", sol)
    assert got_code == code
    expected = {"instance": "five", "valid": False, "violations": [], "breakdown": None}
    assert json.loads(out) == {**expected, **doc}
    assert bench.validate_external(five_job, parse_solution(text)).flags == flags


def test_oracle_subcommand(five_dat, capsys):
    code, out, _ = run_cli(capsys, "oracle", five_dat)
    assert code == 0
    doc = json.loads(out)
    assert doc["enumerated"] == 120
    assert doc["valid_count"] == 8
    assert doc["optimal_objective"] == 160
    assert doc["optimal_solutions"] == [[5, 3, 2, 4, 1], [5, 3, 4, 2, 1]]


def test_oracle_respects_guard(tmp_path, capsys):
    path = tmp_path / "wide.dat"
    path.write_text(emit_dat(Instance(k=12, b=0)))
    code, _, err = run_cli(capsys, "oracle", path)
    assert code == 4
    assert "k<=10" in err


def test_convert_round_trips(five_dat, capsys, five_job):
    code, out, _ = run_cli(capsys, "convert", five_dat, "--to", "json")
    assert code == 0
    assert parse_json(out).canonical() == five_job.canonical()

    code, out, _ = run_cli(capsys, "convert", five_dat, "--to", "dzn")
    assert code == 0
    assert out.startswith("k = 5;")

    code, out, _ = run_cli(capsys, "convert", five_dat, "--to", "dat")
    assert parse_dat(out).canonical() == five_job.canonical()


def test_gen_deterministic_bytes(capsys):
    args = ("gen", "--b", "2", "--n", "2", "--seed", "9", "--format", "json")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args)
    assert first == second
    inst = parse_json(first)
    assert inst.k == 6


def test_gen_suite_writes_tree(tmp_path, capsys):
    out_dir = tmp_path / "suite"
    code, out, _ = run_cli(capsys, "gen", "suite", "--out", out_dir, "--seed", "1")
    assert code == 0
    manifest = json.loads(out)
    assert len(manifest["files"]["certify"]) == 200
    assert len(manifest["files"]["anytime"]) == 50
    sample = out_dir / "certify" / manifest["files"]["certify"][0]
    assert parse_dat(sample.read_text()).k <= 8
    # a suite is a tree of files: without --out there is nowhere to write it
    assert run_cli(capsys, "gen", "suite") == (4, "", "error: gen suite needs --out DIRECTORY\n")


def test_gen_rejects_bad_parameters(capsys):
    code, _, err = run_cli(capsys, "gen", "--b", "1", "--n", "0", "--ds-count", "5")
    assert code == 4
    assert "ds_count" in err


def test_bench_and_stats(tmp_path, capsys, five_job):
    (tmp_path / "A.dat").write_text(emit_dat(five_job))
    (tmp_path / "B.dat").write_text(emit_dat(Instance(k=2, b=0, atomic=[(1, 2), (2, 1)])))
    code, out, _ = run_cli(capsys, "bench", "--dir", tmp_path, "--jobs", "1",
                           "--time-limit", "5000", "--no-timestamps")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("A,5,2,optimal")
    assert lines[2].startswith("B,2,0,unsatisfiable")

    code, out, _ = run_cli(capsys, "stats", "--dir", tmp_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("instance,k,b,n")
    assert lines[1].startswith("A,5,2,1")


def test_text_that_is_not_utf8_is_a_format_error(tmp_path, capsys, five_job):
    (tmp_path / "A.dat").write_text(emit_dat(five_job))
    bad = tmp_path / "B.dat"
    bad.write_bytes(b"\xff\xfe" + emit_dat(five_job).encode("utf-16-le"))
    code, out, err = run_cli(capsys, "solve", bad)
    assert (code, out) == (4, "")
    assert err == "error: not UTF-8 text: invalid start byte at offset 0\n"
    # JSON nested too deep, or with a numeral longer than int() reads
    (tmp_path / "C.json").write_text("[" * 100_000, encoding="utf-8")
    long_k = emit_json(Instance(k=1, b=0)).replace('"k": 1', '"k": ' + "9" * 5000)
    (tmp_path / "D.json").write_text(long_k, encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", tmp_path / "C.json")
    assert (code, out) == (4, "")
    assert err.startswith("error: invalid JSON: maximum recursion depth exceeded")

    code, out, _ = run_cli(capsys, "bench", "--dir", tmp_path, "--jobs", "1",
                           "--time-limit", "5000", "--no-timestamps")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("A,5,2,optimal")
    assert lines[2] == "B,0,0,undefined,,,,,,0,0,0,0.0,0.0,error:not UTF-8 text: " \
        "invalid start byte at offset 0"
    assert lines[3].startswith("C,0,0,undefined,,,,,,0,0,0,0.0,0.0,error:invalid JSON: "
                               "maximum recursion depth exceeded")
    assert lines[4].startswith("D,0,0,undefined,,,,,,0,0,0,0.0,0.0,error:invalid JSON: ")
    assert "5000 digits" in lines[4] and len(lines) == 5


@pytest.mark.parametrize("argv", [
    ("validate", "{dat}", "--solution", "{bad}"),
    ("reduce-mas", "{bad}"),
    ("reduce-mas", "{graph}", "--extract", "--solution", "{bad}"),
])
def test_other_inputs_that_are_not_utf8_are_format_errors(tmp_path, capsys, five_dat, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe" + "tour 1 2 3\n".encode("utf-16-le"))
    graph = tmp_path / "g.txt"
    graph.write_text("1 2\n2 3\n3 1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, *(a.format(dat=five_dat, bad=bad, graph=graph) for a in argv))
    assert (code, out) == (4, "")
    assert err == "error: not UTF-8 text: invalid start byte at offset 0\n"


@pytest.mark.parametrize("argv, code", [
    (("solve", "{dat}"), 0),
    (("bench", "--dir", "{dir}", "--jobs", "1"), 0),
    (("validate", "{dat}", "--solution", "{sol}"), 4),
    (("oracle", "{dat}"), 4),
    (("gen",), 4),
    (("convert", "{dat}", "--to", "json"), 4),
    (("stats", "--dir", "{dir}"), 4),
    (("reduce-mas", "{graph}"), 4),
])
def test_no_timestamps_only_where_a_wall_clock_is_reported(tmp_path, capsys, five_dat,
                                                           argv, code):
    sol = tmp_path / "good.sol"
    sol.write_text("tour 5 3 4 2 1\n", encoding="utf-8")
    graph = tmp_path / "g.txt"
    graph.write_text("1 2\n", encoding="utf-8")
    argv = [a.format(dat=five_dat, sol=sol, dir=tmp_path, graph=graph) for a in argv]
    assert run_cli(capsys, *argv)[0] == 0
    got, out, err = run_cli(capsys, *argv, "--no-timestamps")
    assert got == code
    if code:
        assert out == "" and "unrecognized arguments: --no-timestamps" in err
    elif argv[0] == "solve":
        assert json.loads(out)["stats"]["time_ms"] == 0
    else:
        assert out.splitlines()[1].startswith("five,5,2,optimal,1,1,2,0,160,0,")


def test_stats_names_the_file_it_cannot_parse(tmp_path, capsys, five_job):
    (tmp_path / "A.dat").write_text(emit_dat(five_job), encoding="utf-8")
    (tmp_path / "C.dat").write_text("k = 1;\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "stats", "--dir", tmp_path)
    assert (code, out) == (4, "")
    assert err.startswith("error: C.dat: missing parameter(s): b")


def test_bench_byte_identical_with_no_timestamps(tmp_path, capsys, five_job):
    (tmp_path / "A.dat").write_text(emit_dat(five_job))
    args = ("bench", "--dir", tmp_path, "--time-limit", "5000",
            "--jobs", "1", "--no-timestamps")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_reduce_mas_and_extract(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("1 2\n2 3\n3 1\n")
    code, out, _ = run_cli(capsys, "reduce-mas", graph, "--format", "json")
    assert code == 0
    inst = parse_json(out)
    assert inst.k == 3 and inst.b == 0
    assert set(inst.soft_atomic) == {(1, 2), (2, 3), (3, 1)}

    sol = tmp_path / "s.sol"
    sol.write_text("tour 1 2 3\n")
    code, out, _ = run_cli(capsys, "reduce-mas", graph, "--extract",
                           "--solution", sol)
    assert code == 0
    doc = json.loads(out)
    assert doc["kept_count"] == 2
    assert doc["removed_count"] == 1
    assert doc["kept_edges"] == [[1, 2], [2, 3]]

    code, _, err = run_cli(capsys, "reduce-mas", graph, "--extract")
    assert code == 4


def test_reduce_mas_extract_rejects_non_bijective_tour(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("1 2\n2 3\n3 1\n")
    sol = tmp_path / "s.sol"
    sol.write_text("tour 1 1 2\n")
    code, out, err = run_cli(capsys, "reduce-mas", graph, "--extract",
                             "--solution", sol)
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and "not a bijection" in err


def test_usage_errors_exit_4(capsys, tmp_path):
    assert run_cli(capsys, "no-such-command")[0] == 4
    assert run_cli(capsys, "solve")[0] == 4  # missing instance
    missing = tmp_path / "nope.dat"
    assert run_cli(capsys, "solve", missing)[0] == 4


def test_solve_rejects_unindexable_k(tmp_path, capsys):
    huge = tmp_path / "huge.dat"
    huge.write_text("k = 1180591620717411303424;\nb = 0;\nAtomicConstraints = {};\n"
                    "SoftAtomicConstraints = {};\nDisjunctiveConstraints = {};\n"
                    "DirectSuccessors = {};\n")
    code, out, err = run_cli(capsys, "solve", huge)
    assert code == 4
    assert out == ""
    assert err.startswith("error: line 1, column 5: k must be < ")


def test_env_var_sets_default_time_limit(five_dat, capsys, monkeypatch):
    monkeypatch.setenv("CTW_TIME_LIMIT_MS", "2500")
    code, out, _ = run_cli(capsys, "solve", five_dat)
    assert code == 0

    monkeypatch.setenv("CTW_TIME_LIMIT_MS", "banana")
    code, _, err = run_cli(capsys, "solve", five_dat)
    assert code == 4
    assert "CTW_TIME_LIMIT_MS" in err

    monkeypatch.setenv("CTW_TIME_LIMIT_MS", "0")
    code, out, err = run_cli(capsys, "solve", five_dat)
    assert (code, out) == (4, "")
    assert err == "error: CTW_TIME_LIMIT_MS must be positive, found 0\n"


def test_out_flag_writes_file(five_dat, tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "solve", five_dat, "--out", target)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["objective"] == 160


def test_solve_twice_byte_identical(five_dat, capsys):
    args = ("solve", five_dat, "--no-timestamps")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_solve_json_reports_search_counters(five_dat, capsys):
    code, out, _ = run_cli(capsys, "solve", five_dat, "--no-timestamps")
    assert code == 0
    assert json.loads(out)["stats"] == {
        "nodes_expanded": 11, "time_ms": 0, "proven_lower_bound": 160,
        # 17 children priced = 5 bound prunes + 2 leaves + 10 nodes below
        # the root
        "children_priced": 17, "bound_prunes": 5, "swap_prunes": 0, "cycle_prunes": 0,
        "leaves": 2, "max_depth": 5,
        # the direct successor on 4 puts 2 before 4's successor 1, and that
        # edge decides the disjunction (2 < 5 or 2 < 1)
        "presolve_decided": 1, "presolve_edges": 1,
    }


def test_byte_order_mark_is_skipped(five_job, tmp_path, capsys):
    # every file the CLI reads, written once without and once with a UTF-8 BOM
    results = []
    for encoding in ("utf-8", "utf-8-sig"):
        folder = tmp_path / encoding
        folder.mkdir()
        dat = folder / "five.dat"
        dat.write_text(emit_dat(five_job), encoding=encoding)
        sol = folder / "five.sol"
        sol.write_text("instance five\ntour 5 3 4 2 1\n", encoding=encoding)
        graph = folder / "g.txt"
        graph.write_text("1 2\n2 3\n3 1\n", encoding=encoding)
        tour = folder / "s.sol"
        tour.write_text("tour 1 2 3\n", encoding=encoding)
        results.append((
            run_cli(capsys, "solve", dat, "--no-timestamps"),
            run_cli(capsys, "validate", dat, "--solution", sol),
            run_cli(capsys, "reduce-mas", graph, "--extract", "--solution", tour),
        ))
    plain, marked = results
    assert marked == plain
    assert [code for code, _, _ in plain] == [0, 0, 0]
