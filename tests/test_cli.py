import json
import random

import pytest

from conftest import random_instance, sweep_instance
from quboreduce import engine, generator, mine_inequalities
from quboreduce.cli import log_document, main, solution_map_from_document
from quboreduce.model import read_instance, relabel, write_instance


def run(argv):
    return main([str(a) for a in argv])


# variable 1 is fixed, 2..4 survive
_FOUR_VARIABLES = "p qubo 4\nl 1 5\nl 2 -2\nl 3 -3\nl 4 -1\nq 2 3 5\nq 2 4 4\nq 3 4 -4\n"


class TestGenerate:
    def test_single_instance(self, tmp_path, capsys):
        out = tmp_path / "p.qubo"
        code = run(["generate", "--size", 200, "--edges", 900,
                    "--design-row", 1, "--seed", 42, "-o", out])
        assert code == 0
        inst = read_instance(out)
        assert inst.n == 200 and inst.num_edges == 900

    def test_desk_suite(self, tmp_path):
        out = tmp_path / "suite"
        code = run(["generate", "--suite", "desk", "--seed", 7, "-o", out])
        assert code == 0
        files = sorted(out.glob("*.qubo"))
        assert len(files) == 32

    def test_bad_design_row_is_usage_error(self, tmp_path):
        code = run(["generate", "--design-row", 17, "-o", tmp_path / "x.qubo"])
        assert code == 2

    def test_unwritable_output_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.qubo"
        assert run(["generate", "--size", 20, "--edges", 40, "-o", out]) == 2
        assert "error: " in capsys.readouterr().err

    def test_suite_onto_existing_file_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run(["generate", "--suite", "desk", "-o", out]) == 2
        assert "error: " in capsys.readouterr().err

    def test_suite_with_bad_hub_fraction_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "suite"
        assert run(["generate", "--suite", "desk", "--hub-fraction", 2, "-o", out]) == 2
        assert "error: hub_fraction=2.0 outside [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_is_input_error(self, tmp_path, capsys, monkeypatch):
        # stands in for an instance too large to allocate; nothing is allocated
        def no_memory(spec):
            raise MemoryError("Unable to allocate 14.9 GiB")

        monkeypatch.setattr(generator, "generate_instance", no_memory)
        assert run(["generate", "--size", 20, "--edges", 40, "-o", tmp_path / "x.qubo"]) == 2
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 14.9 GiB\n"


class TestReduceVerify:
    def test_round_trip(self, tmp_path, capsys):
        src = tmp_path / "in.qubo"
        red = tmp_path / "out.qubo"
        log = tmp_path / "log.json"
        inst = random_instance(random.Random(5), 12)
        write_instance(inst, src)
        assert run(["reduce", src, "-o", red, "--log", log]) == 0
        report = capsys.readouterr().out
        assert "reduction" in report
        assert run(["verify", src, red, log]) == 0
        out = capsys.readouterr().out
        assert "verified" in out

    def test_reduced_file_keeps_original_indices(self, tmp_path):
        src = tmp_path / "in.qubo"
        red = tmp_path / "out.qubo"
        log = tmp_path / "log.json"
        inst = random_instance(random.Random(6), 10)
        write_instance(inst, src)
        run(["reduce", src, "-o", red, "--log", log])
        emitted = read_instance(red)
        assert emitted.n == inst.n
        doc = json.loads(log.read_text())
        survivors = set(doc["survivors"])
        assert set(emitted.linear) <= survivors
        assert all(i in survivors and j in survivors for i, j in emitted.quadratic)

    def test_renumber_emits_dense_file_and_table(self, tmp_path):
        src = tmp_path / "in.qubo"
        red = tmp_path / "out.qubo"
        log = tmp_path / "log.json"
        inst = random_instance(random.Random(17), 12)
        write_instance(inst, src)
        run(["reduce", src, "-o", red, "--log", log, "--renumber"])
        doc = json.loads(log.read_text())
        emitted = read_instance(red)
        assert emitted.n == len(doc["survivors"])
        assert "renumber" in doc
        assert run(["verify", src, red, log]) == 0

    def test_fully_reduced_triple_report(self, tmp_path, capsys):
        src = tmp_path / "t.qubo"
        src.write_text(
            "p qubo 3\nl 1 1\nl 2 1\nl 3 2\nq 1 2 -2\nq 2 3 1\n"
        )
        log = tmp_path / "log.json"
        assert run(["reduce", src, "--log", log]) == 0
        out = capsys.readouterr().out
        assert "3 -> 0" in out and "(100.0% reduction)" in out
        assert "passes           2" in out
        doc = json.loads(log.read_text())
        assert doc["offset"] == 4
        assert doc["passes"] == 2 and doc["pass_drops"] == [3, 0]
        assert doc["per_rule_counts"] == {"R3_2": 1, "R1_0": 1}

    def test_rule_silent_reduce_is_identity(self, tmp_path, capsys):
        src = tmp_path / "s.qubo"
        src.write_text(
            "p qubo 3\nl 1 -2\nl 2 -3\nl 3 -1\nq 1 2 5\nq 1 3 4\nq 2 3 -4\n"
        )
        red = tmp_path / "s_out.qubo"
        assert run(["reduce", src, "-o", red]) == 0
        assert read_instance(red) == read_instance(src)
        assert "(0.0% reduction)" in capsys.readouterr().out

    def test_corrupted_map_fails_verification(self, tmp_path, capsys):
        src = tmp_path / "in.qubo"
        red = tmp_path / "out.qubo"
        log = tmp_path / "log.json"
        # an instance that actually reduces, so the map has content
        src.write_text("p qubo 3\nl 1 1\nl 2 1\nl 3 2\nq 1 2 -2\nq 2 3 1\n")
        run(["reduce", src, "-o", red, "--log", log])
        doc = json.loads(log.read_text())
        fix = doc["events"][0]["conclusion"][0]
        assert fix[2] == 0
        fix[1] = 1 - fix[1]
        log.write_text(json.dumps(doc))
        assert run(["verify", src, red, log]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_oversized_verify_refused(self, tmp_path, capsys):
        src = tmp_path / "big.qubo"
        inst = random_instance(random.Random(2), 30, density=0.2)
        write_instance(inst, src)
        red = tmp_path / "big_out.qubo"
        log = tmp_path / "big_log.json"
        run(["reduce", src, "-o", red, "--log", log])
        assert run(["verify", src, red, log]) == 2

    @pytest.mark.parametrize("log_name", ["out.qubo", "sub/../out.qubo"])
    def test_output_and_log_on_one_file_is_input_error(self, tmp_path, capsys, log_name):
        src = tmp_path / "in.qubo"
        src.write_text("p qubo 3\nl 1 1\nl 2 1\nl 3 2\nq 1 2 -2\nq 2 3 1\n")
        (tmp_path / "sub").mkdir()
        out = tmp_path / "out.qubo"
        out.write_text("old instance")
        assert run(["reduce", src, "-o", out, "--log", tmp_path / log_name]) == 2
        captured = capsys.readouterr()
        assert "error: -o and --log name the same file" in captured.err
        assert captured.out == ""
        assert out.read_text() == "old instance"

    @pytest.mark.parametrize("flag", ["-o", "--log"])
    def test_unwritable_output_is_input_error(self, tmp_path, capsys, flag):
        src = tmp_path / "in.qubo"
        src.write_text("p qubo 3\nl 1 1\nl 2 1\nl 3 2\nq 1 2 -2\nq 2 3 1\n")
        assert run(["reduce", src, flag, tmp_path / "missing" / "out"]) == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["-o", "--log"])
    def test_unwritable_output_fails_before_reducing(self, tmp_path, capsys,
                                                     monkeypatch, flag):
        def must_not_run(*args, **kwargs):
            raise AssertionError("reduced despite an unwritable output path")

        monkeypatch.setattr(engine, "run_to_fixed_point", must_not_run)
        src = tmp_path / "in.qubo"
        src.write_text("p qubo 2\nl 1 1\n")
        assert run(["reduce", src, flag, tmp_path / "missing" / "out"]) == 2
        assert "error: " in capsys.readouterr().err

    def test_engine_failure_is_not_input_error(self, tmp_path, monkeypatch):
        def engine_bug(*args, **kwargs):
            raise RuntimeError("variable 1 is not free (engine bug)")

        monkeypatch.setattr(engine, "run_to_fixed_point", engine_bug)
        src = tmp_path / "in.qubo"
        src.write_text("p qubo 2\nl 1 1\n")
        with pytest.raises(RuntimeError, match="engine bug"):
            run(["reduce", src])

    def test_unparsable_input_leaves_outputs_untouched(self, tmp_path):
        bad = tmp_path / "bad.qubo"
        bad.write_text("p qubo 2\nl 3 1\n")
        out = tmp_path / "out.qubo"
        log = tmp_path / "log.json"
        out.write_text("old instance")
        log.write_text("old log")
        assert run(["reduce", bad, "-o", out, "--log", log]) == 2
        assert out.read_text() == "old instance" and log.read_text() == "old log"

    def test_unreadable_input(self, tmp_path):
        assert run(["reduce", tmp_path / "missing.qubo"]) == 2

    @pytest.mark.parametrize("text", [
        pytest.param("p qubo 9223372036854775807\n", id="2^63-1"),
        pytest.param("p qubo 9223372036854775807\nq 1 2 3\n", id="2^63-1-with-q"),
        pytest.param("p qubo 100000000000000000000\n", id="10^20"),
    ])
    def test_variable_count_past_index_range_is_input_error(self, tmp_path, capsys, text):
        src = tmp_path / "huge.qubo"
        src.write_text(text)
        assert run(["reduce", src]) == 2
        assert "exceeds the index range" in capsys.readouterr().err

    def test_non_utf8_input_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.qubo"
        bad.write_bytes(b"p qubo 2\n\xff\n")
        good = tmp_path / "good.qubo"
        good.write_text("p qubo 2\nl 1 1\n")
        log = tmp_path / "log.json"
        assert run(["reduce", good, "--log", log]) == 0
        capsys.readouterr()
        assert run(["reduce", bad]) == 2
        assert "error: " in capsys.readouterr().err
        assert run(["verify", bad, good, log]) == 2
        assert run(["verify", good, bad, log]) == 2
        assert "error: " in capsys.readouterr().err

    def test_non_utf8_log_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "in.qubo"
        red = tmp_path / "out.qubo"
        src.write_text("p qubo 2\nl 1 1\n")
        assert run(["reduce", src, "-o", red]) == 0
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        capsys.readouterr()
        assert run(["verify", src, red, bad]) == 2
        assert "error: " in capsys.readouterr().err

    def test_log_without_events_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "in.qubo"
        red = tmp_path / "out.qubo"
        log = tmp_path / "log.json"
        src.write_text("p qubo 3\nl 1 1\nl 2 1\nl 3 2\nq 1 2 -2\nq 2 3 1\n")
        run(["reduce", src, "-o", red, "--log", log])
        doc = json.loads(log.read_text())
        del doc["events"]
        log.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", src, red, log]) == 2
        assert "error: malformed log document: KeyError" in capsys.readouterr().err

    def test_verify_takes_numbering_from_log(self, tmp_path, capsys):
        # the dense and the original-indexed files differ, and each only
        # verifies against its own log
        src = tmp_path / "in.qubo"
        src.write_text(_FOUR_VARIABLES)
        plain, plain_log = tmp_path / "plain.qubo", tmp_path / "plain.json"
        dense, dense_log = tmp_path / "dense.qubo", tmp_path / "dense.json"
        assert run(["reduce", src, "-o", plain, "--log", plain_log]) == 0
        assert run(["reduce", src, "-o", dense, "--log", dense_log, "--renumber"]) == 0
        assert json.loads(plain_log.read_text())["survivors"] == [2, 3, 4]
        assert run(["verify", src, plain, plain_log]) == 0
        assert run(["verify", src, dense, dense_log]) == 0
        capsys.readouterr()
        assert run(["verify", src, dense, plain_log]) == 2
        assert "error: reduced variable 1 is not a survivor" in capsys.readouterr().err
        assert run(["verify", src, plain, dense_log]) == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("survivors, message", [
        ([-1, 2, 3], "reduced variable 1 is not a survivor"),
        ([0, 2, 3], "reduced variable 1 is not a survivor"),
        ([1, 2, 9], "reduced variable 3 is not a survivor"),
        ([1, 2, 10**30], "reduced variable 3 is not a survivor"),
        ([1, 1, 3], "survivors do not ascend: 1 before 1"),
        ([3, 2, 1], "survivors do not ascend: 3 before 2"),
        ([1, 2], "reduced variable 3 is not a survivor"),
    ], ids=["negative", "zero", "beyond-n", "10^30", "repeated", "descending", "one-short"])
    def test_verify_refuses_malformed_survivors(self, tmp_path, capsys, survivors, message):
        # a traceback would escape run(); the triangle keeps 1, 2 and 3
        src, red, log = tmp_path / "in.qubo", tmp_path / "out.qubo", tmp_path / "log.json"
        src.write_text("p qubo 4\nl 1 1\nl 2 1\nl 3 1\nl 4 -5\n"
                       "q 1 2 -2\nq 2 3 -2\nq 1 3 -2\n")
        assert run(["reduce", src, "-o", red, "--log", log]) == 0
        doc = json.loads(log.read_text())
        assert doc["survivors"] == [1, 2, 3]
        log.write_text(json.dumps(dict(doc, survivors=survivors)))
        capsys.readouterr()
        assert run(["verify", src, red, log]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "verified" not in captured.out

    def test_verify_rejects_wrong_variable_count(self, tmp_path, capsys):
        # an original-indexed file must declare the original's variable count
        src, plain, log = tmp_path / "in.qubo", tmp_path / "out.qubo", tmp_path / "log.json"
        src.write_text(_FOUR_VARIABLES)
        assert run(["reduce", src, "-o", plain, "--log", log]) == 0
        plain.write_text(plain.read_text().replace("p qubo 4", "p qubo 9"))
        capsys.readouterr()
        assert run(["verify", src, plain, log]) == 2
        captured = capsys.readouterr()
        assert "error: reduced file has 9 variables, not 4" in captured.err
        assert "verified" not in captured.out

    def test_verify_rejects_unresolvable_identity(self, tmp_path, capsys):
        # variable 2 is said to equal variable 9, which the log never resolves
        src = tmp_path / "in.qubo"
        red = tmp_path / "out.qubo"
        log = tmp_path / "log.json"
        src.write_text("p qubo 2\nl 1 1\n")
        red.write_text("p qubo 2\nl 1 1\n")
        log.write_text(json.dumps({"format": "quboreduce-log/2", "survivors": [1],
                                   "events": [{"conclusion": [[2, 0, 1, 9]]}]}))
        assert run(["verify", src, red, log]) == 2
        assert "error: identity for 2 references unresolved 9" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda doc: doc["events"].append({"conclusion": [[1, 0, 1, 1]]}),
                     id="identity"),
        pytest.param(lambda doc: doc["events"].append(doc["events"][-1]),
                     id="repeated-assignment"),
        pytest.param(lambda doc: doc["events"].pop(), id="missing-variable"),
    ])
    def test_verify_rejects_map_that_is_no_partition(self, tmp_path, capsys, edit):
        # the triple reduces to nothing, by a pair fix and then a fix; each
        # edit lists a variable twice or not at all
        src = tmp_path / "in.qubo"
        red = tmp_path / "out.qubo"
        log = tmp_path / "log.json"
        src.write_text("p qubo 3\nl 1 1\nl 2 1\nl 3 2\nq 1 2 -2\nq 2 3 1\n")
        run(["reduce", src, "-o", red, "--log", log])
        assert run(["verify", src, red, log]) == 0
        doc = json.loads(log.read_text())
        edit(doc)
        log.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", src, red, log]) == 2
        captured = capsys.readouterr()
        assert "error: the map's eliminations and survivors" in captured.err
        assert "verified" not in captured.out

    def test_verify_deeply_nested_log_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "in.qubo"
        src.write_text("p qubo 2\nl 1 1\n")
        log = tmp_path / "log.json"
        log.write_text("[" * 100_000)
        assert run(["verify", src, src, log]) == 2
        assert capsys.readouterr().err.startswith("error: malformed log document")

    def test_verify_rejects_string_survivors(self, tmp_path, capsys):
        # the triple reduces to nothing, so an empty string iterates like []
        src = tmp_path / "in.qubo"
        red = tmp_path / "out.qubo"
        log = tmp_path / "log.json"
        src.write_text("p qubo 3\nl 1 1\nl 2 1\nl 3 2\nq 1 2 -2\nq 2 3 1\n")
        run(["reduce", src, "-o", red, "--log", log])
        doc = json.loads(log.read_text())
        assert doc["survivors"] == []
        log.write_text(json.dumps({**doc, "survivors": ""}))
        capsys.readouterr()
        assert run(["verify", src, red, log]) == 2
        captured = capsys.readouterr()
        assert "error: malformed log document" in captured.err
        assert "verified" not in captured.out

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda doc: doc["events"][0].update(conclusion=[[4, 1.5, 0, 4]]),
                     id="float-value"),
        pytest.param(lambda doc: doc["events"][0].update(conclusion=[[4, True, 0, 4]]),
                     id="bool-value"),
        pytest.param(lambda doc: doc["events"][0].update(conclusion=[[4, 1, 0, "4"]]),
                     id="string-variable"),
        pytest.param(lambda doc: doc["survivors"].__setitem__(0, True), id="bool-survivor"),
        pytest.param(lambda doc: doc["survivors"].__setitem__(0, "1"), id="string-survivor"),
    ])
    def test_verify_rejects_non_integer_map_entries(self, tmp_path, capsys, edit):
        # x_4 fixes to 1 and 1..3 survive; int() would read each edit as the
        # original entry, so the edited log would verify
        src = tmp_path / "in.qubo"
        red = tmp_path / "out.qubo"
        log = tmp_path / "log.json"
        src.write_text("p qubo 4\nl 1 -2\nl 2 -3\nl 3 -1\nl 4 5\n"
                       "q 1 2 5\nq 1 3 4\nq 2 3 -4\n")
        run(["reduce", src, "-o", red, "--log", log])
        doc = json.loads(log.read_text())
        assert [ev["conclusion"] for ev in doc["events"]] == [[[4, 1, 0, 4]]]
        assert doc["survivors"] == [1, 2, 3]
        assert run(["verify", src, red, log]) == 0
        edit(doc)
        log.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", src, red, log]) == 2
        captured = capsys.readouterr()
        assert "error: malformed log document: TypeError" in captured.err
        assert "verified" not in captured.out

    @pytest.mark.parametrize("entry", [
        pytest.param([4, 1, 1, 4], id="a=1,b=1"),
        pytest.param([4, 0, -1, 1], id="a=0,b=-1"),
        pytest.param([4, 2, 0, 4], id="fix-to-2"),
        pytest.param([4, 1, 0, 1], id="fix-with-i!=h"),
        pytest.param([4, 1, 0], id="three-entries"),
        pytest.param([4, 1, 0, 4, 0], id="five-entries"),
        pytest.param(4, id="integer"),
    ])
    def test_verify_rejects_elimination_of_no_form(self, tmp_path, capsys, entry):
        # x_4 fixes to 1 and 1..3 survive; each entry replaces the fix
        src = tmp_path / "in.qubo"
        red = tmp_path / "out.qubo"
        log = tmp_path / "log.json"
        src.write_text("p qubo 4\nl 1 -2\nl 2 -3\nl 3 -1\nl 4 5\n"
                       "q 1 2 5\nq 1 3 4\nq 2 3 -4\n")
        run(["reduce", src, "-o", red, "--log", log])
        doc = json.loads(log.read_text())
        doc["events"][0]["conclusion"] = [entry]
        log.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", src, red, log]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: malformed log document")
        assert "verified" not in captured.out

    def test_v1_log_is_unsupported(self, tmp_path, capsys):
        # a quboreduce-log/1 document of the triple, which reduces to nothing
        src = tmp_path / "in.qubo"
        red = tmp_path / "out.qubo"
        log = tmp_path / "log.json"
        src.write_text("p qubo 3\nl 1 1\nl 2 1\nl 3 2\nq 1 2 -2\nq 2 3 1\n")
        run(["reduce", src, "-o", red])
        log.write_text(json.dumps({
            "format": "quboreduce-log/1", "original_n": 3, "survivors": [],
            "assignments": [[2, 1], [1, 0], [3, 1]], "identities": [], "offset": 4,
            "passes": 2, "pass_drops": [3, 0], "per_rule_counts": {"R3_2": 1, "R1_0": 1},
            "events": [{"pass": 1, "rule": "R3_2", "unique": False, "live_after": 1,
                        "conclusion": {"type": "pair_fix", "i": 2, "vi": 1, "h": 1, "vh": 0}},
                       {"pass": 1, "rule": "R1_0", "unique": True, "live_after": 0,
                        "conclusion": {"type": "fix", "var": 3, "value": 1}}],
            "inequalities": [], "wall_time_s": 0.0}))
        capsys.readouterr()
        for argv in (["verify", src, red, log], ["report", log]):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: unsupported log format 'quboreduce-log/1'")
            assert captured.out == ""

    @pytest.mark.parametrize("fmt", ["bogus/9", None])
    def test_verify_rejects_unknown_log_format(self, tmp_path, capsys, fmt):
        src = tmp_path / "in.qubo"
        red = tmp_path / "out.qubo"
        log = tmp_path / "log.json"
        src.write_text("p qubo 3\nl 1 1\nl 2 1\nl 3 2\nq 1 2 -2\nq 2 3 1\n")
        run(["reduce", src, "-o", red, "--log", log])
        doc = json.loads(log.read_text())
        if fmt is None:
            del doc["format"]
        else:
            doc["format"] = fmt
        log.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", src, red, log]) == 2
        assert "error: " in capsys.readouterr().err

    def test_verify_rejects_non_standard_constant(self, tmp_path, capsys):
        # verify never reads wall_time_s, so only the loader can refuse NaN
        src = tmp_path / "in.qubo"
        red = tmp_path / "out.qubo"
        log = tmp_path / "log.json"
        src.write_text("p qubo 3\nl 1 1\nl 2 1\nl 3 2\nq 1 2 -2\nq 2 3 1\n")
        run(["reduce", src, "-o", red, "--log", log])
        doc = json.loads(log.read_text())
        log.write_text(json.dumps({**doc, "wall_time_s": float("nan")}))
        capsys.readouterr()
        assert run(["verify", src, red, log]) == 2
        captured = capsys.readouterr()
        assert "error: malformed log document: NaN" in captured.err
        assert "verified" not in captured.out

    def test_document_map_lifts_as_the_run_map(self):
        # The events' eliminations, joined in logged order, are the run's
        # map, field for field, so it lifts as the run's map does, also where
        # an identity's partner was fixed later.
        fixed_later = 0
        for t in range(300):
            inst = sweep_instance(t)
            reduced, log, smap = engine.run_to_fixed_point(inst)
            doc = json.loads(json.dumps(log_document(inst, reduced, log, smap, 0.0, [])))
            back = solution_map_from_document(doc)
            assert back.eliminations == smap.eliminations, t
            assert back.survivors == smap.survivors, t
            fixed_at = {h: k for k, (h, _, b, _) in enumerate(smap.eliminations) if not b}
            fixed_later += any(b and fixed_at.get(i, -1) > k
                               for k, (_, _, b, i) in enumerate(smap.eliminations))
        assert fixed_later >= 10

    def test_split_map_fields_follow_the_events(self):
        # Nothing in the package reads assignments and identities back, so
        # only this test would notice them going wrong.
        for t in range(1000):
            inst = sweep_instance(t)
            reduced, log, smap = engine.run_to_fixed_point(inst)
            doc = json.loads(json.dumps(log_document(inst, reduced, log, smap, 0.0, [])))
            eliminations = [e for ev in doc["events"] for e in ev["conclusion"]]
            assert doc["assignments"] == [[h, a] for h, a, b, _ in eliminations if b == 0], t
            assert doc["identities"] == [[h, "same" if b == 1 else "complement", i]
                                         for h, _, b, i in eliminations if b != 0], t

    @pytest.mark.parametrize("t", [3, 4, 5, 17])
    def test_verify_identity_whose_partner_is_fixed_later(self, tmp_path, t):
        src = tmp_path / "in.qubo"
        red = tmp_path / "out.qubo"
        log = tmp_path / "log.json"
        write_instance(sweep_instance(t), src)
        assert run(["reduce", src, "-o", red, "--log", log]) == 0
        assert run(["verify", src, red, log]) == 0

    def test_reduce_out_of_memory_is_input_error(self, tmp_path, capsys, monkeypatch):
        def no_memory(instance):
            raise MemoryError

        monkeypatch.setattr(engine, "init_state", no_memory)
        src = tmp_path / "in.qubo"
        src.write_text("p qubo 2\nl 1 5\n")
        assert run(["reduce", src]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory\n" and captured.out == ""

    def test_emit_inequalities_recorded(self, tmp_path):
        # The logged records are those mined on the reduced file read back
        # over the original ids, with or without --renumber: here 5 records
        # on the survivors 2, 3, 4 and 8 of 8 variables.  Without the flag,
        # none are logged.
        src, red, log = tmp_path / "iq.qubo", tmp_path / "iq_red.qubo", tmp_path / "iq.json"
        write_instance(sweep_instance(53), src)
        for flags in ([], ["--renumber"]):
            assert run(["reduce", src, "-o", red, "--log", log, "--emit-inequalities",
                        *flags]) == 0
            doc = json.loads(log.read_text())
            reduced = read_instance(red)
            if flags:
                reduced = relabel(reduced, range(1, reduced.n + 1), doc["survivors"], 8)
            want = [{"rule": r.verdict.rule_id, "unique": r.verdict.unique,
                     "m_bound": r.m_bound, "kind": r.verdict.conclusion.kind.value,
                     "i": r.verdict.conclusion.i, "h": r.verdict.conclusion.h}
                    for r in mine_inequalities(reduced)]
            assert doc["survivors"] == [2, 3, 4, 8]
            assert doc["inequalities"] == want and len(want) == 5
        assert run(["reduce", src, "--log", log]) == 0
        assert json.loads(log.read_text())["inequalities"] == []


class TestSolve:
    def test_plain_solve(self, tmp_path, capsys):
        src = tmp_path / "a.qubo"
        src.write_text("p qubo 2\nl 1 3\nl 2 -2\nq 1 2 2\n")
        assert run(["solve", src]) == 0
        assert "optimum 3" in capsys.readouterr().out

    def test_preprocess_matches_plain(self, tmp_path, capsys):
        rng = random.Random(31)
        for k in range(25):
            src = tmp_path / f"s{k}.qubo"
            write_instance(random_instance(rng, rng.randint(2, 12)), src)
            run(["solve", src])
            plain = capsys.readouterr().out.splitlines()[0]
            run(["solve", src, "--preprocess"])
            pre = capsys.readouterr().out.splitlines()[0]
            assert plain == pre

    def test_preprocess_on_fully_reducible(self, tmp_path, capsys):
        src = tmp_path / "t.qubo"
        src.write_text("p qubo 3\nl 1 1\nl 2 1\nl 3 2\nq 1 2 -2\nq 2 3 1\n")
        assert run(["solve", src, "--preprocess"]) == 0
        out = capsys.readouterr().out
        assert "optimum 4" in out
        assert "assignment 0 1 1" in out
        assert "remnant size 0" in out

    def test_empty_instance_with_offset(self, tmp_path, capsys):
        src = tmp_path / "o.qubo"
        src.write_text("p qubo 0\no 7\n")
        assert run(["solve", src]) == 0
        assert "optimum 7" in capsys.readouterr().out

    def test_all_optima_with_preprocess_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "ao.qubo"
        src.write_text("p qubo 2\nl 1 3\nl 2 -2\nq 1 2 2\n")
        assert run(["solve", src, "--preprocess", "--all-optima"]) == 2
        captured = capsys.readouterr()
        assert "error: --all-optima cannot be combined with --preprocess" in captured.err
        assert captured.out == ""

    def test_all_optima_listing(self, tmp_path, capsys):
        src = tmp_path / "ao.qubo"
        src.write_text("p qubo 2\nl 1 3\nl 2 -2\nq 1 2 2\n")
        assert run(["solve", src, "--all-optima"]) == 0
        out = capsys.readouterr().out
        assert "assignment 1 0" in out and "assignment 1 1" in out


def _log_text(**fields):
    """A log document that report renders, with some fields replaced."""
    doc = {"format": "quboreduce-log/2", "original_n": 3, "survivors": [2],
           "assignments": [[1, 0], [3, 1]], "identities": [], "offset": 4,
           "passes": 2, "pass_drops": [2, 0], "per_rule_counts": {"R1_0": 2},
           "events": [], "inequalities": [], "wall_time_s": 0.5}
    return json.dumps({**doc, **fields})


class TestReport:
    def test_report_renders_minimal_log(self, tmp_path, capsys):
        log = tmp_path / "log.json"
        log.write_text(_log_text())
        assert run(["report", log]) == 0
        assert "3 -> 1" in capsys.readouterr().out

    def test_report_renders_saved_log(self, tmp_path, capsys):
        src = tmp_path / "in.qubo"
        log = tmp_path / "log.json"
        write_instance(random_instance(random.Random(41), 10), src)
        run(["reduce", src, "--log", log])
        capsys.readouterr()
        assert run(["report", log]) == 0
        assert "rule" in capsys.readouterr().out

    def test_report_missing_file(self, tmp_path):
        assert run(["report", tmp_path / "nope.json"]) == 2

    def test_report_rejects_unknown_log_format(self, tmp_path, capsys):
        src = tmp_path / "in.qubo"
        log = tmp_path / "log.json"
        write_instance(random_instance(random.Random(41), 10), src)
        run(["reduce", src, "--log", log])
        doc = json.loads(log.read_text())
        doc["format"] = "bogus/9"
        log.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["report", log]) == 2
        captured = capsys.readouterr()
        assert "error: unsupported log format" in captured.err
        assert "rule" not in captured.out

    @pytest.mark.parametrize("text", [
        "{}",
        "[]",
        pytest.param(_log_text(wall_time_s="x"), id="wall_time_s=x"),
        pytest.param(_log_text(wall_time_s=True), id="wall_time_s=true"),
        pytest.param(_log_text(wall_time_s="1.5"), id="wall_time_s=string"),
        pytest.param(_log_text(wall_time_s="nan"), id="wall_time_s=nan"),
        pytest.param(_log_text(wall_time_s=float("nan")), id="wall_time_s=NaN"),
        pytest.param(_log_text(wall_time_s=float("inf")), id="wall_time_s=Infinity"),
        pytest.param(_log_text(wall_time_s=float("-inf")), id="wall_time_s=-Infinity"),
        pytest.param(_log_text().replace("0.5}", "1e400}"), id="wall_time_s=1e400"),
        pytest.param(_log_text().replace("0.5}", "-1e400}"), id="wall_time_s=-1e400"),
        pytest.param(_log_text(original_n=None), id="original_n=null"),
        pytest.param(_log_text(pass_drops=["a"]), id="pass_drops=[a]"),
        pytest.param(_log_text(per_rule_counts=[1]), id="per_rule_counts=[1]"),
        pytest.param(_log_text(pass_drops="907"), id="pass_drops=string"),
        pytest.param(_log_text(survivors=""), id="survivors=string"),
        pytest.param(_log_text(inequalities=""), id="inequalities=string"),
        pytest.param(_log_text(per_rule_counts=[["R1_0", 2]]), id="per_rule_counts=pairs"),
        pytest.param(_log_text(offset=4.5), id="offset=float"),
        pytest.param(_log_text(passes=True), id="passes=true"),
        pytest.param(_log_text(pass_drops=[2.0, 0]), id="pass_drops=[float]"),
        pytest.param(_log_text(per_rule_counts={"R1_0": "2"}), id="per_rule_counts=string"),
    ])
    def test_report_malformed_document(self, tmp_path, capsys, text):
        log = tmp_path / "bad.json"
        log.write_text(text)
        assert run(["report", log]) == 2
        captured = capsys.readouterr()
        assert "error: malformed log document" in captured.err
        assert captured.out == ""

    def test_report_deeply_nested_log_is_input_error(self, tmp_path, capsys):
        log = tmp_path / "deep.json"
        log.write_text("[" * 100_000)
        assert run(["report", log]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: malformed log document")
        assert captured.out == ""

    def test_report_non_utf8_log(self, tmp_path, capsys):
        log = tmp_path / "bad.json"
        log.write_bytes(b"\xff\xfe{}")
        assert run(["report", log]) == 2
        assert "error: " in capsys.readouterr().err
