import json
import random

import pytest

from conftest import random_instance
from quboreduce import engine
from quboreduce.cli import main
from quboreduce.model import read_instance, write_instance


def run(argv):
    return main([str(a) for a in argv])


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
        doc["assignments"][0][1] = 1 - doc["assignments"][0][1]
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

    def test_log_without_assignments_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "in.qubo"
        red = tmp_path / "out.qubo"
        log = tmp_path / "log.json"
        src.write_text("p qubo 3\nl 1 1\nl 2 1\nl 3 2\nq 1 2 -2\nq 2 3 1\n")
        run(["reduce", src, "-o", red, "--log", log])
        doc = json.loads(log.read_text())
        del doc["assignments"]
        log.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", src, red, log]) == 2
        assert "error: " in capsys.readouterr().err

    def test_verify_takes_numbering_from_log(self, tmp_path, capsys):
        # variable 1 is fixed, 2..4 survive: the dense and the original-indexed
        # files differ, and each only verifies against its own log
        src = tmp_path / "in.qubo"
        src.write_text("p qubo 4\nl 1 5\nl 2 -2\nl 3 -3\nl 4 -1\n"
                       "q 2 3 5\nq 2 4 4\nq 3 4 -4\n")
        plain, plain_log = tmp_path / "plain.qubo", tmp_path / "plain.json"
        dense, dense_log = tmp_path / "dense.qubo", tmp_path / "dense.json"
        assert run(["reduce", src, "-o", plain, "--log", plain_log]) == 0
        assert run(["reduce", src, "-o", dense, "--log", dense_log, "--renumber"]) == 0
        assert json.loads(plain_log.read_text())["survivors"] == [2, 3, 4]
        assert run(["verify", src, plain, plain_log]) == 0
        assert run(["verify", src, dense, dense_log]) == 0
        capsys.readouterr()
        assert run(["verify", src, dense, plain_log]) == 2
        assert run(["verify", src, plain, dense_log]) == 2
        assert "error: " in capsys.readouterr().err

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

    def test_emit_inequalities_recorded(self, tmp_path):
        src = tmp_path / "iq.qubo"
        src.write_text("p qubo 3\nl 1 1\nl 2 1\nl 3 -4\nq 1 2 -1\nq 1 3 2\nq 2 3 2\n")
        log = tmp_path / "iq_log.json"
        assert run(["reduce", src, "--log", log, "--emit-inequalities"]) == 0
        doc = json.loads(log.read_text())
        assert isinstance(doc["inequalities"], list)


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

    def test_all_optima_listing(self, tmp_path, capsys):
        src = tmp_path / "ao.qubo"
        src.write_text("p qubo 2\nl 1 3\nl 2 -2\nq 1 2 2\n")
        assert run(["solve", src, "--all-optima"]) == 0
        out = capsys.readouterr().out
        assert "assignment 1 0" in out and "assignment 1 1" in out


class TestReport:
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

    @pytest.mark.parametrize("text", ["{}", "[]"])
    def test_report_malformed_document(self, tmp_path, capsys, text):
        log = tmp_path / "bad.json"
        log.write_text(text)
        assert run(["report", log]) == 2
        assert "error: " in capsys.readouterr().err

    def test_report_non_utf8_log(self, tmp_path, capsys):
        log = tmp_path / "bad.json"
        log.write_bytes(b"\xff\xfe{}")
        assert run(["report", log]) == 2
        assert "error: " in capsys.readouterr().err
