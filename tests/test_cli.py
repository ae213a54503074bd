import json
import re
import time
from pathlib import Path

import pytest

from mcg.cli import main
from mcg.modelfile import builtin_model_text


def test_verify_pass_exit_zero(capsys):
    assert main(["verify", "thmC"]) == 0
    out = capsys.readouterr().out
    assert "RESULT PASS" in out and "OVERALL PASS" in out


def test_verify_starved_budget_exit_one(capsys):
    assert main(["verify", "thmA", "--n", "17", "--budget", "1"]) == 1
    out = capsys.readouterr().out
    assert "Unknown" in out


def test_verify_wrong_parity_exit_two(capsys):
    assert main(["verify", "thmA", "--n", "18"]) == 2
    assert "odd" in capsys.readouterr().err


def test_verify_missing_script_exit_two(capsys):
    assert main(["verify", "no-such-file.mcg"]) == 2


@pytest.mark.parametrize("n", [1, 0])
def test_sn_model_with_too_few_ends_blames_n(capsys, n):
    assert main(["project", "A[1]", "--n", str(n)]) == 2
    err = capsys.readouterr().err
    assert f"sn model needs n >= 3, got {n}" in err and "(1 2)" not in err


def test_corrupt_script_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.mcg"
    bad.write_text("MODEL sn\nPARAM n DEFAULT 17\nLET F2 = CONJ(F9, R)\n")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "F9" in err


def test_corrupt_model_file_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("kind sn\nadj A[i,j] ~~~\n")
    assert main(["selfcheck", "--model-file", str(bad), "--n", "17"]) == 2
    err = capsys.readouterr().err
    assert "bad.model:2" in err


def test_bad_permutation_point_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    for perm in ("(1 ])", "(1 0)"):
        bad.write_text(f"kind sn\nsym tau perm {perm}\n")
        assert main(["selfcheck", "--model-file", str(bad), "--n", "17"]) == 2
        assert "bad.model:2" in capsys.readouterr().err


def test_permutation_point_above_n_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("kind sn\nsym tau perm (1 40)\n")
    assert main(["selfcheck", "--model-file", str(bad), "--n", "17"]) == 2
    err = capsys.readouterr().err
    assert "bad.model:2" in err and "above n=17" in err



def test_swap_on_the_one_ended_model_reports_position(tmp_path, capsys):
    bad = tmp_path / "lochness.model"
    text = builtin_model_text("lochness")
    line = text.splitlines().index("sym tau2 chain k -> -k") + 1
    bad.write_text(text.replace("sym tau2 chain k -> -k", "sym tau2 chain k -> -k swap"))
    assert main(["selfcheck", "--model-file", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert f"{bad}:{line}: " in err and "no A' family" in err
    # the model file is read before any check runs or prints
    assert out == ""

# one more digit than Python converts by default (sys.get_int_max_str_digits)
HUGE = "9" * 5000


def test_huge_permutation_point_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text(f"kind sn\nsym tau perm (1 {HUGE})\n")
    assert main(["selfcheck", "--model-file", str(bad), "--n", "17"]) == 2
    err = capsys.readouterr().err
    assert "bad.model:2" in err and "5000-digit" in err and "Traceback" not in err


def test_huge_index_map_constant_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text(f"kind sn\nsym R end j -> j + {HUGE}\n")
    assert main(["selfcheck", "--model-file", str(bad), "--n", "17"]) == 2
    err = capsys.readouterr().err
    assert "bad.model:2" in err and "5000-digit" in err


# malformed aliases in the Jacob's Ladder model: the replacement of its
# "alias H = tau2 tau1" line, the offset of the blamed line from that line,
# and the message
BAD_ALIASES = {
    "unknown": ("alias H = tau9 tau1", 0, "alias 'H' names 'tau9', which is not declared above it"),
    "self": ("alias H = H tau1", 0, "alias 'H' names 'H', which is not declared above it"),
    "cycle": ("alias H = G tau1\nalias G = H", 0, "alias 'H' names 'G', which is not declared above it"),
    "repeated": ("alias H = tau2 tau1\nalias H = tau1", 1, "alias 'H' already declared"),
    "symmetry": ("alias H = tau2 tau1\nalias tau1 = tau2", 1, "alias 'tau1' already declared"),
}


@pytest.mark.parametrize(
    "argv", [["selfcheck"], ["verify", "thmC"]], ids=["selfcheck", "verify"]
)
@pytest.mark.parametrize("case", sorted(BAD_ALIASES))
def test_malformed_alias_reports_position(tmp_path, capsys, argv, case):
    text = builtin_model_text("jacob")
    replacement, offset, message = BAD_ALIASES[case]
    assert "alias H = tau2 tau1\n" in text
    bad = tmp_path / "bad.model"
    bad.write_text(text.replace("alias H = tau2 tau1", replacement))
    line = text[: text.index("alias H")].count("\n") + 1 + offset
    assert main([*argv, "--model-file", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"bad.model:{line}: {message}" in err and "Traceback" not in err


def test_huge_script_index_reports_position(capsys):
    assert main(["normalize", f"A[1,{HUGE}]", "--model", "sn", "--n", "17"]) == 2
    err = capsys.readouterr().err
    assert "col" in err and "5000-digit" in err


def test_huge_projection_point_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.mcg"
    bad.write_text(f"MODEL sn\nPARAM n DEFAULT 17\nASSERT_PROJECTION R = (1 {HUGE})\n")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "5000-digit" in err


def test_missing_model_file_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "missing.model")
    assert main(["selfcheck", "--model-file", missing]) == 2
    assert missing in capsys.readouterr().err
    assert main(["verify", "thmC", "--model-file", missing]) == 2
    assert missing in capsys.readouterr().err


def test_non_integer_budget_env_exit_two(monkeypatch, capsys):
    monkeypatch.setenv("MCG_BUDGET", "abc")
    assert main(["verify", "thmC"]) == 2
    assert "MCG_BUDGET" in capsys.readouterr().err


def test_budget_order_flag_env_script_default(tmp_path, monkeypatch):
    # --budget, then MCG_BUDGET, then the script's BUDGET line, then 100000
    lined = tmp_path / "lined.mcg"
    lined.write_text("MODEL jacob\nBUDGET 5\nASSERT_EQ A[1] = A[1]\n")
    plain = tmp_path / "plain.mcg"
    plain.write_text("MODEL jacob\nASSERT_EQ A[1] = A[1]\n")
    out = tmp_path / "r.json"
    monkeypatch.delenv("MCG_BUDGET", raising=False)

    def budgets(*flags):
        assert main(["verify", str(lined), str(plain), "--format", "json", "--out", str(out), *flags]) == 0
        return [r["budget"] for r in json.loads(out.read_text())["scripts"]]

    assert budgets() == [5, 100_000]
    monkeypatch.setenv("MCG_BUDGET", "9")
    assert budgets() == [9, 9]
    assert budgets("--budget", "7") == [7, 7]


@pytest.mark.parametrize("argv", [["verify", "thmC"], ["normalize", "A[1]", "--model", "jacob"]])
def test_negative_budget_flag_exit_two(monkeypatch, capsys, argv):
    monkeypatch.delenv("MCG_BUDGET", raising=False)
    assert main([*argv, "--budget", "-1"]) == 2
    assert "--budget -1: a budget cannot be negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "thmC"], ["normalize", "A[1]", "--model", "jacob"]])
def test_negative_budget_env_exit_two(monkeypatch, capsys, argv):
    monkeypatch.setenv("MCG_BUDGET", "-1")
    assert main(argv) == 2
    assert "MCG_BUDGET='-1': a budget cannot be negative" in capsys.readouterr().err


def test_zero_budget_is_a_starved_run(monkeypatch, capsys):
    monkeypatch.delenv("MCG_BUDGET", raising=False)
    assert main(["verify", "thmC", "--budget", "0"]) == 1
    assert "Unknown" in capsys.readouterr().out
    assert main(["normalize", "A[1] A~[1]", "--model", "jacob", "--budget", "0"]) == 1
    assert "budget exhausted" in capsys.readouterr().err


def test_shiftmap_check(capsys):
    assert main(["shiftmap"]) == 0
    assert "all passed" in capsys.readouterr().out


def test_project_cycle_output(capsys):
    assert main(["project", "R", "--model", "sn", "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "(1 2 3 4 5)"


def test_project_parse_error_exit_two(capsys):
    assert main(["project", "Q[1]", "--model", "sn", "--n", "5"]) == 2


def test_normalize_with_trace(capsys):
    code = main(["normalize", "A[1] B[1] A[1] B~[1] A~[1]", "--model", "sn", "--n", "17", "--trace"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "B[1,1]"
    assert "trace:" in out


def test_normalize_chain_model_uses_its_n(capsys):
    assert main(["normalize", "A[n]", "--model", "jacob"]) == 0
    assert capsys.readouterr().out.strip() == "A[2]"


def test_verify_chain_script_rejects_other_n(capsys):
    assert main(["verify", "thmC", "--n", "5"]) == 2
    err = capsys.readouterr().err
    assert "n=2" in err and "Traceback" not in err


def test_normalize_matrix_grid(capsys):
    assert main(["normalize", "A[1]", "--model", "lochness", "--matrix", "--matrix-window", "2"]) == 0
    out = capsys.readouterr().out
    rows = [r for r in out.splitlines()[1:] if r and re.fullmatch(r"[\d\- ]+", r)]
    assert len(rows) == 10  # 2*(2*2+1) basis classes
    assert out.splitlines()[-1] == "invalid columns: none"


@pytest.mark.parametrize(
    "argv, note",
    [
        (
            ["tau2 tau1 tau2 tau1", "--model", "jacob"],
            "invalid columns: A[1]-class (image leaves the window), B[1]-class (image leaves the window),"
            " A[2]-class (image leaves the window), B[2]-class (image leaves the window)",
        ),
        (
            ["h[1,2]", "--model", "sn", "--n", "3"],
            "invalid columns: A[1,1]-class (masked at the crossing), B[1,1]-class (masked at the crossing),"
            " A[2,2]-class (image leaves the window), B[2,2]-class (image leaves the window)",
        ),
    ],
    ids=["jacob-translation", "sn-shift"],
)
def test_normalize_matrix_names_the_invalid_columns(capsys, argv, note):
    # the translation by 2 carries indices 1 and 2 past window 2; the shift
    # masks the repelling end's first handle and carries the attracting
    # end's top handle out. The grid rows come before the note, unchanged.
    assert main(["normalize", *argv, "--matrix", "--matrix-window", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = out[1:-1]
    assert all(re.fullmatch(r"[\d\- ]+", r) for r in rows)
    assert len(rows) == (10 if "jacob" in argv else 12)
    assert out[-1] == note


@pytest.mark.parametrize(
    "argv", [["normalize", "A[1]", "--matrix", "--matrix-window", "1"]], ids=["normalize"]
)
def test_window_below_the_floor_exits_two(capsys, argv):
    # --matrix-window, the one window a user sets, meets the floor of the
    # homology window before anything is printed
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: window must be at least 2\n"


@pytest.mark.parametrize("command", ["project", "normalize"])
def test_command_line_word_positions_count_within_the_word(capsys, command):
    assert main([command, "A[1] Q"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 1, col 6: name 'Q' is not defined here\n"


@pytest.mark.parametrize("command", ["project", "normalize"])
def test_command_line_word_is_one_line(capsys, command):
    # text after a line break is an error, not dropped
    assert main([command, "R\nASSERT_EQ R = R"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 1, col 2: a word is one line; found a line break\n"


def _mask_clock(text: str) -> str:
    text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)
    return re.sub(r'"wall_time_s": [0-9.]+', '"wall_time_s": 0', text)


def test_json_report_byte_stable(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "thmC", "--format", "json", "--out", str(out1)]) == 0
    assert main(["verify", "thmC", "--format", "json", "--out", str(out2)]) == 0
    a = _mask_clock(out1.read_text())
    b = _mask_clock(out2.read_text())
    assert a == b
    doc = json.loads(a)
    st = doc["scripts"][0]["statements"][0]
    assert set(st) >= {"statement", "verdict", "oracle", "budget_used", "witness"}


# The default replays' JSON report with the clock fields masked. Regenerate it
# only in a change that says why the report bytes moved.
GOLDEN_DEFAULT_JSON = Path(__file__).parent / "data" / "verify-default.json"


def test_default_verify_matches_golden_json(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "--format", "json", "--out", str(out)]) == 0
    assert _mask_clock(out.read_text(encoding="utf-8")) == GOLDEN_DEFAULT_JSON.read_text(encoding="utf-8")


# The many-end regime, masked the same way.
@pytest.mark.parametrize("script, n", [("thmA", 129), ("thmB", 128)])
def test_wide_verify_matches_golden_json(tmp_path, script, n):
    out = tmp_path / "r.json"
    assert main(["verify", script, "--n", str(n), "--format", "json", "--out", str(out)]) == 0
    golden = Path(__file__).parent / "data" / f"verify-wide-{script}-{n}.json"
    assert _mask_clock(out.read_text(encoding="utf-8")) == golden.read_text(encoding="utf-8")


# Every way an identity row can fail: refuted by the end projection or by
# homology, Unknown with homology Consistent or Inconclusive, a refuted
# involution, a refutation at genus 41, an error row, and at --budget 2 an
# Unknown for want of budget. The script path is part of the report, so it
# runs from the root.
@pytest.mark.parametrize("flags, golden", [([], "verify-refutations"), (["--budget", "2"], "verify-refutations-budget-2")])
def test_failing_rows_match_golden_json(tmp_path, monkeypatch, flags, golden):
    monkeypatch.chdir(Path(__file__).parent.parent)
    out = tmp_path / "r.json"
    assert main(["verify", "tests/data/refutations.mcg", *flags, "--format", "json", "--out", str(out)]) == 1
    text = _mask_clock(out.read_text(encoding="utf-8"))
    assert text == (Path(__file__).parent / "data" / f"{golden}.json").read_text(encoding="utf-8")


def test_report_dir_writes_json_and_csv(tmp_path):
    rd = tmp_path / "out"
    assert main(["verify", "thmC", "--report-dir", str(rd)]) == 0
    assert sorted(p.name for p in rd.iterdir()) == ["report.json", "statements.csv"]
    csv_text = (rd / "statements.csv").read_text()
    assert csv_text.splitlines()[0].startswith("script,")


def test_report_dir_on_a_file_exit_two(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("")
    assert main(["verify", "thmC", "--report-dir", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_jobs_option_is_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--jobs", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["verify", "--window", "40"], ["selfcheck", "--window", "20"], ["shiftmap", "--samples", "24"]],
    ids=["verify", "selfcheck", "shiftmap"],
)
def test_coverage_is_not_an_option(capsys, argv):
    # each check's coverage is a constant of its module
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {argv[1]}" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["verify", "{}"], "bad.mcg"),
        (["selfcheck", "--model-file", "{}"], "bad.model"),
        (["verify", "thmC", "--model-file", "{}"], "bad.model"),
    ],
    ids=["verify-script", "selfcheck-model-file", "verify-model-file"],
)
def test_undecodable_input_file_reports_position(tmp_path, capsys, argv, name):
    # the first byte that is not UTF-8 is an error at its line, before
    # anything is printed; a CRLF counts as one line break
    bad = tmp_path / name
    bad.write_bytes(b"MODEL jacob\n\nASSERT_EQ A[1] = A[1] \xff\n" if name.endswith(".mcg") else b"kind jacob\r\n\r\nsym \xff\n")
    assert main([a.format(bad) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {bad}:3: not UTF-8 text: byte 0xff cannot be decoded\n"


@pytest.mark.parametrize(
    "head, power, letters",
    [("MODEL sn\nPARAM n DEFAULT 17\nLET X = A[1]", "X^20000", 20000), ("MODEL jacob", "H^20000", 40000)],
)
def test_overlong_script_word_is_one_error_row(tmp_path, head, power, letters):
    script, out = tmp_path / "big.mcg", tmp_path / "r.json"
    script.write_text(f"{head}\nLET Y = {power}\nASSERT_EQ {power[0]} {power[0]}~ = ID\n")
    t0 = time.perf_counter()
    assert main(["verify", str(script), "--format", "json", "--out", str(out)]) == 1
    assert time.perf_counter() - t0 < 1.0
    rows = json.loads(out.read_text())["scripts"][0]["statements"]
    bad = [r for r in rows if not r["ok"]]
    assert [(r["statement"], r["verdict"]) for r in bad] == [(f"LET Y = {power}", "error")]
    assert bad[0]["witness"] == f"{power} has {letters} letters, more than the 10000-letter bound on a word"
    assert rows[-1]["verdict"] == "ProvedEqual"


def test_symmetry_missing_from_the_model_file_names_the_model(tmp_path):
    model, out = tmp_path / "sigma.model", tmp_path / "r.json"
    model.write_text(builtin_model_text("sn").replace("sym tau perm (1 2)", "sym sigma perm (1 2)"))
    assert main(["verify", "thmA", "--n", "17", "--model-file", str(model), "--format", "json", "--out", str(out)]) == 1
    rows = json.loads(out.read_text())["scripts"][0]["statements"]
    assert [(r["line"], r["verdict"], r["witness"]) for r in rows if not r["ok"]] == [
        (99, "error", "name 'tau' has no value in the S(17) model")
    ]


def test_empty_command_line_word_points_past_its_end(capsys):
    assert main(["project", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 1, col 1: empty word (use ID for the identity)\n"
