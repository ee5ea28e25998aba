"""Command-line surface: JSON output, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from exactquery import boolfn, cli, lowdeg, qsim
from exactquery.boolfn import BooleanFunction


# CLI stdout, byte for byte (`construct` reports, `verify` and `analyze`)
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return code, doc


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_builtin_f3(capsys):
    code, doc = run(capsys, "analyze", "builtin:F3")
    assert code == 0
    assert doc["sensitivity"] == 3
    assert doc["d_exact"] == 3
    assert doc["degree"] == 2
    assert doc["qe_lower"] == 1
    assert doc["complement_symmetric"] is True


def test_analyze_builtin_g4(capsys):
    code, doc = run(capsys, "analyze", "builtin:G4")
    assert code == 0
    assert doc["d_exact"] == 4


def test_analyze_constant_from_file(tmp_path, capsys):
    path = tmp_path / "const0.json"
    path.write_text(json.dumps(BooleanFunction.constant(3, 0).to_json_dict()))
    code, doc = run(capsys, "analyze", str(path))
    assert code == 0
    assert doc["sensitivity"] == 0
    assert doc["degree"] == 0


def test_analyze_dcap_suppresses_exact_depth(capsys):
    code, doc = run(capsys, "analyze", "builtin:G4", "--dcap", "2")
    assert code == 0
    assert doc["d_exact"] is None
    assert doc["d_lower"] == 4


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run(capsys, "analyze", str(path))
    assert code == 2


def test_analyze_rejects_nonzero_padding(tmp_path, capsys):
    path = tmp_path / "padded.json"
    path.write_text(json.dumps({"n": 2, "table_hex": "1f"}))
    code, doc = run(capsys, "analyze", str(path))
    assert code == 2
    assert doc is None


def test_analyze_depth_over_max_dcap_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(boolfn, "MAX_DCAP", 3)
    assert cli.main(["analyze", "builtin:G4", "--dcap", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "capped at n=3" in captured.err


def test_analyze_unknown_builtin(capsys):
    code, _ = run(capsys, "analyze", "builtin:F5")
    assert code == 2


@pytest.mark.parametrize("n", ["3", True, 3.0])
def test_analyze_rejects_non_integer_n(tmp_path, capsys, n):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"n": n, "table_hex": "00"}))
    assert cli.main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n must be an integer" in captured.err


@pytest.mark.parametrize("spec", ["builtin:nope", "table1:9", "builtin:table2:0"])
def test_analyze_unknown_builtin_names_valid_builtins(capsys, spec):
    assert cli.main(["analyze", spec]) == 2
    err = capsys.readouterr().err
    assert f"unknown builtin function {spec.removeprefix('builtin:')!r}" in err
    assert "F3, G4, table1:1..8, table2:1..8" in err
    assert "Errno" not in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_a1_on_011(capsys):
    code, doc = run(capsys, "simulate", "--alg", "builtin:a1", "--input", "011")
    assert code == 0
    assert doc["amplitudes"] == ["0", "-1", "0", "0"]
    assert doc["outcome"] == 0
    assert doc["probabilities"] == {"0": "1", "1": "0"}


def test_simulate_a2_on_0101(capsys):
    code, doc = run(capsys, "simulate", "--alg", "builtin:a2", "--input", "0101")
    assert code == 0
    assert doc["outcome"] == 1
    assert doc["probabilities"]["1"] == "1"


def test_simulate_trace(capsys):
    code, doc = run(capsys, "simulate", "--alg", "builtin:a1", "--input", "011", "--trace")
    assert code == 0
    assert len(doc["trace"]) == 6
    assert doc["trace"][0]["amplitudes"] == ["1/2", "1/2", "1/2", "1/2"]
    assert doc["trace"][5]["amplitudes"] == ["0", "-1", "0", "0"]


def test_simulate_arity_mismatch(capsys):
    code, _ = run(capsys, "simulate", "--alg", "builtin:a1", "--input", "00")
    assert code == 2


def test_simulate_float_mode(capsys):
    code, doc = run(capsys, "simulate", "--alg", "builtin:a2", "--input", "0101", "--float")
    assert code == 0
    assert doc["outcome"] == 1
    assert abs(doc["probabilities"]["1"] - 1.0) < 1e-9


def test_simulate_algorithm_from_file(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(qsim.algorithm_to_json_dict(qsim.a1())))
    code, doc = run(capsys, "simulate", "--alg", str(path), "--input", "011")
    assert code == 0
    assert doc["amplitudes"] == ["0", "-1", "0", "0"]


def test_simulate_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 2, "n": 1, "layers": [
        {"unitary": [["1", "1"], ["1", "1"]]}], "outputs": [0, 1]}))
    code, _ = run(capsys, "simulate", "--alg", str(path), "--input", "0")
    assert code == 2


def _a1_with_query_var(v):
    data = qsim.algorithm_to_json_dict(qsim.a1())
    data["layers"][1]["query"][0] = v  # x1 in a1's first query
    return data


@pytest.mark.parametrize(
    "data",
    [
        {**qsim.algorithm_to_json_dict(qsim.a1()), "n": 3.7},
        {**qsim.algorithm_to_json_dict(qsim.a1()), "n": "3"},
        {**qsim.algorithm_to_json_dict(qsim.a1()), "outputs": "0001"},
        {**qsim.algorithm_to_json_dict(qsim.a1()), "outputs": [False, False, False, True]},
        _a1_with_query_var(1.9),
        _a1_with_query_var("1"),
    ],
    ids=["n-float", "n-string", "outputs-string", "outputs-bools", "var-float", "var-string"],
)
def test_simulate_rejects_non_integer_algorithm_fields(tmp_path, capsys, data):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    assert cli.main(["simulate", "--alg", str(path), "--input", "011"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed algorithm JSON" in captured.err


def test_simulate_rejects_zero_dimensional_algorithm(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 0, "n": 3, "layers": [], "outputs": []}))
    assert cli.main(["simulate", "--alg", str(path), "--input", "011"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dim must be at least 1, got 0" in captured.err


@pytest.mark.parametrize("n", [0, -2])
def test_simulate_rejects_algorithm_without_variables(tmp_path, capsys, n):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 1, "n": n, "layers": [], "outputs": [1]}))
    assert cli.main(["simulate", "--alg", str(path), "--input", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"n must be at least 1, got {n}" in captured.err


@pytest.mark.parametrize("v", [0, 4])
def test_simulate_names_query_variable_as_numbered_in_file(tmp_path, capsys, v):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(_a1_with_query_var(v)))
    assert cli.main(["simulate", "--alg", str(path), "--input", "011"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"query variable {v} out of range 1..3" in captured.err


def test_simulate_rejects_json_numbers_in_exact_mode(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 2, "n": 1, "layers": [
        {"unitary": [[1.0, 0], [0, 1]]}], "outputs": [0, 1]}))
    code, doc = run(capsys, "simulate", "--alg", str(path), "--input", "0")
    assert code == 2
    assert doc is None


def _hadamard_test(tmp_path, entry):
    """H, a sign query on x1 for amplitude 0, H: the outcome is x1."""
    h = {"unitary": [[entry, entry], [entry, "-" + entry]]}
    path = tmp_path / "hadamard.json"
    path.write_text(json.dumps(
        {"dim": 2, "n": 1, "layers": [h, {"query": [1, None]}, h], "outputs": [0, 1]}))
    return str(path)


@pytest.mark.parametrize("bit", ["0", "1"])
def test_simulate_float_reads_decimal_entries(tmp_path, capsys, bit):
    path = _hadamard_test(tmp_path, "0.7071067811865476")
    code, doc = run(capsys, "simulate", "--alg", path, "--input", bit, "--float", "--trace")
    assert code == 0
    assert doc["mode"] == "float"
    assert doc["outcome"] == int(bit)
    assert abs(doc["probabilities"][bit] - 1.0) < 1e-9
    assert len(doc["trace"]) == 3
    assert all(isinstance(a, float) for a in doc["trace"][0]["amplitudes"])


def test_simulate_exact_mode_refuses_decimal_hadamard(tmp_path, capsys):
    path = _hadamard_test(tmp_path, "0.7071067811865476")
    assert cli.main(["simulate", "--alg", path, "--input", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not exactly unitary" in captured.err


def test_simulate_float_refuses_coarse_decimals(tmp_path, capsys):
    path = _hadamard_test(tmp_path, "0.7071")
    assert cli.main(["simulate", "--alg", path, "--input", "0", "--float"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not unitary within 1e-09" in captured.err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "suite",
    ["table1", "table2", "a1", "a2", "relabel3", "relabel4", "compose", "example1"],
)
def test_verify_fast_suites_pass(capsys, suite):
    code, doc = run(capsys, "verify", "--suite", suite)
    assert code == 0
    assert doc["passed"] is True


def test_verify_parametric_suites(capsys):
    code, doc = run(capsys, "verify", "--suite", "lemma2:3")
    assert code == 0 and doc["passed"]
    code, doc = run(capsys, "verify", "--suite", "lemma3:3,1")
    assert code == 0 and doc["passed"]


def test_verify_reduced_counts(capsys):
    code, doc = run(capsys, "verify", "--suite", "lemma1", "--count", "50")
    assert code == 0 and doc["passed"]
    code, doc = run(capsys, "verify", "--suite", "inequalities", "--count", "20")
    assert code == 0 and doc["passed"]


def test_verify_unknown_suite(capsys):
    code, _ = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2


@pytest.mark.parametrize(
    "suite, message",
    [
        ("lemma3:3,0", "t must be at least 1"),
        ("lemma2:11", "no truth table available for n=33"),
        ("lemma2:x", "expected lemma2:K with integer parameters"),
    ],
)
def test_verify_suite_parameter_errors_keep_their_message(capsys, suite, message):
    assert cli.main(["verify", "--suite", suite]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "unknown suite" not in captured.err


@pytest.mark.parametrize("suite", ["inequalities", "lemma1"])
@pytest.mark.parametrize("count", ["-5", "0"])
def test_verify_rejects_nonpositive_count(capsys, suite, count):
    assert cli.main(["verify", "--suite", suite, "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"count must be a positive integer, got {count}" in captured.err


@pytest.mark.parametrize(
    "argv, rejected",
    [
        (["--suite", "a1", "--count", "5"], "count"),
        (["--suite", "lemma2:3", "--count", "7", "--seed", "3"], "count or seed"),
        (["--suite", "table1", "--seed", "977"], "seed"),
        (["--suite", "lemma3:3,1", "--seed", "1"], "seed"),
    ],
)
def test_verify_fixed_suites_reject_count_and_seed(capsys, argv, rejected):
    assert cli.main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"suite {argv[1]}: takes no {rejected};")


def test_verify_sampled_suites_take_no_parameters(capsys):
    assert cli.main(["verify", "--suite", "lemma1:3"]) == 2
    assert "unknown suite: 'lemma1:3'" in capsys.readouterr().err


def test_verify_output_is_deterministic(capsys):
    _, first = run(capsys, "verify", "--suite", "inequalities", "--count", "10")
    _, second = run(capsys, "verify", "--suite", "inequalities", "--count", "10")
    assert first == second


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_f9_report(capsys):
    code, doc = run(capsys, "construct", "--family", "f9", "--emit", "report")
    assert code == 0
    assert doc["status"] == "confirmed"
    assert doc["computed_degree"] == 4


@pytest.mark.parametrize("family", ["f9", "f12", "f3k:5", "f3k:7"])
def test_construct_report_stdout_is_golden(capsys, family):
    golden = GOLDEN / f"construct-{family.replace(':', '-')}-report.json"
    assert cli.main(["construct", "--family", family, "--emit", "report"]) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        "verify --suite a1",
        "verify --suite compose",
        "verify --suite lemma2:3",
        "analyze builtin:F3",
        "analyze builtin:G4",
        "construct --family lemma3:3,1 --emit report",
        "construct --family f3k:15 --emit report",
        "construct --family lemma3:3,2 --emit report",
    ],
)
def test_stdout_is_golden(capsys, argv):
    # the golden file is named by the words that are not options
    name = "-".join(w for w in argv.split() if not w.startswith("--")).replace(":", "-")
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_construct_f9_table(capsys):
    code, doc = run(capsys, "construct", "--family", "f9", "--emit", "table")
    assert code == 0
    f = BooleanFunction.from_json_dict(doc)
    assert f.n == 9
    assert f.value_at(0) == 1


def test_construct_f12_poly(capsys):
    code, doc = run(capsys, "construct", "--family", "f12", "--emit", "poly")
    assert code == 0
    degrees = [bin(t["mask"]).count("1") for t in doc["terms"]]
    assert max(degrees) == 6


def test_construct_f45_report_confirmed(capsys):
    code, doc = run(capsys, "construct", "--family", "f3k:15", "--emit", "report")
    assert code == 0
    assert doc["computed_degree"] == 28
    assert doc["status"] == "confirmed"


def test_construct_structural_mode_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", "--family", "f3k:15", "--mode", "structural"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv", [["construct", "--family", "lemma3:3,6"], ["verify", "--suite", "lemma3:5,1000000000"]]
)
def test_lemma3_arity_cap_is_usage_error(capsys, argv):
    # lemma3:3,6 has 6561 variables; the cap is lemma3:15,4 (3645)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "triple iterations exceed the cap of n=3645 variables" in captured.err


def test_construct_unknown_family(capsys):
    code, _ = run(capsys, "construct", "--family", "f11")
    assert code == 2


def test_construct_out_of_range(capsys):
    code, _ = run(capsys, "construct", "--family", "f3k:2")
    assert code == 2


# ---------------------------------------------------------------------------
# fit-collapser
# ---------------------------------------------------------------------------

def test_fit_collapser_values(capsys):
    code, doc = run(capsys, "fit-collapser", "--values", "1,0,0,1")
    assert code == 0
    assert doc["degree"] == 2
    assert doc["polynomial"]["coeffs"] == [
        {"num": "1", "den": "1"},
        {"num": "-3", "den": "2"},
        {"num": "1", "den": "2"},
    ]


def test_fit_collapser_search(capsys):
    code, doc = run(capsys, "fit-collapser", "--k", "7")
    assert code == 0
    assert doc["values"] == [1, 0, 0, 0, 0, 0, 0, 1]
    assert doc["degree"] == 6


def test_fit_collapser_published_k7(capsys):
    code, doc = run(capsys, "fit-collapser", "--published-k7")
    assert code == 0
    rep = doc["transcription"]
    assert rep["maps_to_01"] is True
    assert rep["v0_ne_v1"] is False
    assert rep["values"] == ["0", "0", "0", "1", "1", "0", "0", "0"]


def test_fit_collapser_requires_an_input(capsys):
    code, _ = run(capsys, "fit-collapser")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--values", "1,0", "--k", "5"],
        ["--k", "5", "--published-k7"],
        ["--published-k7", "--values", "1,0,0,1"],
    ],
)
def test_fit_collapser_modes_are_exclusive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit-collapser", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


# ---------------------------------------------------------------------------
# environment knobs
# ---------------------------------------------------------------------------

def test_dcap_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("EXACTQUERY_DCAP", "2")
    code, doc = run(capsys, "analyze", "builtin:G4")
    assert code == 0
    assert doc["d_exact"] is None


def test_exact_cap_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("EXACTQUERY_EXACT_CAP", "8")  # not a knob: nothing reads it
    code, doc = run(capsys, "construct", "--family", "f9", "--emit", "report",
                    "--mode", "exact")
    assert code == 0  # exact degree of the 9-variable member: the variable caps nothing
    assert doc["computed_degree"] == 4
    code, doc = run(capsys, "construct", "--family", "f9", "--emit", "poly")
    assert code == 0 and doc["n"] == 9

    def no_table(self):
        raise AssertionError("table built before the interpolation cap check")

    monkeypatch.setattr(lowdeg.ConstructedFunction, "table", no_table)
    code, _ = run(capsys, "construct", "--family", "f3k:9", "--emit", "poly")
    assert code == 2  # 27 variables, over polynomial.INTERPOLATION_CAP


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_dcap_env_variable_rejects_bad_values(capsys, monkeypatch, value):
    monkeypatch.setenv("EXACTQUERY_DCAP", value)
    code = cli.main(["analyze", "builtin:F3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "EXACTQUERY_DCAP" in captured.err


def test_negative_dcap_flag_is_usage_error(capsys):
    code = cli.main(["analyze", "builtin:F3", "--dcap", "-3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--dcap" in captured.err


@pytest.mark.parametrize(
    "extra", [["--mod-p", "2147483659"], ["--mod-p", "1000000"], ["--mode", "mod-p"]]
)
def test_mod_p_options_are_usage_errors(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", "--family", "f9", *extra])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
