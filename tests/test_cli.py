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


def _hadamard(entry):
    """H, a sign query on x1 for amplitude 0, H: the outcome is x1."""
    h = {"unitary": [[entry, entry], [entry, "-" + entry]]}
    return {"dim": 2, "n": 1, "layers": [h, {"query": [1, None]}, h], "outputs": [0, 1]}


@pytest.mark.parametrize("bit", ["0", "1"])
def test_simulate_float_reads_decimal_entries(tmp_path, capsys, bit):
    path = tmp_path / "hadamard.json"
    path.write_text(json.dumps(_hadamard("0.7071067811865476")))
    code, doc = run(capsys, "simulate", "--alg", str(path), "--input", bit, "--float", "--trace")
    assert code == 0
    assert doc["mode"] == "float"
    assert doc["outcome"] == int(bit)
    assert abs(doc["probabilities"][bit] - 1.0) < 1e-9
    assert len(doc["trace"]) == 3
    assert all(isinstance(a, float) for a in doc["trace"][0]["amplitudes"])


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
        "analyze tests/golden/table-random10.json",
        "analyze tests/golden/table-declist10.json",
        "construct --family lemma3:3,1 --emit report",
        "construct --family f3k:15 --emit report",
        "construct --family lemma3:3,2 --emit report",
        "construct --family f3k:5 --emit table",  # interleaved triangle blocks: a real transpose
        "construct --family f12 --emit table",
    ],
)
def test_stdout_is_golden(capsys, monkeypatch, argv):
    # the golden file is named by the words that are not options, a file by its stem
    name = "-".join(Path(w).stem for w in argv.split() if not w.startswith("--")).replace(":", "-")
    monkeypatch.chdir(GOLDEN.parents[1])
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


# ---------------------------------------------------------------------------
# environment: no variable is read
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# usage errors: every one exits 2 with a message and prints nothing on stdout
# ---------------------------------------------------------------------------

A1 = qsim.algorithm_to_json_dict(qsim.a1())


def _a1_with_query_var(v):
    data = qsim.algorithm_to_json_dict(qsim.a1())
    data["layers"][1]["query"][0] = v  # x1 in a1's first query
    return data


def _one_layer(layer):
    return {"dim": 2, "n": 1, "layers": [layer], "outputs": [0, 1]}


def usage_error(tmp_path, capsys, argv, message, payload=None, code=2):
    """Run argv (a str is split on spaces; "FILE" is the payload's path, and a
    str payload is written as is, anything else as JSON), check the exit code,
    empty stdout and a substring of stderr, and return stderr. A returned code
    and argparse's own SystemExit count alike."""
    argv = argv.split() if isinstance(argv, str) else list(argv)
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        argv = [str(path) if word == "FILE" else word for word in argv]
    try:
        returned = cli.main(argv)
    except SystemExit as exc:
        returned = exc.code
    captured = capsys.readouterr()
    assert (returned, captured.out) == (code, "")
    assert message in captured.err
    return captured.err


ANALYZE_FILE = "analyze FILE"
SIMULATE_FILE = "simulate --alg FILE --input 011"
BUILTINS = "builtins are F3, G4, table1:1..8, table2:1..8"


def test_analyze_malformed_file(tmp_path, capsys):
    usage_error(tmp_path, capsys, ANALYZE_FILE, "cannot load function", "{not json")


def test_analyze_rejects_nonzero_padding(tmp_path, capsys):
    usage_error(tmp_path, capsys, ANALYZE_FILE, "padding bits after the truth table must be zero",
                {"n": 2, "table_hex": "1f"})


def test_analyze_depth_over_max_dcap_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(boolfn, "MAX_DCAP", 3)
    usage_error(tmp_path, capsys, "analyze builtin:G4 --dcap 20",
                "exact depth needs 3**n states; capped at n=3, got n=4")


def test_analyze_unknown_builtin(tmp_path, capsys):
    usage_error(tmp_path, capsys, "analyze builtin:F5", f"unknown builtin function 'F5'; {BUILTINS}")


@pytest.mark.parametrize("n", ["3", True, 3.0])
def test_analyze_rejects_non_integer_n(tmp_path, capsys, n):
    usage_error(tmp_path, capsys, ANALYZE_FILE, "n must be an integer", {"n": n, "table_hex": "00"})


@pytest.mark.parametrize("spec", ["builtin:nope", "table1:9", "builtin:table2:0"])
def test_analyze_unknown_builtin_names_valid_builtins(tmp_path, capsys, spec):
    err = usage_error(tmp_path, capsys, f"analyze {spec}",
                      f"unknown builtin function {spec.removeprefix('builtin:')!r}; {BUILTINS}")
    assert "Errno" not in err


def test_negative_dcap_flag_is_usage_error(tmp_path, capsys):
    usage_error(tmp_path, capsys, "analyze builtin:F3 --dcap -3",
                "argument --dcap: '-3' is not a nonnegative integer")


def test_simulate_arity_mismatch(tmp_path, capsys):
    usage_error(tmp_path, capsys, "simulate --alg builtin:a1 --input 00",
                "input has 2 bits, function takes 3")


def test_simulate_rejects_bad_file(tmp_path, capsys):
    usage_error(tmp_path, capsys, "simulate --alg FILE --input 0", "not exactly unitary",
                _one_layer({"unitary": [["1", "1"], ["1", "1"]]}))


@pytest.mark.parametrize(
    "data",
    [
        {**A1, "n": 3.7},
        {**A1, "n": "3"},
        {**A1, "outputs": "0001"},
        {**A1, "outputs": [False, False, False, True]},
        _a1_with_query_var(1.9),
        _a1_with_query_var("1"),
    ],
    ids=["n-float", "n-string", "outputs-string", "outputs-bools", "var-float", "var-string"],
)
def test_simulate_rejects_non_integer_algorithm_fields(tmp_path, capsys, data):
    usage_error(tmp_path, capsys, SIMULATE_FILE, "malformed algorithm JSON", data)


def test_simulate_rejects_zero_dimensional_algorithm(tmp_path, capsys):
    usage_error(tmp_path, capsys, SIMULATE_FILE, "dim must be at least 1, got 0",
                {"dim": 0, "n": 3, "layers": [], "outputs": []})


@pytest.mark.parametrize("n", [0, -2])
def test_simulate_rejects_algorithm_without_variables(tmp_path, capsys, n):
    usage_error(tmp_path, capsys, "simulate --alg FILE --input=", f"n must be at least 1, got {n}",
                {"dim": 1, "n": n, "layers": [], "outputs": [1]})


@pytest.mark.parametrize("v", [0, 4])
def test_simulate_names_query_variable_as_numbered_in_file(tmp_path, capsys, v):
    usage_error(tmp_path, capsys, SIMULATE_FILE, f"query variable {v} out of range 1..3",
                _a1_with_query_var(v))


def test_simulate_rejects_json_numbers_in_exact_mode(tmp_path, capsys):
    usage_error(tmp_path, capsys, "simulate --alg FILE --input 0",
                'exact scalars must be JSON strings such as "1/2 r2"',
                _one_layer({"unitary": [[1.0, 0], [0, 1]]}))


def test_simulate_exact_mode_refuses_decimal_hadamard(tmp_path, capsys):
    usage_error(tmp_path, capsys, "simulate --alg FILE --input 0", "not exactly unitary",
                _hadamard("0.7071067811865476"))


def test_simulate_float_refuses_coarse_decimals(tmp_path, capsys):
    usage_error(tmp_path, capsys, "simulate --alg FILE --input 0 --float",
                "not unitary within 1e-09", _hadamard("0.7071"))


def test_verify_unknown_suite(tmp_path, capsys):
    usage_error(tmp_path, capsys, "verify --suite nonsense", "unknown suite: 'nonsense'; suites are")


@pytest.mark.parametrize(
    "suite, message",
    [
        ("lemma3:3,0", "t must be at least 1"),
        ("lemma2:11", "no truth table available for n=33"),
        ("lemma2:x", "expected lemma2:K with integer parameters"),
    ],
)
def test_verify_suite_parameter_errors_keep_their_message(tmp_path, capsys, suite, message):
    err = usage_error(tmp_path, capsys, f"verify --suite {suite}", f"suite {suite}: {message}")
    assert "unknown suite" not in err


@pytest.mark.parametrize("suite", ["inequalities", "lemma1"])
@pytest.mark.parametrize("count", ["-5", "0"])
def test_verify_rejects_nonpositive_count(tmp_path, capsys, suite, count):
    usage_error(tmp_path, capsys, f"verify --suite {suite} --count {count}",
                f"suite {suite}: count must be a positive integer, got {count}")


@pytest.mark.parametrize(
    "argv, rejected",
    [
        (["--suite", "a1", "--count", "5"], "count"),
        (["--suite", "lemma2:3", "--count", "7", "--seed", "3"], "count or seed"),
        (["--suite", "table1", "--seed", "977"], "seed"),
        (["--suite", "lemma3:3,1", "--seed", "1"], "seed"),
    ],
)
def test_verify_fixed_suites_reject_count_and_seed(tmp_path, capsys, argv, rejected):
    err = usage_error(tmp_path, capsys, ["verify", *argv], f"suite {argv[1]}: takes no {rejected};")
    assert err.startswith(f"suite {argv[1]}: takes no {rejected};")


def test_verify_sampled_suites_take_no_parameters(tmp_path, capsys):
    usage_error(tmp_path, capsys, "verify --suite lemma1:3", "unknown suite: 'lemma1:3'")


def test_construct_unknown_family(tmp_path, capsys):
    usage_error(tmp_path, capsys, "construct --family f11", "unknown family 'f11'")


def test_construct_out_of_range(tmp_path, capsys):
    usage_error(tmp_path, capsys, "construct --family f3k:2", "k must be odd and in 3..15, got 2")


def test_construct_structural_mode_is_usage_error(tmp_path, capsys):
    usage_error(tmp_path, capsys, "construct --family f3k:15 --mode structural",
                "invalid choice: 'structural'")


@pytest.mark.parametrize(
    "argv", [["construct", "--family", "lemma3:3,6"], ["verify", "--suite", "lemma3:5,1000000000"]]
)
def test_lemma3_arity_cap_is_usage_error(tmp_path, capsys, argv):
    # lemma3:3,6 has 6561 variables; the cap is lemma3:15,4 (3645)
    usage_error(tmp_path, capsys, argv, "triple iterations exceed the cap of n=3645 variables")


@pytest.mark.parametrize(
    "extra", [["--mod-p", "2147483659"], ["--mod-p", "1000000"], ["--mode", "mod-p"]]
)
def test_mod_p_options_are_usage_errors(tmp_path, capsys, extra):
    message = "invalid choice: 'mod-p'" if extra[0] == "--mode" else f"unrecognized arguments: {' '.join(extra)}"
    usage_error(tmp_path, capsys, ["construct", "--family", "f9", *extra], message)


def test_fit_collapser_requires_an_input(tmp_path, capsys):
    usage_error(tmp_path, capsys, "fit-collapser",
                "one of the arguments --values --k --published-k7 is required")


@pytest.mark.parametrize(
    "argv",
    [
        ["--values", "1,0", "--k", "5"],
        ["--k", "5", "--published-k7"],
        ["--published-k7", "--values", "1,0,0,1"],
    ],
)
def test_fit_collapser_modes_are_exclusive(tmp_path, capsys, argv):
    usage_error(tmp_path, capsys, ["fit-collapser", *argv], "not allowed with argument")


def usage(name, argv, message, payload=None, code=2):
    """A row of usage_error's arguments."""
    return pytest.param(argv, message, payload, code, id=name)


USAGE_ERRORS = [
    usage("analyze-depth-over-max-dcap", "analyze FILE --dcap 18",
          "exact depth needs 3**n states; capped at n=17, got n=18",
          {"n": 18, "table_hex": "00" * (1 << 15)}),
    usage("analyze-dcap-abc", "analyze builtin:F3 --dcap abc",
          "argument --dcap: 'abc' is not a nonnegative integer"),
    *(usage(f"simulate-zero-denominator-{kind}", "simulate --alg FILE --input 0",
            f"cannot parse exact scalar {entry!r}",
            _one_layer({"unitary": [[entry, "0"], ["0", "1"]]}))
      for kind, entry in (("rational", "1/0"), ("root", "1 + 1/0 r2"))),
    usage("simulate-unitary-and-query-layer", "simulate --alg FILE --input 0",
          "layer must be 'unitary' or 'query'",
          _one_layer({"unitary": [["1", "0"], ["0", "1"]], "query": [1, None]})),
    *(usage(f"simulate-unitary-{kind}", "simulate --alg FILE --input 0",
            "malformed algorithm JSON: layer 1: unitary must be a list of rows, each a list of strings",
            _one_layer({"unitary": rows}))
      for kind, rows in (("string-rows", ["10", "01"]), ("string", "10"))),
    usage("simulate-layer-not-object", "simulate --alg FILE --input 0",
          "malformed algorithm JSON: layers must be a list of objects; layer 1 is 5",
          {"dim": 2, "n": 1, "layers": [5], "outputs": [0, 1]}),
    usage("simulate-layers-not-list", "simulate --alg FILE --input 0",
          "malformed algorithm JSON: layers must be a list of objects, got 5",
          {"dim": 2, "n": 1, "layers": 5, "outputs": [0, 1]}),
    usage("simulate-query-not-list", "simulate --alg FILE --input 0",
          "malformed algorithm JSON: layer 1: query must be a list of integers or null, got 3",
          _one_layer({"query": 3})),
    *(usage(f"construct-malformed-{spec}", f"construct --family {spec}",
            f"expected {family} with integer parameters")
      for spec, family in (("f3k:abc", "f3k:K"), ("lemma3:3", "lemma3:K,T"),
                           ("lemma3:3,1,2", "lemma3:K,T"))),
    usage("construct-poly-over-cap", "construct --family f3k:9 --emit poly",
          "polynomial emission capped at n=24; n=27"),
    *(usage(f"construct-mode-{mode}-emit-{emit}", f"construct --family f9 --mode {mode} --emit {emit}",
            f"--mode {mode} applies only to --emit report")
      for mode, emit in (("exact", "table"), ("composition", "poly"))),
    usage("fit-collapser-even-k", "fit-collapser --k 4", "k must be odd and in 3..15, got 4"),
    usage("fit-collapser-one-value", "fit-collapser --values 1", "need at least two sample values"),
    *(usage(f"fit-collapser-values-{name}", ["fit-collapser", "--values", values],
            f"argument --values: {values!r} is not a comma-separated list of integers")
      for name, values in (("1,x", "1,x"), ("empty", ""))),
]


@pytest.mark.parametrize("argv, message, payload, code", USAGE_ERRORS)
def test_usage_error(tmp_path, capsys, argv, message, payload, code):
    usage_error(tmp_path, capsys, argv, message, payload, code)
