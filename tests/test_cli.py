"""Command-line surface: JSON output, exit codes, determinism."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from exactquery import boolfn, cli, compose, lowdeg, polynomial, qsim
from exactquery.boolfn import BooleanFunction


# CLI stdout, byte for byte (`construct` reports, tables and polynomials, `verify` and `analyze`)
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return code, doc


def test_import_starts_no_thread():
    # the degree kernel starts its threads inside table_degree; loading the
    # CLI starts none and imports no executor
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, threading, exactquery.cli; "
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out == "1 False\n"


def test_bare_import_loads_no_module_and_no_numpy():
    # each name is imported from its module; the package itself binds none of them
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, exactquery; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('exactquery.')))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


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


def test_analyze_builtin_names_are_case_insensitive(capsys):
    def stdout(name):
        assert cli.main(["analyze", f"builtin:{name}"]) == 0
        return capsys.readouterr().out

    assert stdout("TABLE1:2") == stdout("table1:2")
    assert stdout("f3") == stdout("F3")


def test_analyze_builtin_g4(capsys):
    code, doc = run(capsys, "analyze", "builtin:G4")
    assert code == 0
    assert doc["d_exact"] == 4


def test_analyze_constant_from_file(tmp_path, capsys):
    path = tmp_path / "const0.json"
    path.write_text(json.dumps(BooleanFunction(3, [0] * 8).to_json_dict()))
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


def test_simulate_algorithm_from_file(capsys):
    code, doc = run(capsys, "simulate", "--alg", str(GOLDEN / "alg-a1.json"), "--input", "011")
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


def _flip_outputs(alg):
    return qsim.QueryAlgorithm(alg.dim, alg.n, alg.layers, [1 - o for o in alg.outputs])


@pytest.mark.parametrize(
    "module, name, doctor, argv",
    [
        pytest.param(qsim, "a1", _flip_outputs, "verify --suite a1", id="a1-flipped-labels"),
        pytest.param(boolfn, "deterministic_complexity", lambda d: d - 1, "verify --suite table2",
                     id="depth-one-low-table2"),
        pytest.param(polynomial, "table_degree", lambda d: d + 1, "verify --suite lemma2:3",
                     id="degree-one-high-lemma2"),
        pytest.param(polynomial, "table_degree", lambda d: d + 1, "construct --family f9 --emit report",
                     id="degree-one-high-f9-report"),
        pytest.param(qsim, "a2", _flip_outputs, "verify --suite a2", id="a2-flipped-labels"),
        *(pytest.param(boolfn, "deterministic_complexity", lambda d: d - 1, argv, id=f"depth-one-low-{key}")
          for key, argv in [
              ("table1", "verify --suite table1"),
              ("compose", "verify --suite compose"),
              ("inequalities", "verify --suite inequalities --count 20"),
          ]),
        *(pytest.param(qsim, "relabel_outputs", _flip_outputs, f"verify --suite {suite}",
                       id=f"relabel-flipped-labels-{suite}")
          for suite in ("relabel3", "relabel4")),
        *(pytest.param(polynomial, "table_degree", lambda d: d + 1, argv, id=f"degree-one-high-{key}")
          for key, argv in [
              ("example1", "verify --suite example1"),
              ("lemma3", "verify --suite lemma3:3,1"),
              ("f12-report", "construct --family f12 --emit report"),
              ("f3k5-report", "construct --family f3k:5 --emit report"),
              ("lemma3-composition-report", "construct --family lemma3:3,1 --mode composition --emit report"),
          ]),
        pytest.param(lowdeg, "connection_value", lambda v: v + 1, "verify --suite lemma1 --count 20",
                     id="connection-one-high-lemma1"),
        *(pytest.param(lowdeg, "witness_sensitivity", lambda s: s - 1, argv, id=f"witness-one-low-{key}")
          for key, argv in [
              ("lemma3", "verify --suite lemma3:3,1"),
              ("lemma3-report", "construct --family lemma3:3,2 --emit report"),
          ]),
        pytest.param(compose, "hybrid_evaluate", lambda r: (1 - r[0], r[1]), "verify --suite compose",
                     id="hybrid-value-flipped-compose"),
        pytest.param(compose, "hybrid_evaluate", lambda r: (r[0], r[1] + 1), "verify --suite compose",
                     id="hybrid-one-query-more-compose"),
    ],
)
def test_doctored_library_fails_the_verdict(monkeypatch, capsys, module, name, doctor, argv):
    # every verdict can fail: one library result doctored turns it to exit 1
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: doctor(real(*args, **kwargs)))
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 1
    assert doc.get("passed") is False or doc.get("status") == "refuted"
    assert "FAIL" in captured.err or "refuted" in captured.err


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
        # a1 relabelled onto all 16 complement-symmetric functions, a2 onto table2's 8
        "verify --suite relabel3",
        "verify --suite relabel4",
        "verify --suite table2",
        "verify --suite lemma2:3",
        "verify --suite lemma3:15,4",  # n = 3645, the largest member: one batched witness check
        "verify --suite lemma1",
        "verify --suite inequalities",
        "analyze builtin:F3",
        "analyze builtin:G4",
        "analyze tests/golden/table-random10.json",
        "analyze tests/golden/table-declist10.json",
        "analyze tests/golden/table-cosym9.json",  # the degree bound misses it, restrictions prove D = n
        "analyze tests/golden/table-mux9.json",  # depth 5 < n: the depth sweep runs
        # x1 ? parity(x8..x13) : AND(x2..x7), depth 7 in 3 sweeps of a 3**13 cube
        "analyze tests/golden/table-sel13.json --dcap 13",
        "construct --family lemma3:3,1 --emit report",
        "construct --family f3k:15 --emit report",
        "construct --family lemma3:3,2 --emit report",
        "construct --family f3k:5 --emit table",  # interleaved triangle blocks: a real transpose
        "construct --family f12 --emit table",
        "construct --family f9 --emit poly",  # 127 terms
        "construct --family f12 --emit poly",  # 217 terms
        "fit-collapser --k 7",  # the exact fit of the collapser that f3k:7 searches in integers
        "simulate --alg builtin:a1 --input 011 --trace",
        "simulate --alg builtin:a2 --input 0101 --trace --float",
        # rational and sqrt2 parts with different denominators: "2/3 - 1/6 r2";
        # the float run takes the other input, since option words do not name a golden
        "simulate --alg tests/golden/alg-nondyadic.json --input 1 --trace",
        "simulate --alg tests/golden/alg-nondyadic.json --input 0 --trace --float",
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


def test_construct_f3k5_poly_digest(capsys):
    # 9,031 terms, 622 KB: pinned by the sha256 of the stdout instead of a golden file
    assert cli.main(["construct", "--family", "f3k:5", "--emit", "poly"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "3c060db995f4205a474636f4937de409dba1185d9a03706abc4ff0f88745f8f6"


def test_emit_streams_a_large_document(capsys, monkeypatch):
    # 2**16 terms, 4.5 MB of output: one json.dumps string of it peaks at 45 MB
    terms = [{"mask": m, "num": str(m % 7 - 3), "den": "1"} for m in range(1 << 16)]
    doc = {"n": 21, "terms": terms}

    class Discard(io.TextIOBase):
        def write(self, text):
            return len(text)

    monkeypatch.setattr("sys.stdout", Discard())
    tracemalloc.start()
    try:
        cli._emit(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8_000_000
    monkeypatch.undo()
    cli._emit(doc)
    assert capsys.readouterr().out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


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

A1 = json.loads((GOLDEN / "alg-a1.json").read_text(encoding="utf-8"))


def _a1_with_query_var(v):
    data = json.loads((GOLDEN / "alg-a1.json").read_text(encoding="utf-8"))
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
        ("lemma3:3,-1", "t must be at least 1"),
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
    # every integer of outside input is ASCII -?[0-9]+, as suite parameters are
    *(usage(f"analyze-table1-index-{name}", ["analyze", f"builtin:table1:{index}"],
            f"unknown builtin function 'table1:{index}'; {BUILTINS}")
      for name, index in (("arabic-indic", "\u0662"), ("plus", "+2"), ("space", " 2"),
                          ("underscore", "0_2"))),
    usage("analyze-dcap-arabic-indic", ["analyze", "builtin:F3", "--dcap", "\u0663"],
          "argument --dcap: '\u0663' is not a nonnegative integer"),
    *(usage(f"verify-{option}-{name}", ["verify", "--suite", "lemma1", f"--{option}", value],
            f"argument --{option}: {value!r} is not an integer")
      for option in ("count", "seed")
      for name, value in (("space-underscore", " 1_0"), ("plus", "+1"), ("abc", "abc"))),
    usage("fit-collapser-k-plus", ["fit-collapser", "--k", "+7"],
          "argument --k: '+7' is not an integer"),
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
    # a trailing colon is not the plain suite
    *(usage(f"verify-trailing-colon-{suite}", f"verify --suite {suite}:",
            f"unknown suite: '{suite}:'; suites are")
      for suite in ("a1", "compose", "lemma1", "inequalities")),
    *(usage(f"construct-malformed-{spec}", f"construct --family {spec}",
            f"expected {family} with integer parameters")
      for spec, family in (("f3k:abc", "f3k:K"), ("lemma3:3", "lemma3:K,T"),
                           ("lemma3:3,1,2", "lemma3:K,T"))),
    # a parameter is ASCII -?[0-9]+: no sign, space, underscore or other script's digit
    *(usage(f"verify-parameter-{name}", ["verify", "--suite", f"lemma2:{param}"],
            f"suite lemma2:{param}: expected lemma2:K with integer parameters")
      for name, param in (("underscore", "0_3"), ("space", " 3"), ("plus", "+3"),
                          ("arabic-indic", "\u0663"))),
    # NAME matches a plain usage only without a colon, NAME:PARAMS with or without one
    *(usage(f"construct-family-{spec}", f"construct --family {spec}", message)
      for spec, message in (("f9:", "unknown family 'f9:'"), ("f12:3", "unknown family 'f12:3'"),
                            ("f3k", "expected f3k:K with integer parameters"))),
    *(usage(f"verify-suite-{suite}", f"verify --suite {suite}", f"suite {suite}: expected {form} with integer parameters")
      for suite, form in (("lemma2", "lemma2:K"), ("lemma3:3", "lemma3:K,T"))),
    *(usage(f"analyze-builtin-{name}", f"analyze builtin:{name}", f"unknown builtin function {name!r}; {BUILTINS}")
      for name in ("table1:2,3", "F3:", "table1")),
    usage("construct-parameter-arabic-indic", ["construct", "--family", "f3k:\u0665"],
          "expected f3k:K with integer parameters"),
    usage("construct-poly-over-cap", "construct --family f3k:9 --emit poly",
          "polynomial emission capped at n=24; n=27"),
    *(usage(f"construct-mode-{mode}-emit-{emit}", f"construct --family f9 --mode {mode} --emit {emit}",
            f"--mode {mode} applies only to --emit report")
      for mode, emit in (("exact", "table"), ("composition", "poly"))),
    usage("fit-collapser-even-k", "fit-collapser --k 4", "k must be odd and in 3..15, got 4"),
    usage("fit-collapser-one-value", "fit-collapser --values 1", "need at least two sample values"),
    # 800 values took 29.5 s and wrote 2.3 MB; 1600 failed after 416 s past int's 4300-digit limit
    usage("fit-collapser-65-values", ["fit-collapser", "--values", ",".join(["1", "0"] * 32 + ["1"])],
          "at most 64 sample values, got 65"),
    *(usage(f"fit-collapser-values-{name}", ["fit-collapser", "--values", values],
            f"argument --values: {values!r} is not a comma-separated list of integers")
      for name, values in (("1,x", "1,x"), ("empty", ""), ("plus-space-underscore", "+1, 0,0,1_0"))),
    # too deep for json.load (a RecursionError), or, where the interpreter's
    # limit is higher, not a table or algorithm: either way an input error
    *(usage(f"{argv.split()[0]}-nested-2000", argv, f"cannot load {kind} '", "[" * 2000)
      for argv, kind in ((ANALYZE_FILE, "function"), ("simulate --alg FILE --input 0", "algorithm"))),
    usage("analyze-nested-table-hex", ANALYZE_FILE, "cannot load function '",
          '{"n": 9, "table_hex": ' + "[" * 2000 + '"00"' + "]" * 2000 + "}"),
    # builtin:NAME is a builtin only, for algorithms as for functions
    usage("simulate-builtin-a3", "simulate --alg builtin:a3 --input 000",
          "unknown builtin algorithm 'a3'; builtins are a1, a2"),
    usage("simulate-a3-no-such-file", "simulate --alg a3 --input 000",
          "cannot load algorithm 'a3': no such file, and unknown builtin algorithm 'a3'"),
    usage("simulate-dim-over-max-dim", "simulate --alg FILE --input 0", "dim must be at most 64, got 65",
          {"dim": 65, "n": 1, "layers": [], "outputs": [0] * 65}),
    # an integer longer than any valid field is refused before int() reads it: past
    # 4300 digits int() refused with advice to call sys.set_int_max_str_digits(),
    # and below that the whole number was echoed in a message of about 4 KB
    usage("analyze-5000-digit-n", ANALYZE_FILE, "an integer of 5000 characters; at most 18",
          '{"n": ' + "9" * 5000 + ', "table_hex": "00"}'),
    usage("simulate-4000-digit-dim", "simulate --alg FILE --input 0",
          "an integer of 4000 characters; at most 18",
          '{"dim": ' + "9" * 4000 + ', "n": 1, "layers": [], "outputs": [0]}'),
    # a long echo keeps its head and tail: the whole of it was 5 KB of stderr
    usage("analyze-table1-5000-digit-index", ["analyze", "builtin:table1:" + "1" * 5000],
          f"unknown builtin function 'table1:{'1' * 50}...{'1' * 56}'; {BUILTINS}"),
    usage("verify-lemma2-5000-digit-parameter", ["verify", "--suite", "lemma2:" + "1" * 5000],
          f"suite lemma2:{'1' * 51}...{'1' * 57}: expected lemma2:K with integer parameters"),
    usage("simulate-5000-digit-input", ["simulate", "--alg", "builtin:a1", "--input", "2" * 5000],
          f"invalid bit string '{'2' * 57}...{'2' * 57}'"),
    usage("verify-count-5000-digits", ["verify", "--suite", "a1", "--count", "1" * 5000],
          f"argument --count: '{'1' * 21}...{'1' * 21}' is not an integer"),
    # an echo in a message that echoes it twice, or says much more around it,
    # is cut shorter: these wrote 292 and 252 characters
    usage("analyze-2000-character-spec", ["analyze", "a" * 2000],
          f"cannot load function '{'a' * 57}...{'a' * 56}': File name too long"),
    usage("verify-2000-character-suite", ["verify", "--suite", "x" * 2000],
          f"unknown suite: '{'x' * 21}...{'x' * 20}'; suites are a1, a2,"),
    # a quoted echo with spaces in it is cut too: each of these was 4-8 KB of stderr
    usage("simulate-spaced-input", ["simulate", "--alg", "builtin:a1", "--input", " ".join("2" * 2500)],
          f"invalid bit string '{' '.join('2' * 7)}...{' '.join('2' * 7)}'"),
    # a text holding ' is quoted with "
    usage("simulate-spaced-input-with-quote",
          ["simulate", "--alg", "builtin:a1", "--input", "' " + " ".join("2" * 2500)],
          f"invalid bit string \"' {' '.join('2' * 6)}...{' '.join('2' * 7)}\""),
    usage("analyze-spaced-spec", ["analyze", "a " * 2000],
          f"cannot load function '{' '.join('a' * 7)}...{' a' * 6} '"),
    usage("verify-spaced-suite", ["verify", "--suite", "x " * 2000],
          f"unknown suite: '{' '.join('x' * 7)}...{' x' * 6} '"),
    usage("construct-spaced-family", ["construct", "--family", "x " * 2000],
          f"unknown family '{' '.join('x' * 7)}...{' x' * 6} '"),
    # unitarity is checked as each layer is read, the query variables once all are read
    usage("simulate-bad-query-then-non-unitary", "simulate --alg FILE --input 0",
          "layer matrix is not exactly unitary",
          {"dim": 2, "n": 1, "layers": [{"query": [3, None]}, {"unitary": [["1", "1"], ["1", "1"]]}],
           "outputs": [0, 1]}),
]


@pytest.mark.parametrize("argv, message, payload, code", USAGE_ERRORS)
def test_usage_error(tmp_path, capsys, argv, message, payload, code):
    err = usage_error(tmp_path, capsys, argv, message, payload, code)
    # no message echoes a long input; argparse's own errors add its usage lines
    assert len(err.replace(str(tmp_path), "")) < 200 or "usage:" in err


def test_fit_collapser_refuses_4300_digit_values(tmp_path, capsys):
    # ten such values fitted, then failed in to_json_dict past int's 4300-digit
    # limit, with advice to call sys.set_int_max_str_digits()
    rng = random.Random(4300)
    values = ",".join(str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=4299)) for _ in range(10))
    err = usage_error(tmp_path, capsys, ["fit-collapser", "--values", values],
                      "is not a comma-separated list of integers")
    assert "set_int_max_str_digits" not in err


def test_simulate_refuses_over_cap_dim_before_parsing_a_layer(tmp_path, capsys, monkeypatch):
    # a dim-400 identity took 4 s to parse and 146 s to check for unitarity
    def no_parse(text):
        raise AssertionError("a layer entry was parsed")

    monkeypatch.setattr(qsim, "parse_scalar", no_parse)
    identity = [["1" if i == j else "0" for j in range(400)] for i in range(400)]
    usage_error(tmp_path, capsys, "simulate --alg FILE --input 0", "dim must be at most 64, got 400",
                {"dim": 400, "n": 1, "layers": [{"unitary": identity}] * 2, "outputs": [0] * 400})


@pytest.mark.parametrize("dim, rows, message", [
    # a 300x300 identity in a dim-4 file: its unitarity check alone is 27M products
    (4, [["1" if i == j else "0" for j in range(300)] for i in range(300)],
     "unitary layer dimension mismatch"),
    (2, [["1", "0"], ["1"]], "matrix must be square"),
])
def test_simulate_refuses_misshapen_layer_before_parsing_it(tmp_path, capsys, monkeypatch, dim, rows, message):
    def no_parse(text):
        raise AssertionError("a layer entry was parsed")

    monkeypatch.setattr(qsim, "parse_scalar", no_parse)
    usage_error(tmp_path, capsys, "simulate --alg FILE --input 0", message,
                {"dim": dim, "n": 1, "layers": [{"unitary": rows}], "outputs": [0] * dim})


# ---------------------------------------------------------------------------
# decoder fuzz: mutated golden tables and algorithms exit 0 or 2
# ---------------------------------------------------------------------------

FUZZ_SEED = 977
FUZZ_MUTANTS = 100
FUZZ_TABLES = sorted(GOLDEN.glob("table-*.json"))
FUZZ_ALGORITHM = GOLDEN / "alg-nondyadic.json"
_HOLE = "\x00hole"  # stands in for the mutated value until its text is spliced in


def _paths(value, path=()):
    """The path of every value in a decoded JSON document, starting with the root's, ()."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _paths(child, path + (key,))


def _splice(doc, path, text):
    """``doc`` as JSON with the value at ``path`` replaced by the JSON ``text``."""
    if not path:
        return text
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _HOLE
    return json.dumps(doc).replace(json.dumps(_HOLE), text)


def _mutant(rng, raw):
    """One mutation of the JSON bytes ``raw``: bit flips, a changed digit, a
    truncation, a type swap, a value wrapped in up to 2000 brackets, or an
    ``n``, ``dim`` or query variable of 400 to 5000 digits."""
    kind = rng.choice(("flip", "digit", "truncate", "swap", "nest", "huge"))
    out = bytearray(raw)
    if kind == "flip":
        for _ in range(rng.randint(1, 3)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        return bytes(out)
    if kind == "digit":  # often still a valid document: a table entry or an output label
        out[rng.choice([i for i, b in enumerate(raw) if chr(b).isdigit()])] = rng.choice(b"0123456789")
        return bytes(out)
    if kind == "truncate":
        return raw[:rng.randrange(len(raw))]
    doc = json.loads(raw)
    paths = list(_paths(doc))
    if kind == "huge":
        paths = [p for p in paths if p[-1:] in (("n",), ("dim",)) or (len(p) == 4 and p[2] == "query")]
        digits = rng.randint(400, 5000)
        text = rng.choice(("", "-")) + str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=digits - 1))
    path = rng.choice(paths)
    if kind == "swap":
        text = rng.choice((str(rng.randint(-2, 70)), "2.5", '"1"', '"00"', "[]", "[1, 0]", "{}",
                           "null", "true", "false"))
    elif kind == "nest":
        value = doc
        for key in path:
            value = value[key]
        depth = rng.randint(1, 2000)
        text = "[" * depth + json.dumps(value) + "]" * depth
    return _splice(doc, path, text).encode()


def test_mutated_files_exit_0_or_2(tmp_path, capsys):
    rng = random.Random(FUZZ_SEED)
    tables = [p.read_bytes() for p in FUZZ_TABLES]
    algorithm = FUZZ_ALGORITHM.read_bytes()
    path = tmp_path / "mutant.json"
    codes = set()
    for i in range(FUZZ_MUTANTS):
        # even mutants are of the algorithm, odd ones of a table
        mutant = _mutant(rng, rng.choice(tables) if i % 2 else algorithm)
        path.write_bytes(mutant)
        for argv in (["analyze", str(path)], ["simulate", "--alg", str(path), "--input", "1"]):
            where = f"mutant {i} of seed {FUZZ_SEED}, {argv[0]}: {mutant[:120]!r}"
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:
                pytest.fail(f"{where}: {type(exc).__name__} escaped main: {exc}"[:2000])
            out = capsys.readouterr().out
            codes.add(code)
            assert code in (0, 2), where
            if code == 2:
                assert out == "", where
            else:
                json.loads(out)
    assert codes == {0, 2}  # some mutants decode and run to the end
