"""Command-line interface: exit codes, report schemas, determinism."""

import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mfatlas.cli
from mfatlas.cli import main, make_parser, render_report

ROOT = Path(__file__).resolve().parent.parent


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_nilpotent_descriptor(capsys):
    code, out, _ = _run(capsys, "build", "--n", "3", "--element", "n")
    assert code == 0
    d = json.loads(out)
    assert d["schema"] == "mf-atlas/1"
    assert d["b"] == 5 and d["degrees"] == [2, 3]
    assert len(d["components"]) == 5
    assert d["labels"] == [[1, 0], [2, 0], [1, 1], [2, 1], [2, 2]]


def test_build_sl2_matches_printed_form(capsys):
    code, out, _ = _run(capsys, "build", "--n", "2", "--element", "s", "--param", "1")
    assert code == 0
    d = json.loads(out)
    assert d["printed_components"] == ["x12*x21 + h1^2", "2*h1"]


def test_build_rejects_non_regular_matrix(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"n": 3, "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-2"]]}
    ))
    code, _, err = _run(capsys, "build", "--matrix", str(bad))
    assert code == 2
    assert "regular" in err


def test_build_accepts_regular_matrix_with_nilpotent_part(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(
        {"n": 3, "entries": [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "-2"]]}
    ))
    code, out, _ = _run(capsys, "build", "--matrix", str(ok))
    assert code == 0
    assert json.loads(out)["b"] == 5


def test_bad_param_and_bad_n(tmp_path, capsys):
    code, _, err = _run(capsys, "build", "--n", "1", "--element", "s")
    assert code == 2
    code, _, err = _run(capsys, "build", "--n", "2", "--element", "s", "--param", "x")
    assert code == 2
    code, _, err = _run(capsys, "verify", "--n", "2", "--element", "r")
    assert code == 2
    for argv in (
        ("check-examples", "--samples", "0"),
        ("verify", "--n", "3", "--samples", "-2"),
        ("build", "--n", "2", "--samples", "0"),
        ("count", "--n", "2", "--samples", "0"),
        ("atlas", "--n", "2", "--samples", "-1"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: invalid input: --samples must be at least 1\n"
    big = tmp_path / "sl5.json"
    big.write_text(json.dumps({"n": 5, "entries": [[str(i - 2) if i == j else "0"
                                                    for j in range(5)] for i in range(5)]}))
    for argv in (("build", "--n", "5"), ("verify", "--n", "9", "--element", "n"),
                 ("atlas", "--matrix", str(big)), ("count", "--n", "5", "--matrix", str(big))):
        code, out, err = _run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: invalid input: n must be at most 4\n")


def test_bad_numbers_exit_2(tmp_path, capsys):
    def matrix_file(name, entries):
        path = tmp_path / name
        path.write_text(json.dumps({"n": 2, "entries": entries}))
        return str(path)

    not_json = tmp_path / "table.txt"
    not_json.write_text("not json")
    huge_n = tmp_path / "huge-n.json"
    huge_n.write_text('{"n": 1e400, "entries": [["1", "0"], ["0", "-1"]]}')
    float_n = tmp_path / "float-n.json"
    float_n.write_text('{"n": 2.9, "entries": [["1", "0"], ["0", "-1"]]}')

    def iprime_file(name, value):
        path = tmp_path / name
        path.write_text('{"schema": "mf-iprime/1", "entries": '
                        f'[{{"n": 2, "partition": [1, 1], "value": {value}}}]}}')
        return str(path)
    for argv in (
        ("build", "--n", "2", "--element", "s", "--param", "1/0"),
        ("atlas", "--n", "3", "--element", "r", "--param", "2/0*i"),
        ("build", "--matrix", matrix_file("zero-den.json", [["1/0", "0"], ["0", "-1"]])),
        ("build", "--matrix", matrix_file("bare-number.json", [[1, "0"], ["0", "-1"]])),
        ("build", "--matrix", matrix_file("no-rows.json", [1, 2])),
        ("build", "--matrix", matrix_file("no-list.json", 5)),
        ("build", "--matrix", str(huge_n)),
        ("count", "--n", "2", "--iprime", str(tmp_path / "missing.json")),
        ("count", "--n", "2", "--iprime", str(not_json)),
        ("atlas", "--matrix", str(float_n)),
        ("count", "--n", "2", "--iprime", iprime_file("long-value.json", "1" * 5000)),
        ("count", "--n", "2", "--iprime", iprime_file("infinite-value.json", "Infinity")),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: invalid input: "), argv
        assert "Traceback" not in err


def test_malformed_json_shapes_exit_2(tmp_path, capsys):
    """A --matrix file or an --iprime table of the wrong JSON shape exits 2
    with a message that names the expected shape."""
    element = ('malformed element JSON: expected an object '
               '{"n": <integer>, "entries": <n rows of n number strings>}')
    table = ("malformed I' table: expected an object whose "
             '"entries" list holds rows '
             '{"n": <integer>, "partition": [<integers>]}, '
             'each with an optional integer "value" and "lower"')
    cases = [("build", "--matrix", text, element) for text in (
        '[]', '"x"', '{"entries": [["1", "0"], ["0", "-1"]]}', '{"n": 2}',
        '{"n": 2, "entries": 5}', '{"n": 2, "entries": [5, 6]}', '{"n": 2, "entries": ["10", "0-1"]}',
        '{"n": 2, "entries": [["1", "0"]]}', '{"n": true, "entries": [["1"]]}')]
    cases += [("count", "--iprime", text, table) for text in (
        '[1, 2]', '"x"', '{}', '{"entries": 5}', '{"entries": [5]}',
        '{"entries": [{"partition": [1, 1]}]}', '{"entries": [{"n": 2, "partition": 5}]}')]
    for k, (sub, flag, text, message) in enumerate(cases):
        path = tmp_path / f"shape-{k}.json"
        path.write_text(text)
        code, out, err = _run(capsys, sub, "--n", "2", flag, str(path))
        assert (code, out, err) == (2, "", f"error: invalid input: {message}\n"), text


def test_ignored_element_flags_exit_2(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"n": 3, "entries": [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "-2"]]}))
    for argv, message in (
        (("atlas", "--n", "3", "--element", "r", "--param", "1", "--param", "2"),
         "element r takes at most 1 parameter, got 2"),
        (("atlas", "--n", "3", "--element", "n", "--param", "5"), "element n takes no parameters"),
        (("atlas", "--matrix", str(m), "--element", "n", "--param", "5"),
         "--matrix takes no --element or --param"),
        (("build", "--matrix", str(m), "--element", "s"), "--matrix takes no --element or --param"),
        (("verify", "--matrix", str(m), "--param", "1"), "--matrix takes no --element or --param"),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: invalid input: {message}\n"), argv


def test_contradictory_iprime_entries_exit_2(tmp_path, capsys):
    for entry in (
        {"n": 3, "partition": [1, 1, 1], "value": -5},
        {"n": 3, "partition": [1, 1, 1], "lower": -1},
        {"n": 3, "partition": [1, 1, 1], "value": 2, "lower": 3},
    ):
        table = tmp_path / "t.json"
        table.write_text(json.dumps({"schema": "mf-iprime/1", "entries": [entry]}))
        code, out, err = _run(capsys, "count", "--n", "3", "--element", "s",
                              "--iprime", str(table))
        assert (code, out) == (2, ""), entry
        assert err.startswith("error: invalid input: malformed I' table"), entry


def test_atlas_with_a_large_power_of_two_param(capsys):
    # the characteristic polynomial t^2 - 2^12 has the roots ±64
    code, out, _ = _run(capsys, "atlas", "--n", "2", "--element", "s", "--param", "64")
    assert code == 0
    assert json.loads(out)["borel_count"] == 2


def test_atlas_with_a_param_of_many_divisor_pairs_below_the_bound(capsys):
    # t^2 - 10^18: 10^18 = (1 + i)^36 (2 + i)^18 (2 - i)^18 up to a unit
    code, out, _ = _run(capsys, "atlas", "--n", "2", "--element", "s",
                        "--param", "1000000000")
    assert code == 0
    assert json.loads(out)["borel_count"] == 2


def _exits_quickly(code, *argv, within=10):
    """Run mf in a separate process with a timeout, so a hang fails instead
    of blocking; it must exit with code within `within` seconds.  Returns
    stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "mfatlas.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30)
    assert time.monotonic() - start < within
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout, proc.stderr


def _atlas_quickly(*argv):
    """mf atlas in a separate process: exit 0 within 10 s and nothing on
    stderr.  Returns the report."""
    out, err = _exits_quickly(0, "atlas", *argv)
    assert err == ""
    return json.loads(out)


def test_atlas_with_a_large_prime_param_exits_0_quickly():
    # the eigenvalues ±1000000007 are a prime above 10^9 and its negative
    assert _atlas_quickly("--n", "2", "--element", "s", "--param", "1000000007")["borel_count"] == 2


def test_a_param_with_many_divisor_pairs_exits_0_quickly():
    # 999999999999 = 3^3 7 11 13 37 101 9901, so the leading coefficient
    # 999999999999^2 of the characteristic polynomial has 413343 Gaussian
    # divisors up to units
    argv = ("--n", "2", "--element", "s", "--param", "1/999999999999")
    assert _atlas_quickly(*argv)["borel_count"] == 2
    out, err = _exits_quickly(0, "verify", *argv)
    assert err == "" and json.loads(out)["passed"] is True


def test_a_param_of_98441_divisor_pairs_exits_0_quickly():
    # 281216000 = 2^10 5^3 13^3, so the trailing coefficient 281216000^2 of
    # the characteristic polynomial is (1 + i)^40 (2 ± i)^6 (3 ± 2i)^6 up to
    # a unit, with 41 * 7^4 = 98441 Gaussian divisors up to units
    assert _atlas_quickly("--n", "2", "--element", "s", "--param", "281216000")["borel_count"] == 2


def test_atlas_of_a_tall_diagonal_matrix_and_its_dense_conjugate(tmp_path):
    # every entry of diag(720720, 360360, -1081080) has many small prime
    # factors; U0 = (min(i, j) + 1) is unimodular, so U0 D U0^-1 is integral
    diagonal = (720720, 360360, -1081080)
    u0 = [[min(i, j) + 1 for j in range(3)] for i in range(3)]
    u0_inv = [[2, -1, 0], [-1, 2, -1], [0, -1, 1]]
    dense = [[sum(u0[i][k] * diagonal[k] * u0_inv[k][j] for k in range(3)) for j in range(3)]
             for i in range(3)]
    for name, entries in (("diag", [[diagonal[i] if i == j else 0 for j in range(3)]
                                    for i in range(3)]), ("dense", dense)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": 3, "entries": [[str(v) for v in row] for row in entries]}))
        report = _atlas_quickly("--matrix", str(path))
        assert (report["borel_count"], report["parabolic_count"]) == (6, 6), name


def test_oversized_numerals_exit_2_quickly(tmp_path):
    """A numeral whose numerator or denominator would have more than 100
    digits is refused, an exponent of either sign before its power is
    formed, through --param and --matrix alike."""
    digits = "has more than 100 digits in its numerator or denominator"
    for k, numeral in enumerate(("1e5000", "1E100000000", "1" * 101, "1e-100000000")):
        for sub in ("build", "atlas"):
            _, err = _exits_quickly(2, sub, "--n", "2", "--element", "s", "--param", numeral,
                                    within=2)
            assert err.startswith("error: invalid input: bad --param value: "), numeral
            assert digits in err, numeral
        path = tmp_path / f"oversized-{k}.json"
        path.write_text(json.dumps({"n": 2, "entries": [[numeral, "0"], ["0", "-" + numeral]]}))
        _, err = _exits_quickly(2, "build", "--matrix", str(path), within=2)
        assert err.startswith("error: invalid input: cannot read matrix file: "), numeral
        assert digits in err, numeral


def test_signed_exponents_parse(capsys):
    """A sign right after e or E belongs to the exponent: each --param
    builds the report of the fraction it names, but for config.param."""
    def report(param):
        code, out, err = _run(capsys, "build", "--n", "2", "--element", "s", f"--param={param}")
        assert (code, err) == (0, ""), param
        d = json.loads(out)
        assert d["config"].pop("param") == [param]
        return d

    for numeral, fraction in (("1e-5", "1/100000"), ("1e+5", "100000"), ("1.5e-3", "3/2000"),
                              ("1E-2", "1/100"), ("2-1e-1*i", "2-1/10*i")):
        assert report(numeral) == report(fraction), numeral


def test_numerals_past_the_int_string_limit_get_the_digit_bound_message(tmp_path):
    """A numeral int() would not read (a run of more than 4300 digits) is
    refused with the same 100-digit message as any other long numeral, not
    with the interpreter's own: as a --param, as a matrix entry, as a bare
    JSON number in a matrix file, for an entry or for n, and as an --iprime
    value.  The one-line message quotes the numeral by a short prefix and
    its length."""
    argvs = []
    for k, numeral in enumerate(("1" * 5000, "1/" + "1" * 5000, "0." + "0" * 5000 + "1")):
        path = tmp_path / f"long-{k}.json"
        path.write_text(json.dumps({"n": 2, "entries": [[numeral, "0"], ["0", "-" + numeral]]}))
        argvs += [("build", "--n", "2", "--element", "s", "--param", numeral),
                  ("build", "--matrix", str(path))]
    bare = "1" * 5000
    for k, text in enumerate((f'{{"n": 2, "entries": [[{bare}, "0"], ["0", "-1"]]}}',
                              f'{{"n": {bare}, "entries": [["1", "0"], ["0", "-1"]]}}')):
        path = tmp_path / f"bare-{k}.json"
        path.write_text(text)
        argvs.append(("build", "--matrix", str(path)))
    table = tmp_path / "long-value.json"
    table.write_text('{"schema": "mf-iprime/1", "entries": '
                     f'[{{"n": 2, "partition": [1, 1], "value": {bare}}}]}}')
    argvs.append(("count", "--n", "2", "--iprime", str(table)))
    for argv in argvs:
        _, err = _exits_quickly(2, *argv, within=2)
        assert "has more than 100 digits in its numerator or denominator" in err, argv[-1]
        assert "set_int_max_str_digits" not in err
        assert err.count("\n") == 1 and len(err) < 200, argv[-1]


def test_a_100_digit_param_builds():
    out, err = _exits_quickly(0, "build", "--n", "2", "--element", "s", "--param", "9" * 100)
    assert err == "" and json.loads(out)["shift"]["entries"][0][0] == "9" * 100


# Runs one subcommand in a fresh interpreter and prints, as the last stdout
# line, its exit code, the mfatlas modules it loaded, and which of the heavy
# standard modules dataclasses and inspect were loaded before mfatlas was
# imported and after the command ran.
_IMPORT_PROBE = """
import json, sys
heavy = ("dataclasses", "inspect")
bare = [m for m in heavy if m in sys.modules]
from mfatlas import cli
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "bare": bare, "heavy": [m for m in heavy if m in sys.modules],
                  "modules": sorted(m for m in sys.modules if m.startswith("mfatlas."))}))
"""


def _probe_imports(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["rc"] == 0
    return got


_CORE = {"cli", "errors", "lie", "linalg", "scalar"}
_BUILD = _CORE | {"mpoly", "mfsystem", "sampling"}
_BASE = _CORE | {"unipoly"}
_SYSTEM = _BUILD | {"unipoly"}
_LAYERS = {
    ("build", "--n", "4", "--element", "s"): _BUILD,
    ("atlas", "--n", "3"): _BASE | {"flags"},
    ("count", "--n", "3"): _BASE | {"flags", "count"},
    ("verify", "--n", "2"): _SYSTEM | {"flags", "components", "verify"},
    ("check-examples", "--samples", "1"): _SYSTEM | {"flags", "components", "verify",
                                                     "count", "corpus"},
}


def test_build_and_atlas_load_only_their_layers():
    """Every subcommand loads exactly its own layers: build neither unipoly
    nor components, atlas and count no polynomial code, count none of
    components, mfsystem or sampling; and no subcommand loads dataclasses or
    inspect."""
    for argv, layers in _LAYERS.items():
        got = _probe_imports(*argv)
        assert set(got["modules"]) == {f"mfatlas.{m}" for m in layers}, argv
        assert got["heavy"] == got["bare"], argv


def test_sl2_verify_passes_at_one_sample(capsys):
    for element in ("s", "n"):
        for seed in range(4):
            code, out, _ = _run(capsys, "verify", "--n", "2", "--element", element,
                                "--samples", "1", "--seed", str(seed))
            assert (code, json.loads(out)["passed"]) == (0, True), (element, seed)


def test_atlas_counts(capsys):
    for el, nb, np_ in (("s", 6, 6), ("r", 3, 4), ("n", 1, 2)):
        code, out, _ = _run(capsys, "atlas", "--n", "3", "--element", el)
        assert code == 0
        d = json.loads(out)
        assert (d["borel_count"], d["parabolic_count"]) == (nb, np_)
        assert len(d["borels"]) == nb and len(d["parabolics"]) == np_


def test_count_reports(capsys):
    code, out, _ = _run(capsys, "count", "--n", "2", "--element", "s")
    assert code == 0
    assert json.loads(out)["total"] == 2
    code, out, _ = _run(capsys, "count", "--n", "3", "--element", "s")
    d = json.loads(out)
    assert d["total"] is None and d["total_lower"] == 7
    assert d["formula"] == "I'(3,[1,1,1]) + 0 + 6"


def test_count_with_iprime_table(tmp_path, capsys):
    table = tmp_path / "t.json"
    table.write_text(json.dumps({
        "schema": "mf-iprime/1",
        "entries": [{"n": 3, "partition": [1, 1, 1], "value": 9, "lower": 9}],
    }))
    code, out, _ = _run(capsys, "count", "--n", "3", "--element", "s",
                        "--iprime", str(table))
    assert code == 0
    d = json.loads(out)
    assert d["total"] == 15


# sha256 of the count reports that mfbench/references.json does not reach
# (it holds count only on sl3 s and sl4 n); the files are written to the
# working directory under these names, so the config block is stable
COUNT_FILES = {
    # U0 J U0^-1 with J of Jordan type (2, 1, 1) and U0[i][j] = min(i, j) + 1
    "dense.json": {"n": 4, "entries": [["0", "3", "0", "-2"], ["-1", "5", "1", "-4"],
                                       ["-1", "5", "3", "-6"], ["-1", "5", "5", "-8"]]},
    "table.json": {"schema": "mf-iprime/1",
                   "entries": [{"n": 3, "partition": [1, 1, 1], "value": 1, "lower": 1},
                               {"n": 4, "partition": [1, 1, 1, 1], "lower": 2}]},
}
COUNT_DIGESTS = {
    "count --n 2 --element s": "0daeb78ac39bd3f43f3e3f1d316ccb405997aa3e0a459c0776c5d5e718970c52",
    "count --n 2 --element n": "789f6bd3a7c08dfbaac277fd21e4b371cb4fdd9090d3337025377b16fd5f0896",
    "count --n 3 --element r": "02329eba414cc28dafd1ac1c5103b2dc2e7eb753f931a081d7801c22ea5bfee9",
    "count --n 4 --element s": "7911ad8d75171193713a8c855cf495bed064ead0d2dd6c791387a6cd5b9265ec",
    "count --n 4 --element s --iprime table.json":
        "ace177bab9f837134acaf5c754d54650e05c0a46852554fee86a0ab7e7399625",
    "count --matrix dense.json": "e0cd1b7e3af979af11051608cc5769e007451cb65dd307f7ab855d956a23d347",
    "count --n 3 --element r --format csv":
        "c71af9741b7d40a366d35e500e29e50737000611a1ff4bfbf0514155f736802d",
}


def test_count_reports_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, data in COUNT_FILES.items():
        (tmp_path / name).write_text(json.dumps(data))
    got = {}
    for command in COUNT_DIGESTS:
        code, out, err = _run(capsys, *command.split())
        assert (code, err) == (0, ""), command
        got[command] = hashlib.sha256(out.encode()).hexdigest()
    assert got == COUNT_DIGESTS


# sha256 of "exit code, stdout, stderr" at 80 columns for the help texts and
# an unknown-flag usage error, recorded when make_parser still gave every
# subcommand its options on every run; the subcommand help digests were
# re-recorded when --samples came to name mf verify as its only reader
PARSER_DIGESTS = {
    "-h": "bf3a16beebe9344ad24276f8036a8a2a5305167e16703e40a408582a0686ba4f",
    "build -h": "88500649976643c36aa154c578807c2f5b4ae02eb5e7c68be87ae0cfc6a3d5bc",
    "verify -h": "0c357e00e43c56390358e699892c9a79f5b90749c45ba275386b62df4166d6cb",
    "count -h": "82c43847d4bfe0aa7b52c43f79fdc3e9c3491ee98a0eeb808cf39d23d7ca0162",
    "atlas -h": "60fa1b426c6a1216fe014e9429d331321031fca503371216ffb8f6511231f4d5",
    "check-examples -h": "b08dcf1202bdeb5c102ceab32b153c3f75cb1870bce6de727456b5064da98250",
    "build --bogus": "ff50c0114327b9cf4df712ee70b419a99e582c8e266d8d4aa89d1048ecc723d5",
}


def _exit_digest(capsys, run, argv):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return hashlib.sha256(f"{code}\n{out.out}\n{out.err}".encode()).hexdigest()


def test_help_and_usage_errors_are_pinned(monkeypatch, capsys):
    """main gives only the named subcommand its options; its help and usage
    errors match the parser that builds every subcommand's options."""
    monkeypatch.setenv("COLUMNS", "80")
    got, full = {}, {}
    for command in PARSER_DIGESTS:
        argv = command.split()
        got[command] = _exit_digest(capsys, main, argv)
        full[command] = _exit_digest(capsys, make_parser().parse_args, argv)
    assert got == full == PARSER_DIGESTS


def test_verify_small_suite(capsys):
    code, out, _ = _run(capsys, "verify", "--n", "2", "--element", "s",
                        "--samples", "5", "--seed", "1")
    assert code == 0
    d = json.loads(out)
    assert d["passed"] is True
    names = {c["name"] for c in d["checks"]}
    assert "poisson-commutativity" in names
    assert "tarasov-section" in names


def test_reports_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = _run(capsys, "verify", "--n", "2", "--element", "n",
                          "--samples", "6", "--seed", "42", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_format(capsys):
    code, out, _ = _run(capsys, "verify", "--n", "2", "--element", "s",
                        "--samples", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,passed,detail"
    assert any(line.startswith("poisson-commutativity,True") for line in lines)
    code, out, _ = _run(capsys, "atlas", "--n", "2", "--element", "s",
                        "--format", "csv")
    assert out.splitlines()[0] == "key,value"


def test_out_file_written_atomically(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, "build", "--n", "2", "--element", "n",
                        "--out", str(target))
    assert code == 0
    assert out == ""
    d = json.loads(target.read_text())
    assert d["schema"] == "mf-atlas/1"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".mf-")]
    assert not leftovers


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = _run(capsys, "build", "--n", "2", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid input: cannot write report: ")
        assert "Traceback" not in err
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".mf-report-")]


def _buffered_env():
    """The environment of a fresh mf process with src importable and
    PYTHONUNBUFFERED removed, so its stdout is block-buffered and only a
    flush puts the report on the file."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_unwritable_stdout_exits_2():
    """A report that cannot reach stdout exits 2 with the message of an
    unwritable --out, not with the interpreter's shut-down complaint."""
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "mfatlas.cli", "build", "--n", "2"],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=_buffered_env(), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: invalid input: cannot write report: "), proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "Exception ignored" not in proc.stderr and "Traceback" not in proc.stderr


# one argv per way a process ends: exit 0 (JSON and CSV), 1 and 2, argparse's
# help and usage error, and a report written to --out
_EXIT_ARGVS = (
    ("build",),
    ("atlas", "--n", "4", "--element", "s"),
    ("count",),
    ("check-examples", "--self-test"),
    ("atlas", "--n", "3", "--format", "csv"),
    ("verify", "--n", "3", "--element", "s", "--samples", "1", "--seed", "0"),
    ("build", "--n", "2", "--param", "x"),
    ("build", "--matrix", "missing.json"),
    ("--help",),
    ("build", "--bogus"),
    ("build", "--n", "2", "--element", "n", "--out", "report.json"),
)


def test_process_exit_matches_main(tmp_path, monkeypatch, capsys):
    """python -m mfatlas.cli, which ends through run, gives the bytes and
    exit code of main called in process: on stdout, on stderr and in the
    --out file."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    report = tmp_path / "report.json"
    codes = set()
    for argv in _EXIT_ARGVS:
        proc = subprocess.run([sys.executable, "-m", "mfatlas.cli", *argv], capture_output=True,
                              env=_buffered_env(), timeout=120)
        process = (proc.returncode, proc.stdout, proc.stderr,
                   report.read_bytes() if report.exists() else None)
        report.unlink(missing_ok=True)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        in_process = (code, out.out.encode(), out.err.encode(),
                      report.read_bytes() if report.exists() else None)
        report.unlink(missing_ok=True)
        assert process == in_process, argv
        codes.add(code)
    assert codes == {0, 1, 2}


def test_importing_mfatlas_registers_no_atexit_callback():
    """run ends the process with os._exit, which runs no atexit callback, so
    no mfatlas module may register one."""
    probe = ("import atexit, importlib, pkgutil, mfatlas; before = atexit._ncallbacks(); "
             "names = [m.name for m in pkgutil.iter_modules(mfatlas.__path__, 'mfatlas.')]; "
             "[importlib.import_module(name) for name in names]; "
             "print(len(names), before, atexit._ncallbacks())")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_buffered_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    count, before, after = map(int, proc.stdout.split())
    assert count == len(list((ROOT / "src" / "mfatlas").glob("[!_]*.py")))
    assert after == before


def test_console_script_is_the_main_block_entry():
    """The mf console script names the function cli's __main__ block calls."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["mf"]
    module, _, name = target.partition(":")
    assert module == mfatlas.cli.__name__
    (block,) = [node for node in ast.parse(Path(mfatlas.cli.__file__).read_text()).body
                if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(statement) for statement in block.body] == [f"{name}()"]
    assert getattr(mfatlas.cli, name) is mfatlas.cli.run


def test_check_examples_fast_subset(capsys):
    code, out, _ = _run(capsys, "check-examples", "--samples", "5")
    assert code == 0
    d = json.loads(out)
    assert d["passed"] is True and len(d["checks"]) >= 15


def test_render_report_csv_quoting():
    text = render_report(
        {"checks": [{"name": "x", "passed": True, "detail": 'a,b "q"'}]}, "csv"
    )
    lines = text.splitlines()
    assert lines[0] == "name,passed,detail"
    assert "a,b" in lines[1]
