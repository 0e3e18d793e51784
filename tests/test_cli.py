"""CLI behaviour: envelopes, golden files, exit codes, grids, plugins.

Every emitted document is validated against the shipped report_v1 schema.
"""
import argparse
import fcntl
import gc
import json
import os
import re
import signal
import struct
import subprocess
import sys
import termios
import time
from importlib import resources
from pathlib import Path

import pytest
from conftest import clear_process_caches, datum_to_dict
from jsonschema import Draft202012Validator

import blockatlas
from blockatlas import abelian, cli, langlands, rootdata
from blockatlas.errors import InvalidDatum, InvariantViolation
from blockatlas.rootdata import catalog

GOLDEN = Path(__file__).parent / "golden"

_VALIDATOR = Draft202012Validator(json.loads(
    resources.files("blockatlas").joinpath("report_v1.schema.json")
    .read_text(encoding="utf-8")))


# The console script's body: what a user's `blockatlas ARGS` runs.
_ENTRY = "import sys; from blockatlas.cli import main; sys.exit(main())"


def fresh_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(blockatlas.__file__).parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def check(out: str) -> dict:
    doc = json.loads(out)
    _VALIDATOR.validate(doc)
    return doc


# ----------------------------------------------------------------- envelope

def test_envelope_fields(capsys):
    code, out = run(capsys, "zsygmondy", "--q", "4", "--d", "3")
    doc = check(out)
    assert code == 0
    assert doc["schema"] == "report_v1"
    assert doc["engine"]["name"] == "blockatlas"
    assert doc["command"] == "zsygmondy"
    assert doc["inputs"] == {"q": 4, "d": 3}
    assert doc["seed"] is None
    assert doc["status"] == "ok"
    # 4 has order 3 mod 7
    assert doc["result"] == {"q": 4, "d": 3, "witness": 7, "exists": True}


def test_pretty_and_compact_agree(capsys):
    _, compact = run(capsys, "series", "--type", "B", "--rank", "2", "--d", "2")
    _, pretty = run(capsys, "series", "--type", "B", "--rank", "2", "--d", "2",
                    "--pretty")
    assert compact != pretty
    assert json.loads(compact) == json.loads(pretty)
    check(pretty)


@pytest.mark.parametrize("name,argv", [
    ("zsygmondy_2_6.json", ["zsygmondy", "--q", "2", "--d", "6"]),
    ("fusion_B2_q2_dmax4.json",
     ["fusion", "--type", "B", "--rank", "2", "--q", "2", "--dmax", "4",
      "--pretty"]),
    ("bijection_norm_one_ramified_p2.json",
     ["bijection", "--datum", "catalog:norm_one_ramified", "--p", "2"]),
    ("components_wild_plus_tame_rank2_p2.json",
     ["components", "--datum", "catalog:wild_plus_tame_rank2", "--p", "2"]),
    ("cornqs_wild_induced_rank2_p2.json",
     ["cornqs", "--datum", "catalog:wild_induced_rank2", "--p", "2"]),
    ("series_D4_d2.json", ["series", "--type", "D", "--rank", "4", "--d", "2"]),
    ("defect_bounds_2A5.json", ["defect-bounds", "--type", "2A", "--rank", "5"]),
    ("defect_bounds_D6.json", ["defect-bounds", "--type", "D", "--rank", "6"]),
    ("dseries_check_B4_D1_2.json",
     ["dseries-check", "--type", "B", "--rank", "4", "--D", "1,2"]),
])
def test_golden(capsys, name, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    check(out)
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


GRID_DATA = "catalog:wild_plus_tame_rank2, catalog:pgl3_split, su3.json, " \
            "catalog:gl2_inner_twist"


@pytest.mark.parametrize("command", ["bijection", "cornqs", "components"])
def test_grid_golden_across_primes(capsys, tmp_path, monkeypatch, command):
    """One grid per lattice command over a wild and a tame catalog entry, an
    inner twist and a datum file, each at p = 2, 3, 5; the file is named by
    a relative path so the report does not depend on the directory."""
    monkeypatch.chdir(tmp_path)
    Path("su3.json").write_text(
        json.dumps(datum_to_dict(catalog()["su3_unramified"].datum)),
        encoding="utf-8")
    Path("grid.cfg").write_text(
        f"command = {command}\ndata = {GRID_DATA}\nprimes = 2, 3, 5\n",
        encoding="utf-8")
    code, out = run(capsys, "grid", "--config", "grid.cfg", "--pretty")
    assert code == 0
    assert check(out)["result"]["counts"] == {"ok": 12, "error": 0}
    assert out == (GOLDEN / f"grid_{command}_p235.json").read_text(
        encoding="utf-8")


def test_grid_golden_fusion_all_families(capsys, tmp_path, monkeypatch):
    """All six classical families at ranks 1-5 and q = 2, 3, 4, rank 1 of D
    and 2D being error cells: pins the bytes of the closure's merge path."""
    monkeypatch.chdir(tmp_path)
    Path("grid.cfg").write_text(
        "command = fusion\nfamilies = A, 2A, B, C, D, 2D\nranks = 1-5\n"
        "qs = 2, 3, 4\n", encoding="utf-8")
    code, out = run(capsys, "grid", "--config", "grid.cfg")
    assert code == 0
    assert check(out)["result"]["counts"] == {"ok": 84, "error": 6}
    assert out == (GOLDEN / "grid_fusion_A-2D_r1-5_q234.json").read_text(
        encoding="utf-8")


def test_rerun_is_byte_identical(capsys):
    argv = ("fusion", "--type", "2A", "--rank", "3", "--q", "2")
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


# --------------------------------------------------------------- exit codes

def test_precondition_failures_exit_2(capsys):
    for argv, code_name in [
        (("blocks", "--type", "B", "--rank", "2", "--q", "2", "--ell", "2"),
         "BadPrimeHypothesis"),
        (("blocks", "--type", "B", "--rank", "2", "--q", "6", "--ell", "5"),
         "ValueError"),                      # q must be a prime power
        (("unipotent", "--type", "Z", "--rank", "3"), "ValueError"),
        (("unipotent", "--type", "G2", "--rank", "2"), "NotSupported"),
        (("zsygmondy", "--q", "1", "--d", "3"), "ValueError"),
        (("pi1", "--datum", "catalog:sl2_split", "--p", "4"), "ValueError"),
        (("bijection", "--datum", "catalog:not_a_name", "--p", "2"),
         "ParseError"),
        (("bijection", "--datum", "/nonexistent/datum.json", "--p", "2"),
         "FileNotFoundError"),
    ]:
        code, out = run(capsys, *argv)
        doc = check(out)
        assert code == 2, argv
        assert doc["status"] == "error"
        assert doc["error"]["code"] == code_name


@pytest.mark.parametrize("command", ["bijection", "pi1"])
def test_large_prime_p_finishes_quickly(capsys, command):
    start = time.perf_counter()
    code, out = run(capsys, command, "--datum", "catalog:pgl2_split",
                    "--p", "1000000007")
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert check(out)["status"] == "ok"


@pytest.mark.parametrize("command", ["bijection", "pi1", "cornqs", "components"])
def test_composite_p_report_is_frozen(capsys, command):
    code, out = run(capsys, command, "--datum", "catalog:pgl2_split",
                    "--p", "4")
    assert code == 2
    check(out)
    assert out == (
        '{"command":"%s","engine":{"name":"blockatlas","version":"0.1.0"},'
        '"error":{"code":"ValueError","message":"p = 4 is not prime"},'
        '"inputs":{"datum":"catalog:pgl2_split","p":4},"schema":"report_v1",'
        '"seed":null,"status":"error"}\n' % command)


def test_blocks_at_large_ell_finishes_quickly(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "blocks", "--type", "B", "--rank", "2", "--q", "2",
                    "--ell", "1000000007")
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert check(out)["result"]["context"]["d"] == 500000003


def test_type_a_at_huge_d_finishes_quickly(capsys):
    # every label of A2 is its own d-core once d exceeds 3, as at d = 4
    _, out = run(capsys, "series", "--type", "A", "--rank", "2", "--d", "4")
    singletons = check(out)["result"]["blocks"]
    assert [len(block["members"]) for block in singletons] == [1, 1, 1]
    for argv in (("series", "--type", "A", "--rank", "2",
                  "--d", "1000000000000"),
                 ("blocks", "--type", "A", "--rank", "2", "--q", "2",
                  "--ell", "1000000000039")):
        start = time.perf_counter()
        code, out = run(capsys, *argv)
        assert time.perf_counter() - start < 5.0, argv
        assert code == 0, argv
        assert check(out)["result"]["blocks"] == singletons, argv


@pytest.mark.parametrize("argv", [
    ["fusion", "--type", "A", "--rank", "1", "--q", "2305843009213693951"],
    ["bijection", "--datum", "catalog:sl2_split",
     "--p", "2305843009213693951"],
], ids=["fusion-q", "bijection-p"])
def test_a_61_bit_prime_finishes_quickly(argv):
    # 2**61 - 1 is prime: trial division to its square root never finished
    env = fresh_env()
    proc = subprocess.run([sys.executable, "-c", _ENTRY, *argv],
                          capture_output=True, text=True, env=env, timeout=5)
    assert proc.returncode in (0, 2), proc.stderr
    check(proc.stdout)


@pytest.mark.parametrize("d", [2**61 - 1, 2**63 - 1])
def test_zsygmondy_at_a_huge_d_fails_fast(d):
    # q**d is rejected from the bit lengths, before the power is computed
    env = fresh_env()
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY, "zsygmondy", "--q", "2", "--d", str(d)],
        capture_output=True, text=True, env=env, timeout=5)
    assert proc.returncode == 2, proc.stderr
    assert check(proc.stdout)["error"] == {
        "code": "BoundExceeded",
        "message": f"2**{d} exceeds the supported range"}


_DMAX_ERROR = {"code": "BoundExceeded",
               "message": "d_max 100000000 exceeds 62: every q**d with "
                          "d > 62 exceeds the supported range"}


def test_fusion_at_a_huge_dmax_fails_fast(tmp_path):
    # q**63 >= 2**63 for every q >= 2, so a d_max past 62 is rejected before
    # any witness search: a single command exits 2, a grid reports the error
    # in each cell
    env = fresh_env()
    cfg = write_cfg(tmp_path, "command = fusion\nfamilies = A\nranks = 2\n"
                              "qs = 2, 4\ndmax = 100000000\n")
    for argv, code in (
            (["fusion", "--type", "A", "--rank", "2", "--q", "4",
              "--dmax", "100000000"], 2),
            (["grid", "--config", cfg], 0)):
        proc = subprocess.run([sys.executable, "-c", _ENTRY, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=5)
        assert proc.returncode == code, proc.stderr
        doc = check(proc.stdout)
        if code:
            assert doc["error"] == _DMAX_ERROR
        else:
            assert [job["error"] for job in doc["result"]["jobs"]] == \
                [_DMAX_ERROR] * 2


_MR_LIMIT = "3317044064679887385961981"  # is_prime decides below this
_PRIMALITY_ERROR = {"code": "BoundExceeded",
                    "message": f"primality of {_MR_LIMIT} is decided only "
                               f"below {_MR_LIMIT}"}


def _power_error(power):
    return {"code": "BoundExceeded",
            "message": f"{power} exceeds the supported range"}


_PAST_BOUNDS = [
    # --rank: symbols up to rank 10, partitions up to size 30
    (["unipotent", "--type", "B", "--rank", "11"],
     {"code": "BoundExceeded",
      "message": "rank 11 exceeds the configured bound 10"}),
    (["fusion", "--type", "A", "--rank", "30", "--q", "2"],
     {"code": "BoundExceeded",
      "message": "partitions of 31 exceed the configured bound 30"}),
    # --q and --d: q**d at most 2**63 - 1
    (["zsygmondy", "--q", "2", "--d", "63"], _power_error("2**63")),
    (["zsygmondy", "--q", str(2**63), "--d", "1"],
     _power_error(f"{2**63}**1")),
    # --dmax: at most 62, and q**dmax under the same cap
    (["fusion", "--type", "A", "--rank", "2", "--q", "2", "--dmax", "63"],
     {"code": "BoundExceeded",
      "message": "d_max 63 exceeds 62: every q**d with d > 62 exceeds the "
                 "supported range"}),
    (["fusion", "--type", "A", "--rank", "2", "--q", "4", "--dmax", "32"],
     _power_error("4**32")),
    (["fusion", "--type", "A", "--rank", "2", "--q", "4", "--dmax", "40"],
     _power_error("4**32")),
    # --p and --ell: below the bound of is_prime
    (["bijection", "--datum", "catalog:sl2_split", "--p", _MR_LIMIT],
     _PRIMALITY_ERROR),
    (["blocks", "--type", "A", "--rank", "2", "--q", "2", "--ell", _MR_LIMIT],
     _PRIMALITY_ERROR),
]


@pytest.mark.parametrize("argv,error", _PAST_BOUNDS,
                         ids=[" ".join(argv) for argv, _ in _PAST_BOUNDS])
def test_one_past_each_documented_bound_fails_fast(argv, error):
    # README §CLI states these bounds.  A d_max past the power cap fails
    # before any witness search, which at q = 4 would first trial-divide
    # Phi_31(4)
    proc = subprocess.run([sys.executable, "-c", _ENTRY, *argv],
                          capture_output=True, text=True, env=fresh_env(),
                          timeout=5)
    assert proc.returncode == 2, proc.stderr
    assert check(proc.stdout)["error"] == error


def test_blocks_at_a_61_bit_ell_finishes_quickly():
    # ell - 1 = 2 * (2**60 - 1) has only primes below 1400, so the order of
    # 2 comes from its factorization, not from a walk over its divisors
    env = fresh_env()
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY, "blocks", "--type", "A", "--rank", "2",
         "--q", "2", "--ell", "2305843009213693951"],
        capture_output=True, text=True, env=env, timeout=5)
    assert proc.returncode == 0, proc.stderr
    result = check(proc.stdout)["result"]
    assert result["d"] == 61 and result["class_count"] == 3


def test_usage_error_is_structured(capsys):
    code, out = run(capsys, "fusion", "--type", "B")
    doc = check(out)
    assert code == 2
    assert doc["error"]["code"] == "UsageError"
    assert "--rank" in doc["error"]["message"]


def test_unknown_command_is_structured(capsys):
    code, out = run(capsys, "frobnicate")
    assert code == 2
    assert check(out)["error"]["code"] == "UsageError"


def _synthetic_defect(args):
    raise InvariantViolation("synthetic defect")


def _break_zsygmondy(monkeypatch):
    _handler, *parser_spec = cli._COMMANDS["zsygmondy"]
    monkeypatch.setitem(cli._COMMANDS, "zsygmondy",
                        (_synthetic_defect, *parser_spec))


def test_invariant_violation_exits_1(capsys, monkeypatch):
    _break_zsygmondy(monkeypatch)
    code, out = run(capsys, "zsygmondy", "--q", "2", "--d", "3")
    doc = check(out)
    assert code == 1
    assert doc["error"]["code"] == "InvariantViolation"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0


def test_help_pages_match_golden(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    pages = []
    for argv in [[]] + [[name] for name in cli._COMMANDS]:
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--help"])
        assert info.value.code == 0
        pages.append(f"$ {' '.join(['blockatlas', *argv, '--help'])}\n"
                     + capsys.readouterr().out)
    assert "\n".join(pages) == (GOLDEN / "help.txt").read_text(
        encoding="utf-8")


# A valid argv per subcommand.
_VALID_ARGV = {
    "unipotent": ["--type", "B", "--rank", "2"],
    "series": ["--type", "B", "--rank", "2", "--d", "2", "--pretty"],
    "blocks": ["--type", "A", "--rank", "3", "--q", "2", "--ell", "3"],
    "fusion": ["--type", "B", "--rank", "2", "--q", "3", "--dmax", "6",
               "--plugin", "x.json"],
    "dseries-check": ["--type", "D", "--rank", "4", "--D", "1,2", "4"],
    "defect-bounds": ["--type", "C", "--rank", "3"],
    "zsygmondy": ["--q", "4", "--d", "3"],
    "pi1": ["--datum", "catalog:pgl3_split"],
    "components": ["--datum", "catalog:pgl3_split", "--p", "3"],
    "bijection": ["--datum", "x.json", "--p", "2"],
    "cornqs": ["--datum", "catalog:pgl3_split", "--p", "5"],
    "grid": ["--config", "grid.cfg", "--pretty"],
}


def _subparsers(parser) -> dict:
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def _usage_message(parser, argv) -> str:
    with pytest.raises(cli._Usage) as info:
        parser.parse_args(argv)
    return str(info.value)


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_one_subparser_parses_as_the_full_parser(name):
    # the parser built for one subcommand holds it alone, with the help,
    # namespace and usage errors that the full parser gives it
    full, alone = cli.build_parser(), cli.build_parser(name)
    assert list(_subparsers(alone)) == [name]
    assert (_subparsers(alone)[name].format_help()
            == _subparsers(full)[name].format_help())
    argv = [name, *_VALID_ARGV[name]]
    assert alone.parse_args(argv) == full.parse_args(argv)
    # a missing required flag, an unknown flag or token, and a non-integer
    # --rank, --q or --p
    bad = [[name], [*argv, "--bogus"], [name, "extra", *argv[1:]]]
    bad += [argv[:argv.index(flag) + 1] + ["x"] + argv[argv.index(flag) + 2:]
            for flag in ("--rank", "--q", "--p") if flag in argv]
    for case in bad:
        assert _usage_message(alone, case) == _usage_message(full, case), case


@pytest.mark.parametrize("argv", [["-h"], ["--help"], [], ["frobnicate"],
                                  ["--pretty"], ["fusion", "-h"],
                                  ["zsygmondy", "--q", "x", "--d", "3"]],
                         ids=["h", "help", "empty", "unknown", "flag",
                              "sub-h", "sub-usage"])
def test_parser_built_for_each_argv(capsys, monkeypatch, argv):
    # the parent's help and errors list every subcommand, so only an argv
    # that starts with a subcommand builds that subparser alone; the bytes
    # are those of the full parser either way
    build, built = cli.build_parser, []

    def recording(command=None):
        parser = build(command)
        built.append(list(_subparsers(parser)))
        return parser

    monkeypatch.setattr(cli, "build_parser", recording)
    full = build()
    if "-h" in argv or "--help" in argv:
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 0
        target = _subparsers(full)[argv[0]] if len(argv) > 1 else full
        assert capsys.readouterr().out == target.format_help()
    else:
        assert cli.main(argv) == 2
        error = check(capsys.readouterr().out)["error"]
        assert error["code"] == "UsageError"
        assert error["message"] == _usage_message(full, argv)
    subcommand = argv[:1] if argv[:1] and argv[0] in cli._COMMANDS else None
    assert built == [subcommand or list(cli._COMMANDS)]


# The console script's body.  The invoked command's handler (or, with
# BROKEN=1, _synthetic_defect in its place) first writes whether the
# collector is enabled to stderr; once main() has returned, the frozen
# object count follows.
_FREEZE_PROBE = (
    "import gc, os, sys\n"
    "from blockatlas import cli\n"
    "from blockatlas.errors import InvariantViolation\n"
    "def broken(args):\n"
    "    raise InvariantViolation('synthetic defect')\n"
    "command = sys.argv[1]\n"
    "handler, *parser_spec = cli._COMMANDS[command]\n"
    "handler = broken if os.environ.get('BROKEN') else handler\n"
    "def probe(args):\n"
    "    sys.stderr.write(f'{gc.isenabled()} ')\n"
    "    return handler(args)\n"
    "cli._COMMANDS[command] = (probe, *parser_spec)\n"
    "code = cli.main()\n"
    "sys.stderr.write(str(gc.get_freeze_count()))\n"
    "sys.exit(code)\n")

_EXIT_CASES = [
    (["zsygmondy", "--q", "4", "--d", "3"], False, 0),
    (["zsygmondy", "--q", "2", "--d", "3"], True, 1),
    (["fusion", "--type", "B"], False, 2),
    (["pi1", "--datum", "catalog:nope"], False, 2),
]


@pytest.mark.parametrize("argv,broken,code", _EXIT_CASES,
                         ids=["ok", "invariant", "usage", "parse"])
def test_program_mode_freezes_the_collector(capsys, monkeypatch, argv, broken,
                                            code):
    # main() returns the library call's exit code and bytes; the command
    # runs with the collector off, and once it ends every live object is
    # frozen, so interpreter shutdown skips tracing them
    env = fresh_env(BROKEN="1") if broken else fresh_env()
    proc = subprocess.run([sys.executable, "-c", _FREEZE_PROBE, *argv],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == code, proc.stderr
    *enabled, frozen = proc.stderr.decode().split()
    # a usage error ends before any handler runs
    usage = check(proc.stdout.decode()).get("error", {}).get("code")
    assert enabled == ([] if usage == "UsageError" else ["False"])
    assert int(frozen) > 0
    if broken:
        _break_zsygmondy(monkeypatch)
    assert run(capsys, *argv) == (code, proc.stdout.decode())


def test_library_mode_leaves_the_collector_alone(capsys, monkeypatch):
    # tests and tracers call main(argv) and keep a live collector
    frozen = gc.get_freeze_count()
    codes = [cli.main(argv) for argv, _broken, _code in _EXIT_CASES]
    _break_zsygmondy(monkeypatch)
    codes.append(cli.main(_EXIT_CASES[1][0]))
    capsys.readouterr()
    assert codes == [0, 0, 2, 2, 1]
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


# ------------------------------------------------------------------- datums

def test_datum_file_matches_catalog(capsys, tmp_path):
    entry = catalog()["sl2_split"]
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(datum_to_dict(entry.datum)), encoding="utf-8")
    _, from_file = run(capsys, "pi1", "--datum", str(path))
    _, from_catalog = run(capsys, "pi1", "--datum", "catalog:sl2_split")
    a, b = check(from_file)["result"], check(from_catalog)["result"]
    assert a["pi1"] == b["pi1"]
    assert a["kottwitz_target"] == b["kottwitz_target"]


def test_datum_parse_error_carries_line(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "rank": oops\n}', encoding="utf-8")
    code, out = run(capsys, "pi1", "--datum", str(path))
    doc = check(out)
    assert code == 2
    assert doc["error"]["code"] == "ParseError"
    assert doc["error"]["context"]["line"] == 2


def test_datum_file_with_non_integers_exits_2(capsys, tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(
        {"rank": 1, "galois": [{"label": "F", "matrix": [[1.5]]}],
         "coroots": [["1"]], "roots": [[2.9]], "frobenius": "F"}),
        encoding="utf-8")
    code, out = run(capsys, "pi1", "--datum", str(path))
    assert code == 2
    assert check(out)["error"] == {
        "code": "ParseError",
        "message": "'coroots' must be a list of integer lists"}


def test_datum_file_rank_far_above_its_operators_fails_fast(tmp_path):
    # the operators' shapes are checked before any rank-sized matrix is
    # built; in a fresh interpreter with a deadline, so a regression costs
    # seconds rather than memory for 10**12 rows
    path = tmp_path / "datum.json"
    path.write_text('{"rank": 1000000000000, "galois": [{"label": "F", '
                    '"matrix": [[1]]}], "frobenius": "F"}', encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", _ENTRY, "pi1", "--datum",
                           str(path)], capture_output=True, text=True,
                          env=fresh_env(), timeout=5)
    assert proc.returncode == 2, proc.stderr
    assert check(proc.stdout)["error"] == {
        "code": "InvalidDatum",
        "message": "operator 'F' is not 1000000000000x1000000000000"}


def test_datum_file_key_outside_the_format_exits_2(capsys, tmp_path):
    # "wlid" for "wild" once loaded as a tame datum and reported all_ok false
    wild = datum_to_dict(catalog()["norm_one_wild"].datum)
    misspelt = {("wlid" if key == "wild" else key): value
                for key, value in wild.items()}
    item = {**wild, "galois": [{**wild["galois"][0], "lable": "w"},
                               *wild["galois"][1:]]}
    path = tmp_path / "datum.json"
    for doc, key in ((misspelt, "wlid"), (item, "lable")):
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(capsys, "components", "--datum", str(path), "--p", "2")
        error = check(out)["error"]
        assert code == 2
        assert error["code"] == "ParseError"
        assert f"unknown key {key!r}" in error["message"]


def test_deeply_nested_json_is_a_parse_error(capsys, tmp_path):
    # deeper than the decoder's recursion limit: RecursionError, once an
    # exit 1 with a traceback, and in a grid the end of the whole grid
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    expected = {"code": "ParseError",
                "message": "JSON is nested too deeply to decode"}
    for argv in (["pi1", "--datum", str(deep)],
                 ["fusion", "--type", "G2", "--rank", "2", "--q", "2",
                  "--plugin", str(deep)]):
        code, out = run(capsys, *argv)
        assert code == 2, argv
        assert check(out)["error"] == expected, argv
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"command = cornqs\ndata = {deep}, catalog:sl2_split\n"
                   "primes = 2\n", encoding="utf-8")
    code, out = run(capsys, "grid", "--config", str(cfg))
    jobs = check(out)["result"]["jobs"]
    assert code == 0
    assert [job["status"] for job in jobs] == ["error", "ok"]
    assert jobs[0]["error"] == expected


def test_pi1_without_p(capsys):
    code, out = run(capsys, "pi1", "--datum", "catalog:gl2_split")
    doc = check(out)
    assert code == 0
    result = doc["result"]
    assert result["p"] is None
    assert "pi1_p_torsion" not in result
    # GL2: free of rank 1, so no order
    assert result["pi1"]["free_rank"] == 1
    assert result["pi1"]["order"] is None


def test_components_and_cornqs(capsys):
    code, out = run(capsys, "components", "--datum", "catalog:norm_one_wild",
                    "--p", "2")
    assert code == 0
    assert check(out)["result"]["all_ok"] is True

    code, out = run(capsys, "cornqs", "--datum", "catalog:pgl2_split",
                    "--p", "2")
    assert code == 0
    result = check(out)["result"]
    assert result["hypothesis_a"] is False
    assert result["conclusion"] is False
    assert result["implication_holds"] is True


# --------------------------------------------------------------- subcommand

def test_blocks_agree_with_series(capsys):
    # ord(2 mod 3) = 2, so the 3-blocks at q=2 are the 2-series
    _, blocks_out = run(capsys, "blocks", "--type", "C", "--rank", "3",
                        "--q", "2", "--ell", "3")
    _, series_out = run(capsys, "series", "--type", "C", "--rank", "3",
                        "--d", "2")
    blocks_doc = check(blocks_out)["result"]
    series_doc = check(series_out)["result"]
    assert blocks_doc["blocks"] == series_doc["blocks"]
    assert blocks_doc["context"] == {"kind": "ell_blocks", "ell": 3, "q": 2,
                                     "d": 2}


def test_dseries_check_token_forms_agree(capsys):
    _, comma = run(capsys, "dseries-check", "--type", "2A", "--rank", "3",
                   "--D", "1,6")
    _, spaced = run(capsys, "dseries-check", "--type", "2A", "--rank", "3",
                    "--D", "1", "6")
    assert check(comma)["result"] == check(spaced)["result"]
    assert check(comma)["result"]["single"] is True


def test_dseries_check_reads_a_grid_integer_list(capsys):
    # --D takes the integer lists of a grid config: commas, spaces and
    # a-b ranges all name the same set
    results = []
    for tokens in (["1-3"], ["1,2,3"], ["1", "2", "3"], ["3", "1-2", "2"]):
        code, out = run(capsys, "dseries-check", "--type", "B", "--rank", "3",
                        "--D", *tokens)
        assert code == 0
        results.append(check(out)["result"])
    assert all(result == results[0] for result in results)
    assert results[0]["D"] == [1, 2, 3]


@pytest.mark.parametrize("token,message", [
    ("x", "expected an integer, got 'x'"),
    ("3-1", "empty range '3-1'"),
    ("1-y", "expected an integer, got 'y'"),
    (",", "expected at least one integer"),
])
def test_dseries_check_bad_token_is_a_parse_error(capsys, token, message):
    code, out = run(capsys, "dseries-check", "--type", "B", "--rank", "3",
                    "--D", token)
    assert code == 2
    assert check(out)["error"] == {"code": "ParseError", "message": message}


@pytest.mark.parametrize("tokens", [["1-1000000"], ["1-100000000"],
                                    ["1-65536", "0"], ["-5", "1-65536"]])
def test_integer_list_bound_is_checked_before_expanding(capsys, tokens):
    # a range counts from its endpoints, so a list past the bound fails
    # at once instead of being built first
    start = time.perf_counter()
    code, out = run(capsys, "dseries-check", "--type", "B", "--rank", "2",
                    "--D", *tokens)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert check(out)["error"] == {
        "code": "ParseError",
        "message": f"integer list names more than {cli.MAX_INT_LIST} values"}


def test_integer_list_bound_admits_its_limit_and_negatives():
    assert len(cli._parse_int_list(f"1-{cli.MAX_INT_LIST}")) == cli.MAX_INT_LIST
    # a leading "-" makes a negative single token, not a range
    assert cli._parse_int_list("-5, 2-3") == [-5, 2, 3]


def test_grid_integer_list_bound_names_its_line(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "command = zsygmondy\nqs = 2\n"
                              "ds = 3, 1-100000000\n")
    start = time.perf_counter()
    code, out = run(capsys, "grid", "--config", cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert check(out)["error"]["message"] == \
        f"line 3: integer list names more than {cli.MAX_INT_LIST} values"


def test_defect_bounds_shapes(capsys):
    _, out = run(capsys, "defect-bounds", "--type", "B", "--rank", "1")
    result = check(out)["result"]
    assert result["primary"]["all_ok"] is True
    assert result["derived"] is None

    _, out = run(capsys, "defect-bounds", "--type", "D", "--rank", "4")
    result = check(out)["result"]
    assert result["primary"]["all_ok"] is True
    assert result["derived"]["all_ok"] is True
    assert any(row["base_case"] for row in result["derived"]["rows"])


PLUGIN_DOC = {
    "schema": "exceptional_v1",
    "families": {
        "G2": {
            "labels": ["a", "b", "c"],
            "series": {"3": [{"core": "x", "members": ["a", "b"]}],
                       "4": [{"core": "y", "members": ["b", "c"]}]},
        },
    },
}


def test_fusion_with_plugin(capsys, tmp_path):
    path = tmp_path / "exc.json"
    path.write_text(json.dumps(PLUGIN_DOC), encoding="utf-8")
    code, out = run(capsys, "fusion", "--type", "G2", "--rank", "2",
                    "--q", "2", "--plugin", str(path))
    result = check(out)["result"]
    assert code == 0
    assert result["verdict"] == "single_class"
    assert result["plugin_type"] == "G2"

    code, out = run(capsys, "dseries-check", "--type", "G2", "--rank", "2",
                    "--D", "3", "--plugin", str(path))
    assert code == 0
    assert check(out)["result"]["single"] is False


def test_fusion_exceptional_without_plugin(capsys):
    code, out = run(capsys, "fusion", "--type", "G2", "--rank", "2",
                    "--q", "2")
    assert code == 2
    assert check(out)["error"]["code"] == "NotSupported"


@pytest.mark.parametrize("argv,message", [
    (["fusion", "--q", "2"], "family G2 needs plugin data for fusion"),
    (["dseries-check", "--D", "3"],
     "family G2 needs plugin data for D-series checks"),
])
def test_exceptional_without_plugin_message(capsys, argv, message):
    code, out = run(capsys, argv[0], "--type", "G2", "--rank", "2", *argv[1:])
    assert code == 2
    assert check(out)["error"] == {"code": "NotSupported", "message": message}


def test_exceptional_family_at_another_rank_exits_2(capsys, tmp_path):
    # G2 at rank 7 once reported "G27" with d_max 16, outside the model
    path = tmp_path / "exc.json"
    path.write_text(json.dumps(PLUGIN_DOC), encoding="utf-8")
    code, out = run(capsys, "fusion", "--type", "G2", "--rank", "7",
                    "--q", "4", "--plugin", str(path))
    assert code == 2
    assert check(out)["error"] == {"code": "ValueError",
                                   "message": "family G2 has rank 2, not 7"}


# --------------------------------------------------------------------- grid

def write_cfg(tmp_path, text):
    path = tmp_path / "grid.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_grid_expansion_order_and_counts(capsys, tmp_path):
    cfg = write_cfg(tmp_path, """
# comment line
command = fusion
families = B, C
ranks = 1-2
qs = 2, 4
""")
    code, out = run(capsys, "grid", "--config", cfg)
    doc = check(out)
    assert code == 0
    result = doc["result"]
    assert result["counts"] == {"ok": 8, "error": 0}
    keys = [(j["key"]["family"], j["key"]["rank"], j["key"]["q"])
            for j in result["jobs"]]
    assert keys == [("B", 1, 2), ("B", 1, 4), ("B", 2, 2), ("B", 2, 4),
                    ("C", 1, 2), ("C", 1, 4), ("C", 2, 2), ("C", 2, 4)]
    assert all(j["result"]["verdict"] == "single_class"
               for j in result["jobs"])


@pytest.mark.parametrize("body,config,keys", [
    ("command = fusion\nfamilies = B, A, B, A\nranks = 1\nqs = 2, 2\n",
     {"families": ["B", "A"], "qs": [2]}, [{"family": "B", "rank": 1, "q": 2},
                                          {"family": "A", "rank": 1, "q": 2}]),
    ("command = pi1\ndata = catalog:sl2_split, catalog:sl2_split\n"
     "primes = 2\n", {"data": ["catalog:sl2_split"]},
     [{"datum": "catalog:sl2_split", "p": 2}]),
], ids=["families", "data"])
def test_grid_string_list_drops_repeats(capsys, tmp_path, body, config, keys):
    # first occurrence kept, as integer lists drop their repeats
    code, out = run(capsys, "grid", "--config", write_cfg(tmp_path, body))
    result = check(out)["result"]
    assert code == 0
    assert result["config"].items() >= config.items()
    assert [job["key"] for job in result["jobs"]] == keys


def test_grid_rerun_byte_identical(capsys, tmp_path):
    cfg = write_cfg(tmp_path,
                    "command = zsygmondy\nqs = 2-4\nds = 3-5\n")
    code, first = run(capsys, "grid", "--config", cfg)
    assert code == 0
    _, second = run(capsys, "grid", "--config", cfg)
    assert first == second


def test_grid_fusion_ranks_9_10_single_class(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "command = fusion\n"
                              "families = A, 2A, B, C, D, 2D\n"
                              "ranks = 9-10\nqs = 3, 5\n")
    start = time.monotonic()
    code, out = run(capsys, "grid", "--config", cfg)
    elapsed = time.monotonic() - start
    jobs = check(out)["result"]["jobs"]
    assert code == 0 and len(jobs) == 24
    assert all(j["status"] == "ok" and j["result"]["verdict"] == "single_class"
               for j in jobs), [j["key"] for j in jobs]
    assert elapsed < 30.0, f"{elapsed:.1f}s"


def test_grid_captures_job_errors(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "command = bijection\n"
                              "data = catalog:sl2_split, catalog:bogus\n"
                              "primes = 2\n")
    code, out = run(capsys, "grid", "--config", cfg)
    doc = check(out)
    assert code == 0                      # the grid itself succeeded
    assert doc["result"]["counts"] == {"ok": 1, "error": 1}
    bad = doc["result"]["jobs"][1]
    assert bad["key"] == {"datum": "catalog:bogus", "p": 2}
    assert bad["status"] == "error"
    assert bad["error"]["code"] == "ParseError"


@pytest.mark.parametrize("text,fragment", [
    ("families = B\n", "command"),                      # no command
    ("command = dseries-check\n", "cannot run"),        # not grid-able
    ("command = fusion\nbogus = 3\n", "unknown key"),   # unknown key
    ("command = fusion\nranks = 5-3\nfamilies = B\nqs = 2\n", "empty range"),
    ("command = fusion\nranks = x\nfamilies = B\nqs = 2\n", "integer"),
    ("command = fusion\nfamilies = B\nqs = 2\n", "ranks"),   # missing key
    ("command = fusion\nfamilies = B\nranks = 1\nqs = 2\nworkers = 0\n",
     "workers"),
    ("command = fusion\nfamilies = B\nranks = 1\nqs = 2\nworkers = 8\n",
     "line 5: unknown key 'workers'"),
    ("command = fusion\ncommand = fusion\n", "duplicate"),
    ("just some words\n", "key = value"),
    # a key the command does not read, named with its line, before the
    # plugin file it names is opened
    ("command = zsygmondy\nqs = 2\nds = 3\ndmax = 4\nranks = 9\n"
     "plugin = nothere.json\n",
     "line 4: command 'zsygmondy' does not read key 'dmax'"),
    ("primes = 2\ncommand = fusion\nfamilies = B\nranks = 1\nqs = 2\n",
     "line 1: command 'fusion' does not read key 'primes'"),
])
def test_grid_config_errors(capsys, tmp_path, text, fragment):
    cfg = write_cfg(tmp_path, text)
    code, out = run(capsys, "grid", "--config", cfg)
    doc = check(out)
    assert code == 2
    assert doc["error"]["code"] == "ParseError"
    assert fragment in doc["error"]["message"]


# Per grid-able command: a two-cell config and each cell's standalone argv.
_GRID_CELLS = {
    "unipotent": ("families = B, 2A\nranks = 3\n",
                  [["--type", "B", "--rank", "3"],
                   ["--type", "2A", "--rank", "3"]]),
    "series": ("families = D\nranks = 4\nds = 1, 2\n",
               [["--type", "D", "--rank", "4", "--d", "1"],
                ["--type", "D", "--rank", "4", "--d", "2"]]),
    "blocks": ("families = A\nranks = 3\nqs = 2\nells = 3, 5\n",
               [["--type", "A", "--rank", "3", "--q", "2", "--ell", "3"],
                ["--type", "A", "--rank", "3", "--q", "2", "--ell", "5"]]),
    "fusion": ("families = B\nranks = 2\nqs = 2, 3\ndmax = 4\n",
               [["--type", "B", "--rank", "2", "--q", "2", "--dmax", "4"],
                ["--type", "B", "--rank", "2", "--q", "3", "--dmax", "4"]]),
    "defect-bounds": ("families = C\nranks = 1-2\n",
                      [["--type", "C", "--rank", "1"],
                       ["--type", "C", "--rank", "2"]]),
    "zsygmondy": ("qs = 2\nds = 6, 7\n",
                  [["--q", "2", "--d", "6"], ["--q", "2", "--d", "7"]]),
    "pi1": ("data = catalog:pgl2_split\nprimes = 2, 3\n",
            [["--datum", "catalog:pgl2_split", "--p", "2"],
             ["--datum", "catalog:pgl2_split", "--p", "3"]]),
    "components": ("data = catalog:norm_one_wild\nprimes = 2, 3\n",
                   [["--datum", "catalog:norm_one_wild", "--p", "2"],
                    ["--datum", "catalog:norm_one_wild", "--p", "3"]]),
    "bijection": ("data = catalog:norm_one_ramified, catalog:pgl3_split\n"
                  "primes = 3\n",
                  [["--datum", "catalog:norm_one_ramified", "--p", "3"],
                   ["--datum", "catalog:pgl3_split", "--p", "3"]]),
    "cornqs": ("data = catalog:pgl2_split, catalog:pgl3_split\nprimes = 3\n",
               [["--datum", "catalog:pgl2_split", "--p", "3"],
                ["--datum", "catalog:pgl3_split", "--p", "3"]]),
}


@pytest.mark.parametrize("command", cli._grid_commands())
def test_grid_cell_is_the_standalone_run(capsys, tmp_path, command):
    body, argvs = _GRID_CELLS[command]
    text = f"command = {command}\n{body}"
    cells = cli._grid_jobs(cli.parse_grid_config(text))
    assert [cell for _key, cell in cells] == [
        cli.build_parser(command).parse_args([command, *argv])
        for argv in argvs]
    code, out = run(capsys, "grid", "--config", write_cfg(tmp_path, text))
    jobs = check(out)["result"]["jobs"]
    assert code == 0 and len(jobs) == len(argvs) == 2
    for job, argv in zip(jobs, argvs):
        code, alone = run(capsys, command, *argv)
        assert code == 0 and job["status"] == "ok", job
        assert job["result"] == check(alone)["result"]


def test_grid_reads_the_plugin_per_cell(capsys, tmp_path):
    # as the standalone command does: a missing or malformed plugin file is
    # an error in every cell, not in the grid
    plugin = tmp_path / "exc.json"
    cfg = write_cfg(tmp_path, "command = fusion\nfamilies = B, G2\n"
                              f"ranks = 2\nqs = 3\nplugin = {plugin}\n")
    argv = ["--rank", "2", "--q", "3", "--plugin", str(plugin)]
    for text in (None, "{", json.dumps(PLUGIN_DOC)):
        if text is not None:
            plugin.write_text(text, encoding="utf-8")
        code, out = run(capsys, "grid", "--config", cfg)
        jobs = check(out)["result"]["jobs"]
        assert code == 0 and len(jobs) == 2
        for job, family in zip(jobs, ("B", "G2")):
            code, alone = run(capsys, "fusion", "--type", family, *argv)
            doc = check(alone)
            if text is None or text == "{":
                assert code == 2 and job["status"] == "error"
                assert job["error"] == doc["error"]
            else:
                assert code == 0 and job["result"] == doc["result"]


def test_grid_cell_error_is_the_standalone_error(capsys, tmp_path):
    # a datum file with a JSON syntax error: each cell reports the
    # standalone run's error object, its line and column included
    path = tmp_path / "broken.json"
    path.write_text('{\n  "rank": 1,\n  "roots" [[2]]\n}', encoding="utf-8")
    for command in ("pi1", "bijection"):
        cfg = write_cfg(tmp_path, f"command = {command}\ndata = {path}\n"
                                  "primes = 2, 3\n")
        code, out = run(capsys, "grid", "--config", cfg)
        jobs = check(out)["result"]["jobs"]
        assert code == 0 and len(jobs) == 2
        for job in jobs:
            code, alone = run(capsys, command, "--datum", str(path),
                              "--p", str(job["key"]["p"]))
            error = check(alone)["error"]
            assert code == 2 and job["status"] == "error"
            assert job["error"] == error
            assert error["context"] == {"line": 3, "column": 11}


def _grid_section() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    return readme.split("### Grids\n", 1)[1].split("\n## ", 1)[0]


def test_readme_lists_each_grid_command_and_its_keys():
    section = _grid_section()
    listed = re.findall(r"^\* `([\w-]+)`: (.+)$", section, re.M)
    expected, flags, cells = [], {}, {}
    for command in cli._grid_commands():
        arguments = cli._COMMANDS[command][2]
        varied = ", ".join(f"`{grid[0]}`" for _flag, _options, grid
                           in arguments if len(grid) == 2)
        whole = ", ".join(f"`{grid[0]}`" for _flag, _options, grid
                          in arguments if len(grid) == 1)
        expected.append((command,
                         varied + (f"; optional {whole}" if whole else "")))
        for flag, _options, grid in arguments:
            if len(grid) == 2:
                flags[grid[0]], cells[grid[0]] = flag, grid[1]
    assert listed == expected
    prose = " ".join(section.split())
    given = re.findall(r"`(\w+)` of `(--\w+)`", prose)
    assert dict(given) == flags
    named = prose.split("names its values ", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", named) == [cells[key] for key, _ in given]


def test_readme_grid_configs_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = readme.split("```ini\n")[1:]
    assert blocks
    for block in blocks:
        cli.parse_grid_config(block.split("```", 1)[0])


def test_readme_datum_example_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("### Root datum inputs\n", 1)[1].split("\n### ")[0]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    datum = rootdata.load_datum(example)
    assert datum == catalog()["norm_one_ramified"].datum
    assert datum.tame_order == 2


# A rank-2 datum whose wild operator swaps the basis (1,0), (1,1) but not
# the standard one; the criterion reads only the standard basis.
_SWAPS_ANOTHER_BASIS = {
    "rank": 2, "coroots": [], "roots": [],
    "galois": [{"label": "w", "matrix": [[1, 0], [1, -1]]},
               {"label": "F", "matrix": [[1, 0], [0, 1]]}],
    "inertia": ["w"], "wild": ["w"], "frobenius": "F",
}


@pytest.mark.parametrize("command", ["cornqs", "bijection", "components"])
def test_datum_file_witness_key_changes_no_byte(capsys, tmp_path, command):
    path = tmp_path / "datum.json"
    outputs = []
    for extra in ({"induced_witness": [[1, 1], [0, 1]]},   # a valid basis
                  {"induced_witness": [[2, 0], [0, 1]]},   # not a basis
                  {}):
        path.write_text(json.dumps({**_SWAPS_ANOTHER_BASIS, **extra}),
                        encoding="utf-8")
        code, out = run(capsys, command, "--datum", str(path), "--p", "2")
        assert code == 0, out
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    if command == "cornqs":
        assert not check(outputs[0])["result"]["wild_ab_induced"]


def test_grid_error_context_has_line(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "command = fusion\nwat\n")
    code, out = run(capsys, "grid", "--config", cfg)
    doc = check(out)
    assert code == 2
    assert doc["error"]["context"]["line"] == 2


def test_rewritten_datum_file_is_reloaded(tmp_path):
    path = str(tmp_path / "datum.json")
    first, second = (catalog()[n].datum for n in ("sl2_split", "pgl2_split"))
    for datum in (first, second):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(datum_to_dict(datum), handle)
        loaded, quasi = cli._resolve_datum(path)
        assert loaded == datum and quasi
        assert cli._resolve_datum(path)[0] is loaded   # same text: one load


def test_grid_errors_are_not_cached(capsys, tmp_path, monkeypatch):
    calls = []

    def failing_pi1(datum):
        calls.append(datum)
        raise InvalidDatum("synthetic pi1 failure")
    clear_process_caches()
    monkeypatch.setattr(langlands, "pi1", failing_pi1)
    cfg = write_cfg(tmp_path, "command = cornqs\n"
                              "data = catalog:pgl3_split\nprimes = 2, 3, 5\n")
    code, out = run(capsys, "grid", "--config", cfg)
    jobs = check(out)["result"]["jobs"]
    assert code == 0 and len(calls) == 3
    assert [j["error"] for j in jobs] == [
        {"code": "InvalidDatum", "message": "synthetic pi1 failure"}] * 3
    monkeypatch.undo()
    _, out = run(capsys, "grid", "--config", cfg)
    assert check(out)["result"]["counts"] == {"ok": 3, "error": 0}


def test_grid_cell_invariant_violation_aborts_the_grid(capsys, tmp_path,
                                                      monkeypatch):
    # an internal defect in one cell is not a cell error: the whole grid
    # stops with exit 1 and an InvariantViolation report
    handler, *parser_spec = cli._COMMANDS["bijection"]

    def broken_cell(args):
        if args.p == 3:
            raise InvariantViolation("synthetic defect in one cell")
        return handler(args)
    monkeypatch.setitem(cli._COMMANDS, "bijection",
                        (broken_cell, *parser_spec))
    cfg = write_cfg(tmp_path, "command = bijection\n"
                              "data = catalog:pgl2_split\nprimes = 2, 3, 5\n")
    code, out = run(capsys, "grid", "--config", cfg)
    doc = check(out)
    assert code == 1 and doc["status"] == "error" and "result" not in doc
    assert doc["error"] == {"code": "InvariantViolation",
                            "message": "synthetic defect in one cell"}


def test_components_grid_factors_each_matrix_once(capsys, tmp_path,
                                                  monkeypatch):
    # A work counter instead of a timer: each distinct matrix is factored
    # once and each distinct (dim, sub, rel) group is built once; every
    # later lookup of an equal key is a cache hit.  From cold caches this
    # grid (18 catalog entries, p = 2, 3, 5) passes 68 distinct matrices in
    # 180 lookups to the SNF, and builds 27 distinct groups in 168 lookups;
    # without a working cache key every lookup would be a miss.
    clear_process_caches()
    lookups = {}

    def recorded(name):
        cached = getattr(abelian, name)
        lookups[name] = (cached, [])

        def lookup(*args):
            lookups[name][1].append(args)
            return cached(*args)
        monkeypatch.setattr(abelian, name, lookup)
    recorded("smith_normal_form")
    recorded("_group")
    data = ", ".join(f"catalog:{name}" for name in sorted(catalog()))
    cfg = write_cfg(tmp_path, f"command = components\ndata = {data}\n"
                              "primes = 2, 3, 5\n")
    code, out = run(capsys, "grid", "--config", cfg)
    assert code == 0
    assert check(out)["result"]["counts"] == {"ok": 54, "error": 0}
    for name, (cached, args) in lookups.items():
        info = cached.cache_info()
        assert info.hits + info.misses == len(args), (name, info)
        assert 0 < info.misses == len(set(args)), (name, info)
    snf_info = lookups["smith_normal_form"][0].cache_info()
    assert snf_info.hits >= snf_info.misses, snf_info
    group_info = lookups["_group"][0].cache_info()
    assert group_info.hits + group_info.misses >= 4 * group_info.misses


# ----------------------------------------------------------------- start-up

# Prints, to stderr, the blockatlas modules whose code has run, and which of
# two slow-to-import standard modules were imported.  The package registers
# its other submodules as LazyLoader stubs, whose type is a ModuleType
# subclass until their first attribute access executes them.
_EXECUTED = """
import json, sys, types
from blockatlas.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
json.dump([sorted(name for name, module in sys.modules.items()
                  if name.startswith("blockatlas.")
                  and type(module) is types.ModuleType),
           sorted({"dataclasses", "inspect"} & set(sys.modules))], sys.stderr)
sys.exit(code)
"""
_UNIPOTENT_STACK = ["arith", "cli", "errors", "partitions", "symbols",
                    "unipotent"]


@pytest.mark.parametrize("argv,grid,executed", [
    (["zsygmondy", "--q", "3", "--d", "7"], None, ["arith", "cli", "errors"]),
    (["unipotent", "--type", "B", "--rank", "3"], None, _UNIPOTENT_STACK),
    ([], "command = fusion\nfamilies = B, 2A\nranks = 2-3\nqs = 3\n",
     sorted(_UNIPOTENT_STACK + ["fusion"])),
    ([], "command = bijection\n"
         "data = catalog:sl2_split, catalog:su3_unramified\nprimes = 2, 3\n",
     ["abelian", "arith", "cli", "errors", "langlands", "rootdata"]),
], ids=["zsygmondy", "unipotent", "fusion-grid", "bijection-grid"])
def test_command_executes_only_its_layers(capsys, tmp_path, argv, grid,
                                          executed):
    # A fresh interpreter per command, since this one has run every layer.
    if grid is not None:
        argv = ["grid", "--config", write_cfg(tmp_path, grid)]
    env = fresh_env()
    proc = subprocess.run([sys.executable, "-c", _EXECUTED, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    ran, slow_imports = json.loads(proc.stderr)
    assert ran == [f"blockatlas.{m}" for m in executed]
    assert slow_imports == []
    assert run(capsys, *argv) == (0, proc.stdout)


# ------------------------------------------------------------------- output

def _pipe_bytes(fd: int) -> int:
    return struct.unpack("i", fcntl.ioctl(fd, termios.FIONREAD, b"\0" * 4))[0]


def test_report_is_whole_after_stop_and_continue_on_a_full_pipe():
    # Unbuffered (python -u), stdout is a raw FileIO under the text layer.
    # A write blocked on a full pipe returns short when the process is
    # stopped; the report must still arrive byte for byte.
    env = fresh_env(PYTHONUNBUFFERED="1")
    cmd = [sys.executable, "-c",
           "import sys; from blockatlas.cli import main; sys.exit(main())",
           "unipotent", "--type", "A", "--rank", "29"]
    whole = subprocess.run(cmd, capture_output=True, env=env, timeout=60)
    assert whole.returncode == 0, whole.stderr
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    try:
        fd = proc.stdout.fileno()
        capacity = fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ)
        assert len(whole.stdout) > capacity
        deadline = time.monotonic() + 60
        while _pipe_bytes(fd) < capacity:   # the CLI is blocked writing
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        os.kill(proc.pid, signal.SIGSTOP)
        _, status = os.waitpid(proc.pid, os.WUNTRACED)
        assert os.WIFSTOPPED(status)
        os.kill(proc.pid, signal.SIGCONT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0, err
    assert len(out) == len(whole.stdout)
    assert out == whole.stdout
