"""CLI behaviour: envelopes, golden files, exit codes, grids, plugins.

Every emitted document is validated against the shipped report_v1 schema.
"""
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import blockatlas
from blockatlas import abelian, cli, langlands
from blockatlas.errors import InvalidDatum, InvariantViolation
from blockatlas.rootdata import catalog, datum_to_dict

GOLDEN = Path(__file__).parent / "golden"

_VALIDATOR = Draft202012Validator(json.loads(
    resources.files("blockatlas").joinpath("report_v1.schema.json")
    .read_text(encoding="utf-8")))


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


def test_invariant_violation_exits_1(capsys, monkeypatch):
    def broken(args):
        raise InvariantViolation("synthetic defect")
    monkeypatch.setitem(cli._HANDLERS, "zsygmondy", broken)
    code, out = run(capsys, "zsygmondy", "--q", "2", "--d", "3")
    doc = check(out)
    assert code == 1
    assert doc["error"]["code"] == "InvariantViolation"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0


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
workers = 3
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


def test_grid_rerun_byte_identical(capsys, tmp_path):
    cfg = write_cfg(tmp_path,
                    "command = zsygmondy\nqs = 2-4\nds = 3-5\nworkers = 4\n")
    code, first = run(capsys, "grid", "--config", cfg)
    assert code == 0
    _, second = run(capsys, "grid", "--config", cfg)
    assert first == second


@pytest.mark.parametrize("body", [
    "command = fusion\nfamilies = B, D\nranks = 2-4\nqs = 2, 3\n",
    "command = bijection\ndata = catalog:sl2_split, catalog:norm_one_wild, "
    "catalog:bogus\nprimes = 2, 3\n",
], ids=["fusion", "bijection"])
def test_grid_workers_do_not_change_results(capsys, tmp_path, body):
    outputs = []
    for workers in ("workers = 1\n", "workers = 8\n", ""):
        code, out = run(capsys, "grid", "--config",
                        write_cfg(tmp_path, body + workers))
        assert code == 0
        result = check(out)["result"]
        if workers:
            assert result["config"]["workers"] == int(workers.split()[-1])
        outputs.append(json.dumps([result["jobs"], result["counts"]],
                                  sort_keys=True))
    assert outputs[0] == outputs[1] == outputs[2]


def test_grid_fusion_ranks_9_10_single_class(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "command = fusion\n"
                              "families = A, 2A, B, C, D, 2D\n"
                              "ranks = 9-10\nqs = 2, 4\n")
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
    ("command = series\n", "cannot run"),               # not grid-able
    ("command = fusion\nbogus = 3\n", "unknown key"),   # unknown key
    ("command = fusion\nranks = 5-3\nfamilies = B\nqs = 2\n", "empty range"),
    ("command = fusion\nranks = x\nfamilies = B\nqs = 2\n", "integer"),
    ("command = fusion\nfamilies = B\nqs = 2\n", "ranks"),   # missing key
    ("command = fusion\nfamilies = B\nranks = 1\nqs = 2\nworkers = 0\n",
     "workers"),
    ("command = fusion\ncommand = fusion\n", "duplicate"),
    ("just some words\n", "key = value"),
])
def test_grid_config_errors(capsys, tmp_path, text, fragment):
    cfg = write_cfg(tmp_path, text)
    code, out = run(capsys, "grid", "--config", cfg)
    doc = check(out)
    assert code == 2
    assert doc["error"]["code"] == "ParseError"
    assert fragment in doc["error"]["message"]


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
    langlands._modules.cache_clear()
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
    payload = cli._datum_payload

    def broken_cell(command, ref, p):
        if p == 3:
            raise InvariantViolation("synthetic defect in one cell")
        return payload(command, ref, p)
    monkeypatch.setattr(cli, "_datum_payload", broken_cell)
    cfg = write_cfg(tmp_path, "command = bijection\n"
                              "data = catalog:pgl2_split\nprimes = 2, 3, 5\n")
    code, out = run(capsys, "grid", "--config", cfg)
    doc = check(out)
    assert code == 1 and doc["status"] == "error" and "result" not in doc
    assert doc["error"] == {"code": "InvariantViolation",
                            "message": "synthetic defect in one cell"}


def test_components_grid_factors_each_matrix_once(capsys, tmp_path):
    # A work counter instead of a timer: each distinct matrix is factored
    # once, and every later lookup of an equal matrix is a cache hit.  At
    # the time of writing this grid (18 catalog entries, p = 2, 3, 5) makes
    # 67 factorizations (cache misses) and 1063 hits, about 17 lookups per
    # factorization; without a working cache key every lookup would miss.
    langlands._modules.cache_clear()
    for fn in (abelian.smith_normal_form, abelian.lattice_basis,
               abelian.solve_in_lattice, abelian.kernel_basis):
        fn.cache_clear()
    data = ", ".join(f"catalog:{name}" for name in sorted(catalog()))
    cfg = write_cfg(tmp_path, f"command = components\ndata = {data}\n"
                              "primes = 2, 3, 5\n")
    code, out = run(capsys, "grid", "--config", cfg)
    assert code == 0
    assert check(out)["result"]["counts"] == {"ok": 54, "error": 0}
    info = abelian.smith_normal_form.cache_info()
    assert info.misses > 0
    assert info.hits + info.misses >= 4 * info.misses, info


# ----------------------------------------------------------------- start-up

# Prints, to stderr, the blockatlas modules whose code has run.  The package
# registers its other submodules as LazyLoader stubs, whose type is a
# ModuleType subclass until their first attribute access executes them.
_EXECUTED = """
import json, sys, types
from blockatlas.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
json.dump(sorted(name for name, module in sys.modules.items()
                 if name.startswith("blockatlas.")
                 and type(module) is types.ModuleType), sys.stderr)
sys.exit(code)
"""
_UNIPOTENT_STACK = ["arith", "cli", "errors", "limits", "partitions",
                    "symbols", "unipotent"]


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
    src = str(Path(blockatlas.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _EXECUTED, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == [f"blockatlas.{m}" for m in executed]
    assert run(capsys, *argv) == (0, proc.stdout)
