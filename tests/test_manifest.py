"""The report manifest: for each command of a fixed corpus, its exit code,
status, verdict or error code, and the sha256 of its report.

``golden/manifest.json`` holds it, one command per line.  The test builds
it three ways and expects the committed bytes each time: cold, with every
process cache emptied before each command; warm, in a shuffled order; and
in a fresh interpreter under another ``PYTHONHASHSEED``, which is the
reach census's pass (``tests/reach.py``, read through the ``fresh_pass``
fixture).  So no cache and no hash order changes a report, and an
intended change to a report shows as a diff of that file.  Running this
module as a script rewrites it.
"""
import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

from conftest import clear_process_caches

from blockatlas import cli
from blockatlas.rootdata import catalog

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"

# The values each flag takes.  A command runs the product of its arguments'
# values, in argument order; a flag with no values here (--dmax, --plugin)
# keeps its default.  --D's values are token lists, split on spaces.
VALUES = {
    "--type": ("A", "2A", "B", "C", "D", "2D"),
    "--rank": (1, 2, 3, 5, 8),
    "--d": (1, 2, 3, 4, 6),
    "--q": (2, 3, 4),
    "--ell": (3, 5),
    "--D": ("1,2", "1 2 4"),
    "--datum": tuple(f"catalog:{name}" for name in sorted(catalog())),
    "--p": (2, 3, 5, 7),
}
COMMAND_VALUES = {"zsygmondy": {"--q": range(2, 17), "--d": range(1, 13)}}
# --D's other token forms: a range, as grid lists take, and a bad token
EXTRA = (["dseries-check", "--type", "B", "--rank", "2", "--D", "1-3"],
         ["dseries-check", "--type", "B", "--rank", "2", "--D", "x"])


def corpus() -> list:
    """Every subcommand but ``grid``, enumerated from ``cli._COMMANDS``,
    then ``EXTRA``."""
    argvs = []
    for name, (_handler, _help, arguments) in cli._COMMANDS.items():
        if name == "grid":
            continue
        values = {**VALUES, **COMMAND_VALUES.get(name, {})}
        axes = [[[flag, *str(value).split()] for value in values[flag]]
                for flag, options, _grid in arguments
                if flag in values or options.get("required")]
        for cell in itertools.product(*axes):
            argvs.append([name, *itertools.chain(*cell)])
    return argvs + [list(argv) for argv in EXTRA]


def entry(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = out.getvalue()
    doc = json.loads(text)
    line = {"exit": code, "status": doc["status"],
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    if doc["status"] == "error":
        line["error"] = doc["error"]["code"]
    elif "verdict" in doc["result"]:
        line["verdict"] = doc["result"]["verdict"]
    return line


def render(entries: dict) -> str:
    """One ``"argv": {...}`` line per command, in corpus order."""
    keys = [" ".join(argv) for argv in corpus()]
    lines = [f"{json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
             for key in keys]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def build(cold: bool = False, shuffle: random.Random | None = None) -> str:
    argvs = corpus()
    if shuffle is not None:
        shuffle.shuffle(argvs)
    entries = {}
    for argv in argvs:
        if cold:
            clear_process_caches()
        entries[" ".join(argv)] = entry(argv)
    return render(entries)


def test_corpus_runs_every_command_but_grid():
    assert {argv[0] for argv in corpus()} == set(cli._COMMANDS) - {"grid"}


def test_manifest_cold_warm_and_under_another_hash_seed(fresh_pass):
    expected = MANIFEST.read_text(encoding="utf-8")
    assert build(cold=True) == expected
    assert build(shuffle=random.Random(17)) == expected
    assert fresh_pass[0] == expected


if __name__ == "__main__":
    MANIFEST.write_text(build(cold=True), encoding="utf-8")
