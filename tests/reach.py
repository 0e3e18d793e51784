"""The reach census's pass: the manifest corpus and ``EXTRAS``, run under a
profile hook in one fresh interpreter.

    python3 tests/reach.py DIR

writes the report manifest to stdout, as ``test_manifest.build()`` renders
it, and to ``DIR/unreached.json`` the name, ``module.function`` or
``module.Class.method``, of every function and method that a ``blockatlas``
module defines and that no command called.  The hook is set before
``blockatlas`` is imported, so calls made at import time count.  The
corpus runs warm, in corpus order.  A cold pass, with every cache emptied
before each command, reaches the same functions but two: the ``__eq__`` of
``PrimePower`` and of ``RootDatumWithAction``, which only a cache hit on
an equal key calls, and which the census exempts as dunders.  The
``fresh_pass``
fixture of ``conftest.py`` runs this script once under another
``PYTHONHASHSEED``; ``test_manifest.py`` compares its manifest and
``test_reach.py`` judges its list.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

_reached = set()


def _record(frame, event, _arg):
    if event == "call":
        _reached.add(frame.f_code)


G2 = {"schema": "exceptional_v1",
      "families": {"G2": {"labels": ["a", "b", "c"],
                          "series": {"3": [{"core": "x", "members": ["a", "b"]}],
                                     "4": [{"core": "y",
                                            "members": ["b", "c"]}]}}}}

# (argv, exit code): what the corpus does not reach.  {dir} is DIR.
EXTRAS = (
    (["grid", "--config", "{dir}/grid.cfg"], 0),
    (["fusion", "--type", "G2", "--rank", "2", "--q", "2",
      "--plugin", "{dir}/g2.json"], 0),
    (["dseries-check", "--type", "G2", "--rank", "2", "--D", "3", "4",
      "--plugin", "{dir}/g2.json"], 0),
    # no catalog datum has both coroots and a wild operator, so no catalog
    # datum makes derived_and_abelianized transport one
    (["cornqs", "--datum", "{dir}/datum.json", "--p", "2"], 0),
    (["fusion", "--type", "B"], 2),                     # a usage error
    # q = 43 has no prime factor up to 41, so PrimePower.from_q takes roots
    (["fusion", "--type", "A", "--rank", "1", "--q", "43"], 0),
    # ell − 1 = 2·1009·1019: trial division stops below 1000 and leaves
    # 1009·1019 to Pollard–Brent
    (["blocks", "--type", "A", "--rank", "2", "--q", "2",
      "--ell", "2056343"], 0),
)


def write_inputs(out: Path) -> None:
    from conftest import catalog_sum, datum_to_dict
    (out / "grid.cfg").write_text("command = zsygmondy\nqs = 2\nds = 3-4\n",
                                  encoding="utf-8")
    (out / "g2.json").write_text(json.dumps(G2), encoding="utf-8")
    datum = catalog_sum(["sl2_split", "wild_swap_rank2"])
    (out / "datum.json").write_text(json.dumps(datum_to_dict(datum)),
                                    encoding="utf-8")


def _code(obj):
    """The code object that runs when obj is called, through the wrappers
    of a method, a property and a cache."""
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        obj = obj.fget
    obj = getattr(obj, "__wrapped__", obj)
    return getattr(obj, "__code__", None)


def definitions() -> dict:
    """name -> code of every function and class method that a blockatlas
    module's source defines at module level."""
    import importlib
    import pkgutil

    import blockatlas
    out = {}
    for info in pkgutil.iter_modules(blockatlas.__path__):
        module = importlib.import_module(f"blockatlas.{info.name}")
        for name, obj in vars(module).items():
            members = ([(f"{name}.{attr}", value)
                        for attr, value in vars(obj).items()]
                       if isinstance(obj, type) else [(name, obj)])
            for qualname, value in members:
                code = _code(value)
                if code is not None and code.co_filename == module.__file__:
                    out[f"{info.name}.{qualname}"] = code
    return out


def main(out: Path) -> None:
    sys.setprofile(_record)
    from test_manifest import build

    from blockatlas import cli
    manifest = build()
    write_inputs(out)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv, code in EXTRAS:
            argv = [arg.format(dir=out) for arg in argv]
            if cli.main(argv) != code:
                raise SystemExit(f"{argv} did not exit {code}")
    sys.setprofile(None)
    unreached = sorted(name for name, code in definitions().items()
                       if code not in _reached)
    (out / "unreached.json").write_text(json.dumps(unreached),
                                        encoding="utf-8")
    sys.stdout.write(manifest)


if __name__ == "__main__":
    main(Path(sys.argv[1]))
