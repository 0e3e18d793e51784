"""The reach census: the library is what the CLI reaches.

``tests/reach.py`` runs the manifest corpus and its own extra commands
under a profile hook and lists every module-level function and class
method of ``blockatlas`` that no command called.  Each must be exempt:

* a dunder other than an arithmetic operator or ``__bool__``, which Python
  calls on its own (``__eq__``, ``__setattr__``, ``__str__``, …); an
  operator or a truth value that only tests use is test-only API;
* a name that ``perfbench/tracer.py`` counts, serialises or wraps, read
  from its tables as ``test_tracer_contract.py`` reads them;
* a name in ``ALLOWLIST``, with its reason.

An allowlist entry that names a reached, otherwise exempt or missing
function fails too, so the list shrinks with the code.  Run it alone with
``python3 -m pytest tests/test_reach.py``.
"""
from test_tracer_contract import NAMED

TRACED = {f"{layer}.{qualname}" for layer, qualname in NAMED}

COUNTED = ({f"__{side}{op}__" for side in ("", "r", "i")
            for op in ("add", "sub", "mul", "matmul", "truediv",
                       "floordiv", "mod", "divmod", "pow", "lshift",
                       "rshift", "and", "or", "xor")}
           | {"__neg__", "__pos__", "__abs__", "__invert__", "__bool__"})

ALLOWLIST = {
    "symbols._clean_row": "only the validating Symbol constructor "
                          "(Symbol.__post_init__) and make_symbol call it, "
                          "and the tracer names both",
    "symbols._core": "only hook_core and cohook_core call it, and the "
                     "tracer names both",
    "symbols.Symbol.canonical": "the swap class's representative as a "
                                "Symbol: label tables and series order "
                                "rows without one (unipotent._rows_core); "
                                "the oracles of the tests read the method",
    "symbols.Symbol.swap": "only Symbol.canonical calls it",
    "symbols.phi": "the Ennola label map: acceptance criterion 3 and the "
                   "series-through-phi test in test_unipotent.py read it",
}


def exempt(name: str) -> bool:
    last = name.rsplit(".", 1)[1]
    dunder = last.startswith("__") and last.endswith("__")
    return (dunder and last not in COUNTED) or name in TRACED


def test_every_library_function_is_reached(fresh_pass):
    _manifest, unreached = fresh_pass
    assert [name for name in unreached
            if not exempt(name) and name not in ALLOWLIST] == []


def test_allowlist_names_only_unreached_functions(fresh_pass):
    _manifest, unreached = fresh_pass
    assert [name for name in ALLOWLIST
            if name not in unreached or exempt(name)] == []
