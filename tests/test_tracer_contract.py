"""The names perfbench/tracer.py wraps still exist where it looks for them.

The tracer finds each function it counts or serialises by (layer, qualified
name) and reads ``cache_info()`` from the cached ones; a rename or a cache
moved behind a wrapper would otherwise fail only the traced benchmark runs.
The tables are read, never changed.  A traced run of each kind of command,
in a fresh interpreter, must exit 0 and print the bytes of the untraced run.
"""
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockatlas

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
NAMED = sorted(set(tracer.CACHED) | set(tracer.COUNTERS)
               | set(tracer.COUNT_ONLY) | tracer.NOT_WRAPPED
               | tracer.EXTRA_SPANS)


def resolve(layer, qualname):
    module = importlib.import_module(f"blockatlas.{layer}")
    owner, obj = module, module
    for part in qualname.split("."):
        owner, obj = obj, inspect.getattr_static(obj, part)
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    return module, owner, obj


@pytest.mark.parametrize("layer,qualname", NAMED)
def test_traced_name_exists_in_its_layer(layer, qualname):
    assert layer in tracer.LAYERS
    module, owner, obj = resolve(layer, qualname)
    assert callable(obj)
    # install() wraps only what the layer module itself defines
    defined_in = owner if owner is not module else obj
    assert defined_in.__module__ == module.__name__


@pytest.mark.parametrize("layer,qualname", sorted(tracer.CACHED))
def test_cached_names_are_lru_caches_the_key_can_bind(layer, qualname):
    _module, _owner, obj = resolve(layer, qualname)
    assert callable(getattr(obj, "cache_info", None))
    # the tracer calls its key function with the cached call's arguments:
    # every positional parameter of the function must bind to it
    params = [p for p in inspect.signature(obj.__wrapped__).parameters.values()
              if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    inspect.signature(tracer.CACHED[layer, qualname]).bind(*params)


# The console script's body: what a user's `blockatlas ARGS` runs.
_ENTRY = "import sys; from blockatlas.cli import main; sys.exit(main())"


@pytest.mark.parametrize("argv", [
    ["fusion", "--type", "B", "--rank", "2", "--q", "3"],
    ["bijection", "--datum", "catalog:sl2_split", "--p", "2"],
    ["grid", "--config", "{zsygmondy}"],
    ["grid", "--config", "{fusion}"],
], ids=["fusion", "bijection", "zsygmondy-grid", "fusion-grid"])
def test_traced_run_prints_the_untraced_bytes(tmp_path, argv):
    configs = {"zsygmondy": "command = zsygmondy\nqs = 2\nds = 3-4\n",
               "fusion": "command = fusion\nfamilies = B, D\nranks = 2-3\n"
                         "qs = 2, 3\n"}
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text, encoding="utf-8")
    argv = [arg.format(**{name: tmp_path / f"{name}.cfg" for name in configs})
            for arg in argv]
    src = str(Path(blockatlas.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "trace.json"

    def run(*head):
        return subprocess.run([sys.executable, *head, *argv],
                              capture_output=True, env=env, timeout=60)

    plain = run("-c", _ENTRY)
    traced = run(str(TRACER), str(out), "--")
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    layers = json.loads(out.read_text(encoding="utf-8"))["layers"]
    assert sorted(layers) == sorted(tracer.LAYERS)
    assert layers["cli"]["calls"] >= 1
