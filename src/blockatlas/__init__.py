"""blockatlas: series/block combinatorics for classical types and
lattice-theoretic torsor checks for the associated parameter spaces.

Every submodule but ``cli`` is put in ``sys.modules`` unexecuted
(``importlib.util.LazyLoader``) and runs on the first access to one of its
attributes: a process compiles and runs only the modules it uses, and
``perfbench/tracer.py`` still finds every layer in ``sys.modules``.
"""
import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

for _name in ("abelian", "arith", "errors", "exceptional", "fusion",
              "langlands", "partitions", "rootdata", "symbols", "unipotent"):
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
del _name, _spec
