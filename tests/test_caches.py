"""The shared cache helper covers every process cache of the library."""
import functools
import gc

from conftest import clear_process_caches, process_caches

from blockatlas.cli import main


def every_library_cache():
    """Every live lru_cache whose function a blockatlas module defines,
    found through the garbage collector rather than by walking modules."""
    process_caches()            # imports every blockatlas module
    return [obj for obj in gc.get_objects()
            if isinstance(obj, functools._lru_cache_wrapper)
            and getattr(obj, "__module__", "").startswith("blockatlas.")]


def test_helper_covers_every_library_cache():
    found = every_library_cache()
    covered = {id(cache) for cache in process_caches()}
    missing = [f"{c.__module__}.{c.__qualname__}" for c in found
               if id(c) not in covered]
    assert not missing
    # the library has caches in modules, on methods and on a classmethod
    names = {c.__qualname__ for c in found}
    assert {"primitive_prime", "mult_order", "hook_core", "cohook_core",
            "smith_normal_form", "_group",
            "FGAbelianGroup.p_torsion", "IntMatrix.identity"} <= names
    # the label tables and series cores
    assert {"_partitions", "d_core", "_symbols", "_symbol_core", "_labels",
            "_label_set", "_blocks", "label_renders",
            "series_renders", "_core_symbol"} <= names
    # the p-independent functors of a root datum
    assert {"pi1", "kottwitz_target", "derived_and_abelianized"} <= names


def test_clear_process_caches_leaves_every_cache_empty(capsys):
    for argv in (["zsygmondy", "--q", "4", "--d", "3"],
                 ["fusion", "--type", "B", "--rank", "2", "--q", "3"],
                 ["components", "--datum", "catalog:pgl3_split", "--p", "3"]):
        assert main(argv) == 0
    capsys.readouterr()
    found = every_library_cache()
    assert any(c.cache_info().currsize for c in found)
    clear_process_caches()
    assert [c.__qualname__ for c in found if c.cache_info().currsize] == []
