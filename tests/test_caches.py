"""The shared cache helper covers every process cache of the library,
every cache is hit by the commands it serves, and every public reader of a
cache hands out the cached value itself, which refuses mutation."""
import functools
import gc
import json
import operator
from collections.abc import Mapping

import pytest
from conftest import clear_process_caches, datum_to_dict, process_caches

from blockatlas.arith import GroupTypeTag, PrimePower, admissible_d
from blockatlas.cli import main
from blockatlas.fusion import fusion_closure
from blockatlas.partitions import partitions_of
from blockatlas.rootdata import catalog, load_datum
from blockatlas.unipotent import enumerate_labels, label_table


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
    # one record per label table and per series, and the series cores
    assert {"partitions_of", "d_core", "_symbol_core", "_labels",
            "_blocks"} <= names
    # the per-row data the series cores are read from: β-sets, each row's
    # cohook runners, their packing, the core of each pair of rows, and
    # each row's text
    assert {"to_beta_set", "beta_core", "_runners", "_packed",
            "_rows_core", "_joined"} <= names
    # the derived sequence of a root datum; pi1 and kottwitz_target read
    # the interned groups and the coinvariants and fixed-point caches
    assert "derived_and_abelianized" in names
    assert not {"pi1", "kottwitz_target"} & names
    # one admissible map per (q, d_max, excluded primes), and one B_n
    # closure per (rank, q, d_max), which C_n reads too
    assert {"_admissible", "_b_closure"} <= names
    # the catalog and one datum per file text: their public readers are
    # the caches themselves, as partitions_of is
    assert {"catalog", "load_datum"} <= names


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


# hook_core and cohook_core are the closed forms' public caches: the series
# cores read the closed forms' row data directly, so no command reaches
# them, but the benchmark's tracer names them and keys them by argument
NEVER_HIT_BY_A_COMMAND = {"hook_core", "cohook_core"}


def representative_commands(tmp_path) -> list:
    """A fusion grid over every family, the defect bounds, and the datum
    grids over two catalog data and one datum file."""
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps(datum_to_dict(
        catalog()["wild_plus_tame_rank2"].datum)), encoding="utf-8")
    configs = {"fusion": "families = A, 2A, B, C, D, 2D\n"
                         "ranks = 2-4\nqs = 2, 3\n"}
    for command in ("bijection", "cornqs", "components"):
        configs[command] = (f"data = catalog:su3_unramified, "
                            f"catalog:wild_swap_rank2, {datum}\n"
                            f"primes = 2, 3, 5\n")
    commands = [["defect-bounds", "--type", "B", "--rank", "4"]]
    for command, body in configs.items():
        path = tmp_path / f"{command}.cfg"
        path.write_text(f"command = {command}\n{body}", encoding="utf-8")
        commands.append(["grid", "--config", str(path)])
    return commands


def test_every_cache_is_hit_by_a_representative_command(tmp_path, capsys):
    # a cache no command hits costs a lookup and a stored entry per call
    # and saves nothing; each command starts from cold caches
    caches = every_library_cache()
    hits = {id(c): 0 for c in caches}
    for argv in representative_commands(tmp_path):
        clear_process_caches()
        assert main(argv) == 0, argv
        for cache in caches:
            hits[id(cache)] += cache.cache_info().hits
    capsys.readouterr()
    never = sorted(f"{c.__module__}.{c.__qualname__}" for c in caches
                   if not hits[id(c)]
                   and c.__qualname__ not in NEVER_HIT_BY_A_COMMAND)
    assert never == []


# ------------------------------------------------------ read-only readers

def _datum_text() -> str:
    return json.dumps(datum_to_dict(catalog()["wild_plus_tame_rank2"].datum))


_Q4 = PrimePower.from_q(4)

# every public reader that returns a cached container
CACHED_READERS = {
    "partitions_of": lambda: partitions_of(6),
    "enumerate_labels": lambda: enumerate_labels(GroupTypeTag("D", 4)),
    "label_table": lambda: label_table(GroupTypeTag("2A", 3)),
    "admissible_d": lambda: admissible_d(GroupTypeTag("A", 3), _Q4, 8),
    "fusion-B": lambda: fusion_closure(GroupTypeTag("B", 3), _Q4).admissible,
    "fusion-C": lambda: fusion_closure(GroupTypeTag("C", 3), _Q4).admissible,
    "catalog": catalog,
    "load_datum": lambda: load_datum(_datum_text()),
}


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def assert_read_only(value) -> None:
    """Storing, deleting or clearing an item of the value, or setting one
    of its fields, raises; what it holds is hashable, so no list, dict or
    set sits inside it."""
    if isinstance(value, (Mapping, tuple)):
        key = next(iter(value)) if isinstance(value, Mapping) else 0
        with pytest.raises(TypeError):
            operator.setitem(value, key, None)
        with pytest.raises(TypeError):
            operator.delitem(value, key)
        with pytest.raises(AttributeError):
            value.clear()
    names = getattr(value, "_fields", None)
    if not isinstance(names, tuple):    # a slotted record, not a NamedTuple
        names = getattr(type(value), "__slots__", ())
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    held = value.values() if isinstance(value, Mapping) else (value,)
    assert all(map(_hashable, held))


@pytest.mark.parametrize("reader", CACHED_READERS.values(),
                         ids=CACHED_READERS.keys())
def test_cached_readers_hand_out_one_read_only_value(reader):
    # a caller cannot corrupt a cache: every call returns the cached object
    # itself, cold or warm, and it refuses every write
    clear_process_caches()
    value = reader()
    assert reader() is value
    assert value
    assert_read_only(value)
    assert reader() is value
