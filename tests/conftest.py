"""Helpers shared by the test modules.

``clear_process_caches`` empties every ``functools.lru_cache`` of the
library, so a test that wants a cold process gets one, whatever caches a
later change adds.  ``tests/test_caches.py`` checks that it finds them all.
"""
import functools
import importlib
import pkgutil

import blockatlas


def _caches_in(namespace, module_name):
    for obj in list(vars(namespace).values()):
        if isinstance(obj, (classmethod, staticmethod)):
            obj = obj.__func__
        if isinstance(obj, functools._lru_cache_wrapper):
            yield obj
        elif isinstance(obj, type) and obj.__module__ == module_name:
            yield from _caches_in(obj, module_name)


def process_caches() -> list:
    """Every lru_cache held by a blockatlas module or by one of its classes."""
    caches = {}
    for info in pkgutil.iter_modules(blockatlas.__path__):
        module = importlib.import_module(f"blockatlas.{info.name}")
        for cache in _caches_in(module, module.__name__):
            caches[id(cache)] = cache
    return list(caches.values())


def clear_process_caches() -> None:
    for cache in process_caches():
        cache.cache_clear()
