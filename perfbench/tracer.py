"""Per-layer tracing bootstrap for one blockatlas CLI invocation.

    python3 perfbench/tracer.py OUT.json -- ARGS...

Wraps the public functions and methods of each layer module at every
import site, runs ``blockatlas.cli.main(ARGS)`` and writes, per layer,
outermost calls, busy time and wall time, plus work counters, to OUT.json.
The program's stdout is untouched; the benchmark checks that it is byte
for byte the output of the untraced run.

Accounting:
* A span opens where a call crosses into another layer; calls within the
  layer on top of the thread's stack pass straight through, so recursion
  through module globals (``hook_core``, ``cohook_core``) costs no span.
  ``calls`` counts only spans of a layer not already open on the thread.
* Each thread keeps its own span stack.  A span's own time is its time
  minus that of the spans it encloses; busy time uses ``time.thread_time``
  and wait time is own wall time minus own busy time, i.e. time the thread
  waited for the interpreter lock or for the grid's pool.
* Hot constructors get counters, not spans: ``Symbol`` and ``IntMatrix``.
  ``to_beta_set`` and ``make_symbol`` are left unwrapped; their time counts
  towards the calling layer.
* Calls into the three ``lru_cache`` functions take a lock per argument
  key, so no two threads compute one key at once.  Each key then misses
  exactly once, and hit, miss and ``Symbol`` counts do not depend on how
  the grid's threads interleave; they repeat exactly between runs.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import time

LAYERS = ("partitions", "symbols", "unipotent", "fusion", "arith", "abelian",
          "rootdata", "langlands", "cli")

NOT_WRAPPED = {("partitions", "to_beta_set"), ("symbols", "make_symbol")}
# Private cli functions that run grid cells on pool threads.
EXTRA_SPANS = {("cli", "_fusion_payload"), ("cli", "_zsygmondy_payload"),
               ("cli", "_datum_payload")}
# Cached functions -> their argument key, built from values that hash and
# compare in C so that taking a key's lock cannot switch threads midway.
CACHED = {
    ("symbols", "hook_core"): lambda sym, d: (sym.row_s, sym.row_t, d),
    ("symbols", "cohook_core"): lambda sym, d: (sym.row_s, sym.row_t, d),
    ("arith", "primitive_prime"):
        lambda q, d, constraint=None: (q, d, repr(constraint)),
}

_perf = time.perf_counter
_cpu = time.thread_time


class _ThreadTrace:
    __slots__ = ("stack", "open", "calls", "busy", "wall", "counts", "keys")

    def __init__(self):
        self.stack = []     # frames: [layer, wall0, cpu0, child_wall, child_cpu]
        self.open = {}      # layer -> spans of it open on this thread
        self.calls = {}
        self.busy = {}
        self.wall = {}
        self.counts = {}
        self.keys = {}      # name -> set of distinct call keys


class Tracer:
    """Span and counter state of one traced interpreter."""

    def __init__(self):
        self._local = threading.local()
        self._threads = []
        self._threads_lock = threading.Lock()
        self.caches = {}    # name -> the original lru_cache wrapper

    def thread(self) -> _ThreadTrace:
        try:
            return self._local.trace
        except AttributeError:
            trace = self._local.trace = _ThreadTrace()
            with self._threads_lock:
                self._threads.append(trace)
            return trace

    def count(self, name: str, amount=1) -> None:
        counts = self.thread().counts
        counts[name] = counts.get(name, 0) + amount

    def key(self, name: str, key) -> None:
        self.thread().keys.setdefault(name, set()).add(key)

    # ------------------------------------------------------------ wrappers

    def span(self, layer: str, fn):
        thread = self.thread

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t = thread()
            stack = t.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            depth = t.open.get(layer, 0)
            if not depth:
                t.calls[layer] = t.calls.get(layer, 0) + 1
            t.open[layer] = depth + 1
            frame = [layer, _perf(), _cpu(), 0.0, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                wall = _perf() - frame[1]
                busy = _cpu() - frame[2]
                stack.pop()
                t.open[layer] = depth
                t.wall[layer] = t.wall.get(layer, 0.0) + wall - frame[3]
                t.busy[layer] = t.busy.get(layer, 0.0) + busy - frame[4]
                if stack:
                    stack[-1][3] += wall
                    stack[-1][4] += busy
        return traced

    def serialised(self, fn, key):
        locks = {}
        new_lock = threading.Lock

        @functools.wraps(fn)
        def locked(*args, **kwargs):
            k = key(*args, **kwargs)
            lock = locks.get(k)
            if lock is None:
                lock = locks.setdefault(k, new_lock())
            with lock:
                return fn(*args, **kwargs)
        return locked

    def counted(self, fn, hook):
        """Call ``hook(tracer, args, result)`` after every call of ``fn``."""
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, args, result)
            return result
        return counting

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def timing(*args, **kwargs):
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.count(name, _perf() - start)
        return timing

    # ------------------------------------------------------------- summary

    def summary(self) -> dict:
        layers = {layer: {"calls": 0, "busy_s": 0.0, "wall_s": 0.0}
                  for layer in LAYERS}
        counts, keys = {}, {}
        with self._threads_lock:
            threads = list(self._threads)
        for t in threads:
            for layer in t.calls:
                layers[layer]["calls"] += t.calls[layer]
            for layer in t.busy:
                layers[layer]["busy_s"] += t.busy[layer]
                layers[layer]["wall_s"] += t.wall[layer]
            for name, value in t.counts.items():
                counts[name] = counts.get(name, 0) + value
            for name, seen in t.keys.items():
                keys.setdefault(name, set()).update(seen)
        caches = {name: {"hits": fn.cache_info().hits,
                         "misses": fn.cache_info().misses}
                  for name, fn in self.caches.items()}
        return {"layers": layers, "counts": counts,
                "distinct": {name: len(seen) for name, seen in keys.items()},
                "caches": caches}


# ---------------------------------------------------------------- counters

def _add_len(name):
    return lambda tr, args, result: tr.count(name, len(result))


def _add_one(name):
    return lambda tr, args, result: tr.count(name)


def _labels_hook(tr, args, result):
    tr.count("unipotent.labels_enumerated", len(result))
    tr.count("unipotent.enumerate_labels_calls")
    tr.key("unipotent.label_types", args[0])


def _series_hook(tr, args, result):
    tr.count("unipotent.series_built")
    tr.key("unipotent.series_keys", (args[0], args[1]))


def _fusion_hook(tr, args, result):
    tr.count("fusion.merge_events", len(result.certificate))


COUNTERS = {
    ("partitions", "partitions_of"): _add_len("partitions.partitions_built"),
    ("symbols", "enumerate_symbols"): _add_len("symbols.symbols_enumerated"),
    ("unipotent", "enumerate_labels"): _labels_hook,
    ("unipotent", "d_series"): _series_hook,
    ("unipotent", "SeriesPartition.validate"): _add_one("unipotent.validations"),
    ("fusion", "fusion_closure"): _fusion_hook,
    ("fusion", "FusionResult.validate"): _add_one("fusion.validations"),
    ("arith", "primitive_prime"): _add_one("arith.witness_searches"),
    ("arith", "is_prime"): _add_one("arith.is_prime_calls"),
    ("abelian", "smith_normal_form"): _add_one("abelian.snf_calls"),
    ("abelian", "IntMatrix.inverse_unimodular"):
        _add_one("abelian.unimodular_inverses"),
    ("abelian", "IntMatrix.det"): _add_one("abelian.det_calls"),
    ("rootdata", "catalog"): _add_one("rootdata.catalog_builds"),
    ("langlands", "bijection_check"): _add_one("langlands.checks"),
    ("langlands", "cornqs_check"): _add_one("langlands.checks"),
    ("langlands", "component_lemma_checks"): _add_one("langlands.checks"),
}
# Counted without a span: hot constructors and one private validator.
COUNT_ONLY = {
    ("symbols", "Symbol.__post_init__"): _add_one("symbols.symbols_constructed"),
    ("abelian", "IntMatrix.__init__"): _add_one("abelian.matrices_built"),
    ("rootdata", "RootDatumWithAction._validate"):
        _add_one("rootdata.datum_validations"),
}


def _wrap(tracer: Tracer, layer: str, qualname: str, fn):
    key = (layer, qualname)
    if key in COUNT_ONLY:
        return tracer.counted(fn, COUNT_ONLY[key])
    if key in CACHED:
        tracer.caches[qualname] = fn
        fn = tracer.serialised(fn, CACHED[key])
    if key in COUNTERS:
        fn = tracer.counted(fn, COUNTERS[key])
    return tracer.span(layer, fn)


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for name, attr in list(vars(cls).items()):
        qualname = f"{cls.__name__}.{name}"
        if (layer, qualname) not in COUNT_ONLY and name.startswith("_"):
            continue
        if isinstance(attr, (classmethod, staticmethod)):
            setattr(cls, name, type(attr)(
                _wrap(tracer, layer, qualname, attr.__func__)))
        elif callable(attr) and not isinstance(attr, type):
            setattr(cls, name, _wrap(tracer, layer, qualname, attr))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and methods, rebinding each
    wrapped function in every blockatlas module that imported it."""
    import blockatlas.cli  # noqa: F401  (imports every layer module)

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "blockatlas" or n.startswith("blockatlas.")]
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"blockatlas.{layer}"]
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                if not name.startswith("_"):
                    _wrap_class(tracer, layer, obj)
                continue
            if not callable(obj) or (layer, name) in NOT_WRAPPED:
                continue
            if name.startswith("_") and (layer, name) not in EXTRA_SPANS:
                continue
            wrapped[id(obj)] = _wrap(tracer, layer, name, obj)
    cli_module = sys.modules["blockatlas.cli"]
    cli_module._emit = tracer.timed("cli.json_s", cli_module._emit)
    for module in modules:
        for name, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, name, wrapped[id(obj)])


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.stderr.write("usage: tracer.py OUT.json -- ARGS...\n")
        return 2
    out, argv = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    install(tracer)
    import blockatlas.cli
    sys.argv = ["blockatlas"] + argv
    try:
        return blockatlas.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
