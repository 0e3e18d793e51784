"""Command-line front end emitting versioned JSON reports.

Every invocation prints exactly one ``report_v1`` JSON document to stdout
and exits 0 on success, 2 on a precondition/usage failure (the report then
carries ``status: "error"``), or 1 when an internal invariant check fails.
Reports contain no timestamps and all keys are emitted sorted, so repeating
an invocation reproduces the output byte for byte.  ``--pretty`` switches
from compact separators to two-space indentation; both renderings are
deterministic.  Every report byte is written or the command fails, also
when stdout is unbuffered and a write returns short (see ``_emit``).

Root data are addressed either as ``catalog:NAME`` (built-in examples,
which carry their own quasi-splitness metadata) or as a path to a JSON
datum file (treated as quasi-split).

``_COMMANDS`` drives both the parser and ``grid``.  A grid runs the cells
of a command's list keys, expanded in argument order, one after another on
one thread; each cell calls the command's handler on the namespace of its
standalone run.  One path, ``_outcome``, turns a handler call into the
report's ``status`` with its ``result`` or ``error`` object, for a
standalone run and for each grid cell alike, so a cell reports what its
standalone run reports, errors and their context included.  An
``InvariantViolation`` is a defect, not an outcome: it ends the run, a
grid's included, with exit 1.  ``dseries-check --D`` reads its tokens as
one grid integer list, ``a-b`` ranges included.

Handlers reach the layers through the package's lazily run modules, so a
process runs, and without a bytecode cache compiles, only its command's
layers: ``zsygmondy`` runs ``arith``; ``unipotent``, ``series`` and ``blocks``
add ``partitions``, ``symbols`` and ``unipotent``; ``fusion``,
``dseries-check`` and ``defect-bounds`` also ``fusion`` (and ``exceptional``
with a plugin); ``pi1`` adds ``abelian`` and ``rootdata``, the datum checks
also ``langlands``; ``grid`` runs those of its configured command.

Which parser an argv builds: see ``build_parser``.  How ``main`` treats
the garbage collector as a library call and as the program: see ``main``.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import sys
from functools import lru_cache

from . import (__version__, arith, exceptional, fusion, langlands, rootdata,
               unipotent)
from .errors import BlockatlasError, InvariantViolation, ParseError

ENGINE = "blockatlas"


class _Usage(Exception):
    """Flag-level misuse, reported structurally instead of argparse's exit."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


# --------------------------------------------------------------- rendering

def _group_json(group) -> dict:
    return {
        "structure": group.describe(),
        "free_rank": group.free_rank,
        "invariant_factors": list(group.invariant_factors),
        "order": group.order(),
    }


def _series_json(part) -> dict:
    return {
        "type": str(part.group_type),
        "d": part.d,
        "context": part.context,
        "class_count": part.class_count,
        "touches_degenerate": part.touches_degenerate,
        "blocks": [
            {"core": key, "members": [lab.render() for lab in members]}
            for key, members in part.blocks],
    }


def _bounds_json(report) -> dict:
    return {
        "kind": report.kind,
        "all_ok": report.all_ok,
        "rows": [row._asdict() for row in report.rows],
    }


# ------------------------------------------------------------------ inputs

@lru_cache(maxsize=None)
def _load_datum_text(text: str):
    """One parsed and validated datum per distinct file text."""
    return rootdata.load_datum(text)


def _resolve_datum(ref: str):
    """(datum, quasi_split) from a catalog: name or a JSON file path.

    A file is read on every call; its datum is built once per distinct text,
    so a rewritten file is loaded again."""
    if ref.startswith("catalog:"):
        name = ref[len("catalog:"):]
        entries = rootdata.catalog()
        if name not in entries:
            raise ParseError(f"unknown catalog entry {name!r}; "
                             f"names: {', '.join(sorted(entries))}")
        entry = entries[name]
        return entry.datum, entry.quasi_split
    with open(ref, "r", encoding="utf-8") as handle:
        text = handle.read()
    return _load_datum_text(text), True


def _parse_int(token: str, lineno: int | None) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}",
                         line=lineno) from None


MAX_INT_LIST = 65_536  # values one integer list may name; no option moves it


def _parse_int_list(value: str, lineno: int | None = None) -> list[int]:
    """The sorted distinct integers of comma-separated tokens and ``a-b``
    inclusive ranges: a grid's integer list, and ``--D``.  The values are
    counted, repeats included, from each range's endpoints before it is
    expanded; past ``MAX_INT_LIST`` the list is a ParseError."""
    out = []
    for token in value.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" in token[1:]:  # "a-b" inclusive range; "-5" is a single token
            lo_s, _, hi_s = token.partition("-")
            lo = _parse_int(lo_s.strip(), lineno)
            hi = _parse_int(hi_s.strip(), lineno)
            if hi < lo:
                raise ParseError(f"empty range {token!r}", line=lineno)
            count = hi - lo + 1
        else:
            lo = hi = _parse_int(token, lineno)
            count = 1
        if len(out) + count > MAX_INT_LIST:
            raise ParseError(f"integer list names more than {MAX_INT_LIST} "
                             f"values", line=lineno)
        out.extend(range(lo, hi + 1))
    if not out:
        raise ParseError("expected at least one integer", line=lineno)
    return sorted(set(out))


# ---------------------------------------------------------------- handlers

def _cmd_unipotent(args) -> dict:
    tag = arith.GroupTypeTag(args.type, args.rank)
    labels = unipotent.enumerate_labels(tag)
    return {
        "type": str(tag),
        "count": len(labels),
        "degenerate_pairs": sum(1 for lab in labels if lab.marker) // 2,
        "labels": [lab.render() for lab in labels],
    }


def _cmd_series(args) -> dict:
    tag = arith.GroupTypeTag(args.type, args.rank)
    return _series_json(unipotent.d_series(tag, args.d))


def _cmd_blocks(args) -> dict:
    tag = arith.GroupTypeTag(args.type, args.rank)
    q = arith.PrimePower.from_q(args.q)
    return _series_json(unipotent.ell_blocks(tag, q, args.ell))


def _plugin(path):
    return exceptional.ExceptionalPlugin.load(path) if path else None


def _fusion_payload(args) -> dict:
    plugin = _plugin(args.plugin)
    tag = arith.GroupTypeTag(args.type, args.rank)
    res = fusion.fusion_closure(tag, arith.PrimePower.from_q(args.q),
                                d_max=args.dmax, plugin=plugin)
    return {
        "type": str(res.group_type),
        "q": res.q.q,
        "d_max": res.d_max,
        "admissible": {str(d): ell for d, ell in sorted(res.admissible.items())},
        "class_count": res.class_count,
        "verdict": res.verdict,
        "classes": [list(cls) for cls in res.classes],
        "certificate": [
            {"a": ev.label_a, "b": ev.label_b, "d": ev.d, "ell": ev.ell}
            for ev in res.certificate],
        "touches_degenerate": res.touches_degenerate,
        "plugin_type": res.plugin_type,
    }


def _cmd_dseries_check(args) -> dict:
    tag = arith.GroupTypeTag(args.type, args.rank)
    join = fusion.is_single_D_series(tag, _parse_int_list(",".join(args.D)),
                                     plugin=_plugin(args.plugin))
    return {
        "type": str(tag),
        "D": list(join.D),
        "single": join.single,
        "class_count": len(join.classes),
        "classes": [list(cls) for cls in join.classes],
    }


def _cmd_defect_bounds(args) -> dict:
    tag = arith.GroupTypeTag(args.type, args.rank)
    primary = _bounds_json(fusion.defect_bound_report(tag))
    derived = (_bounds_json(fusion.derived_inequality_check(tag))
               if tag.rank >= 2 else None)
    return {"type": str(tag), "primary": primary, "derived": derived}


def _zsygmondy_payload(args) -> dict:
    witness = arith.primitive_prime(args.q, args.d, frozenset({2}))
    return {"q": args.q, "d": args.d, "witness": witness,
            "exists": witness is not None}


def _cmd_pi1(args) -> dict:
    datum, _ = _resolve_datum(args.datum)
    group = rootdata.pi1(datum)
    target = rootdata.kottwitz_target(datum)
    result = {
        "datum": args.datum,
        "pi1": _group_json(group),
        "kottwitz_target": _group_json(target),
        "p": args.p,
    }
    if args.p is not None:
        result["pi1_p_torsion"] = _group_json(group.p_torsion(args.p))
        result["kottwitz_p_torsion"] = _group_json(target.p_torsion(args.p))
    return result


def _datum_payload(args) -> dict:
    """``bijection``, ``cornqs`` and ``components``."""
    datum, quasi = _resolve_datum(args.datum)
    if args.command == "bijection":
        body = langlands.bijection_check(datum, args.p, quasi_split=quasi)
    elif args.command == "cornqs":
        body = langlands.cornqs_check(datum, args.p, quasi_split=quasi)
    else:
        body = langlands.component_lemma_checks(datum, args.p)
    return {"datum": args.datum, **body.as_dict()}


# -------------------------------------------------------------------- grid

def _grid_commands() -> list:
    """The commands whose every argument has a grid key."""
    return [name for name, (_handler, _help, arguments) in _COMMANDS.items()
            if all(grid for _flag, _options, grid in arguments)]


def parse_grid_config(text: str) -> dict:
    """Flat ``key = value`` lines; ``#`` starts a comment.  The keys are
    ``command`` and the grid keys of the arguments in ``_COMMANDS``: a list
    key (commas, and ``a-b`` ranges for integers) where the argument varies
    per cell, one value where it holds for the whole grid, integers where
    the flag has ``type=int``.  A key the configured command does not read
    is an error, and so is a list key it reads that the config omits."""
    kinds = {grid[0]: (len(grid) == 2, options.get("type") is int)
             for _handler, _help, arguments in _COMMANDS.values()
             for _flag, options, grid in arguments if grid}
    kinds["command"] = (False, False)  # key -> (list key, integer)
    cfg: dict = {}
    lines: dict = {}  # key -> its line number
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key = value", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in cfg:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        if key not in kinds:
            raise ParseError(f"unknown key {key!r}", line=lineno)
        lines[key] = lineno
        listed, integer = kinds[key]
        if listed and integer:
            cfg[key] = _parse_int_list(value, lineno)
        elif listed:
            # repeats dropped, first occurrence kept, as integer lists do
            items = list(dict.fromkeys(
                t.strip() for t in value.split(",") if t.strip()))
            if not items:
                raise ParseError(f"{key} must list at least one item",
                                 line=lineno)
            cfg[key] = items
        elif integer:
            cfg[key] = _parse_int(value, lineno)
        elif not value:
            raise ParseError(f"{key} must not be empty", line=lineno)
        else:
            cfg[key] = value
    if "command" not in cfg:
        raise ParseError('config must set "command"')
    command = cfg["command"]
    runnable = _grid_commands()
    if command not in runnable:
        raise ParseError(f"grid cannot run command {command!r}; "
                         f"choices: {', '.join(runnable)}")
    arguments = _COMMANDS[command][2]
    read = {grid[0] for _flag, _options, grid in arguments}
    for key in cfg:
        if key != "command" and key not in read:
            raise ParseError(f"command {command!r} does not read key {key!r}",
                             line=lines[key])
    for _flag, _options, grid in arguments:
        if len(grid) == 2 and grid[0] not in cfg:
            raise ParseError(f"command {command!r} needs key {grid[0]!r}")
    return cfg


def _grid_jobs(cfg: dict) -> list:
    """[(cell key, namespace), ...]: the product of the command's list keys
    in argument order, each cell with the namespace its standalone run
    parses to."""
    fixed = {"command": cfg["command"], "pretty": False}
    dests, cells, values = [], [], []
    for flag, _options, grid in _COMMANDS[cfg["command"]][2]:
        if len(grid) == 2:
            dests.append(flag[2:])
            cells.append(grid[1])
            values.append(cfg[grid[0]])
        else:
            fixed[flag[2:]] = cfg.get(grid[0])
    return [(dict(zip(cells, cell)),
             argparse.Namespace(**fixed, **dict(zip(dests, cell))))
            for cell in itertools.product(*values)]


def _cmd_grid(args) -> dict:
    with open(args.config, "r", encoding="utf-8") as handle:
        cfg = parse_grid_config(handle.read())
    handler = _COMMANDS[cfg["command"]][0]
    entries = [{"key": key, **_outcome(handler, cell)}
               for key, cell in _grid_jobs(cfg)]
    counts = {
        "ok": sum(1 for e in entries if e["status"] == "ok"),
        "error": sum(1 for e in entries if e["status"] == "error"),
    }
    return {"config": cfg, "jobs": entries, "counts": counts}


# ----------------------------------------------------------------- plumbing

def _report(command: str, inputs: dict, **outcome) -> dict:
    return {
        "schema": "report_v1",
        "engine": {"name": ENGINE, "version": __version__},
        "command": command,
        "inputs": inputs,
        "seed": None,
        **outcome,
    }


def _failure(exc: Exception, code: str | None = None) -> dict:
    """The error outcome of ``exc``: its class name (or ``code``) and its
    message, and the line and column a ParseError names."""
    error = {"code": code or type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError):
        context = {key: value for key, value in
                   (("line", exc.line), ("column", exc.column))
                   if value is not None}
        if context:
            error["context"] = context
    return {"status": "error", "error": error}


def _outcome(handler, args) -> dict:
    """``handler(args)`` as ``{"status": "ok", "result": ...}``, or as the
    error outcome of the precondition failure it raised.  An
    InvariantViolation is a defect, not an outcome, so it propagates."""
    try:
        return {"status": "ok", "result": handler(args)}
    except (BlockatlasError, ValueError, OSError) as exc:
        return _failure(exc)


def _inputs_echo(args) -> dict:
    return {key: value for key, value in sorted(vars(args).items())
            if key not in ("command", "pretty")}


def _emit(doc: dict, pretty: bool) -> None:
    """Write the report and a newline to stdout, every byte.  Unbuffered
    (``python -u``), stdout's text layer sits on a raw file whose write can
    return short, e.g. when a stop signal interrupts a write blocked on a
    full pipe, and the text layer drops the rest; so the bytes go to the
    binary layer until all are taken.  A text-only stream gets one write."""
    if pretty:
        text = json.dumps(doc, sort_keys=True, indent=2)
    else:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    out = sys.stdout
    binary = getattr(out, "buffer", None)
    if binary is None:
        out.write(text + "\n")
        return
    out.flush()
    data = memoryview((text + "\n").encode(out.encoding))
    while data:
        written = binary.write(data)
        if not written:  # None: a non-blocking stdout that would block
            raise OSError("stdout took no bytes of the report")
        data = data[written:]
    binary.flush()


def _required_int(flag: str, *grid: str) -> tuple:
    return flag, {"required": True, "type": int}, grid


_TYPED = (("--type", {"required": True, "metavar": "FAMILY", "help":
                      "family token, e.g. B or 2A"}, ("families", "family")),
          _required_int("--rank", "ranks", "rank"))
_DATUM = ("--datum", {"required": True, "help": "catalog:NAME or a JSON "
                      "datum file"}, ("data", "datum"))
_DATUM_AT_P = (_DATUM, _required_int("--p", "primes", "p"))

# Every subcommand once: its handler, its help line and its arguments as
# (flag, add_argument options, grid key) after ``--pretty``.  The grid key
# is (list key, cell key) for an argument a grid varies per cell, (key,)
# for one it holds for the whole grid, and () where a grid cannot give it;
# a grid can run a command whose every argument has a grid key.
_COMMANDS = {
    "unipotent": (_cmd_unipotent,
                  "list the unipotent labels of a classical type", _TYPED),
    "series": (_cmd_series, "partition the labels into d-series",
               _TYPED + (_required_int("--d", "ds", "d"),)),
    "blocks": (_cmd_blocks, "partition the labels into ell-blocks at q",
               _TYPED + (_required_int("--q", "qs", "q"),
                         _required_int("--ell", "ells", "ell"))),
    "fusion": (_fusion_payload, "close the d-series under all admissible d",
               _TYPED + (
                   _required_int("--q", "qs", "q"),
                   ("--dmax", {"type": int, "help": "largest d to consider "
                               "(default 2(rank+1))"}, ("dmax",)),
                   ("--plugin", {"metavar": "FILE", "help": "exceptional_v1 "
                                 "data file for non-classical types"},
                    ("plugin",)))),
    "dseries-check": (_cmd_dseries_check,
                      "is the join of the given d-series a single class",
                      _TYPED + (("--D", {"required": True, "nargs": "+",
                                         "metavar": "D",
                                         "help": "d values, space or comma "
                                                 "separated"}, ()),
                                ("--plugin", {"metavar": "FILE"},
                                 ("plugin",)))),
    "defect-bounds": (_cmd_defect_bounds,
                      "defect bounds for every occurring 1-series core",
                      _TYPED),
    "zsygmondy": (_zsygmondy_payload,
                  "smallest odd prime at which q has order exactly d",
                  (_required_int("--q", "qs", "q"),
                   _required_int("--d", "ds", "d"))),
    "pi1": (_cmd_pi1, "fundamental group and its arithmetic target",
            (_DATUM, ("--p", {"type": int}, ("primes", "p")))),
    "components": (_datum_payload, "component-group route comparisons at p",
                   _DATUM_AT_P),
    "bijection": (_datum_payload,
                  "group-side vs dual-side torsor orders at p", _DATUM_AT_P),
    "cornqs": (_datum_payload, "triviality criterion for the p-part of pi1",
               _DATUM_AT_P),
    "grid": (_cmd_grid, "run grid cells in expansion order on one thread",
             (("--config", {"required": True, "metavar": "FILE", "help":
                            "flat key = value grid description"}, ()),)),
}


def build_parser(command: str | None = None) -> _Parser:
    """The ``blockatlas`` parser with every subparser, or with ``command``'s
    alone.  A subcommand's help, namespace and usage errors are the same
    either way; the parent's help and its errors (no command, an unknown
    one) list every subcommand, so they need the full parser."""
    parser = _Parser(
        prog="blockatlas",
        description="Series/block combinatorics and torsor checks, "
                    "reported as report_v1 JSON documents.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")
    for name in (command,) if command else _COMMANDS:
        _handler, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--pretty", action="store_true",
                       help="indent the report (still key-sorted)")
        for flag, options, _grid in arguments:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    ``main(argv)`` is a library call and leaves the garbage collector alone,
    so tests and tracers keep a live one.  ``main()`` is the program
    (``sys.exit(main())``): it reads ``sys.argv``, disables the collector
    for the command and, however the command ends, freezes it, so the
    collections of interpreter shutdown skip every object still alive;
    atexit callbacks still run and stdio is still flushed.  Either mode
    builds one subparser when the argv starts with a subcommand and the
    full parser otherwise (see ``build_parser``)."""
    if argv is not None:
        return _run(list(argv))
    gc.disable()
    try:
        return _run(sys.argv[1:])
    finally:
        gc.freeze()


def _run(argv: list) -> int:
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except _Usage as exc:
        _emit(_report(argv[0] if argv else "", {"argv": argv},
                      **_failure(exc, "UsageError")), pretty=False)
        return 2
    try:
        outcome = _outcome(_COMMANDS[args.command][0], args)
        code = 0 if outcome["status"] == "ok" else 2
    except InvariantViolation as exc:
        outcome, code = _failure(exc), 1
    _emit(_report(args.command, _inputs_echo(args), **outcome), args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
