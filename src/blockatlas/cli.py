"""Command-line front end emitting versioned JSON reports.

Every invocation prints exactly one ``report_v1`` JSON document to stdout
and exits 0 on success, 2 on a precondition/usage failure (the report then
carries ``status: "error"``), or 1 when an internal invariant check fails.
Reports contain no timestamps and all keys are emitted sorted, so repeating
an invocation reproduces the output byte for byte.  ``--pretty`` switches
from compact separators to two-space indentation; both renderings are
deterministic.

Root data are addressed either as ``catalog:NAME`` (built-in examples,
which carry their own quasi-splitness metadata) or as a path to a JSON
datum file (treated as quasi-split).  ``grid`` runs the cells of a parameter
grid in expansion order on one thread and lists them in that order; the
``workers`` config key is accepted and echoed for compatibility but does not
change the output.

Handlers reach the layers through the package's lazily run modules, so a
process runs, and without a bytecode cache compiles, only its command's
layers: ``zsygmondy`` runs ``arith``; ``unipotent``, ``series`` and ``blocks``
add ``limits``, ``partitions``, ``symbols`` and ``unipotent``; ``fusion``,
``dseries-check`` and ``defect-bounds`` also ``fusion`` (and ``exceptional``
with a plugin); ``pi1`` adds ``abelian`` and ``rootdata``, the datum checks
also ``langlands``; ``grid`` runs those of its configured command.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache, partial

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


def _fusion_json(res) -> dict:
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


def _bounds_json(report) -> dict:
    return {
        "kind": report.kind,
        "all_ok": report.all_ok,
        "rows": [
            {"core": row.core, "defect": row.defect, "lhs": row.lhs,
             "rhs": row.rhs, "satisfied": row.satisfied,
             "base_case": row.base_case}
            for row in report.rows],
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


def _int_tokens(tokens) -> list[int]:
    out = []
    for token in tokens:
        for piece in str(token).split(","):
            piece = piece.strip()
            if not piece:
                continue
            try:
                out.append(int(piece))
            except ValueError:
                raise ValueError(f"expected an integer, got {piece!r}") from None
    return out


# ------------------------------------------------------- command payloads
# Shared by the single commands and by grid jobs so that a grid cell is
# byte-identical to the standalone run.

def _fusion_payload(family: str, rank: int, q: int, dmax, plugin) -> dict:
    tag = arith.GroupTypeTag(family, rank)
    res = fusion.fusion_closure(tag, arith.PrimePower.from_q(q), d_max=dmax,
                                plugin=plugin)
    return _fusion_json(res)


def _zsygmondy_payload(q: int, d: int) -> dict:
    witness = arith.primitive_prime(q, d, arith.GoodnessFilter(odd_only=True))
    return {"q": q, "d": d, "witness": witness, "exists": witness is not None}


def _datum_payload(command: str, ref: str, p: int) -> dict:
    datum, quasi = _resolve_datum(ref)
    if command == "bijection":
        body = langlands.bijection_check(datum, p, quasi_split=quasi).as_dict()
    elif command == "cornqs":
        body = langlands.cornqs_check(datum, p, quasi_split=quasi).as_dict()
    else:
        body = langlands.component_lemma_checks(datum, p).as_dict()
    return {"datum": ref, **body}


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


def _cmd_fusion(args) -> dict:
    return _fusion_payload(args.type, args.rank, args.q, args.dmax,
                           _plugin(args.plugin))


def _cmd_dseries_check(args) -> dict:
    tag = arith.GroupTypeTag(args.type, args.rank)
    join = fusion.is_single_D_series(tag, _int_tokens(args.D),
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


def _cmd_zsygmondy(args) -> dict:
    return _zsygmondy_payload(args.q, args.d)


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


def _cmd_datum_check(args) -> dict:
    return _datum_payload(args.command, args.datum, args.p)


# -------------------------------------------------------------------- grid

_INT_LIST_KEYS = ("ranks", "qs", "ds", "primes")
_STR_LIST_KEYS = ("families", "data")
_INT_KEYS = ("dmax", "workers")
_STR_KEYS = ("command", "plugin")
_GRID_COMMANDS = ("fusion", "zsygmondy", "bijection", "cornqs", "components")


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}",
                         line=lineno) from None


def _parse_int_list(value: str, lineno: int) -> list[int]:
    out = []
    for token in value.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" in token[1:]:  # "a-b" inclusive range; negatives never occur
            lo_s, _, hi_s = token.partition("-")
            lo = _parse_int(lo_s.strip(), lineno)
            hi = _parse_int(hi_s.strip(), lineno)
            if hi < lo:
                raise ParseError(f"empty range {token!r}", line=lineno)
            out.extend(range(lo, hi + 1))
        else:
            out.append(_parse_int(token, lineno))
    if not out:
        raise ParseError("expected at least one integer", line=lineno)
    return sorted(set(out))


def parse_grid_config(text: str) -> dict:
    """Flat ``key = value`` lines; ``#`` starts a comment; lists use commas
    and integer lists accept ``a-b`` ranges."""
    cfg: dict = {}
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
        if key in _INT_LIST_KEYS:
            cfg[key] = _parse_int_list(value, lineno)
        elif key in _STR_LIST_KEYS:
            items = [t.strip() for t in value.split(",") if t.strip()]
            if not items:
                raise ParseError(f"{key} must list at least one item",
                                 line=lineno)
            cfg[key] = items
        elif key in _INT_KEYS:
            cfg[key] = _parse_int(value, lineno)
        elif key in _STR_KEYS:
            if not value:
                raise ParseError(f"{key} must not be empty", line=lineno)
            cfg[key] = value
        else:
            raise ParseError(f"unknown key {key!r}", line=lineno)
    if "command" not in cfg:
        raise ParseError('config must set "command"')
    if cfg["command"] not in _GRID_COMMANDS:
        raise ParseError(f"grid cannot run command {cfg['command']!r}; "
                         f"choices: {', '.join(_GRID_COMMANDS)}")
    if cfg.get("workers", 1) < 1:
        raise ParseError("workers must be >= 1")
    return cfg


def _need(cfg: dict, key: str):
    if key not in cfg:
        raise ParseError(f"command {cfg['command']!r} needs key {key!r}")
    return cfg[key]


def _grid_jobs(cfg: dict) -> list:
    """[(key dict, thunk), ...] in deterministic expansion order."""
    command = cfg["command"]
    jobs = []
    if command == "fusion":
        plugin = _plugin(cfg.get("plugin"))
        for family in _need(cfg, "families"):
            for rank in _need(cfg, "ranks"):
                for q in _need(cfg, "qs"):
                    jobs.append((
                        {"family": family, "rank": rank, "q": q},
                        partial(_fusion_payload, family, rank, q,
                                cfg.get("dmax"), plugin)))
    elif command == "zsygmondy":
        for q in _need(cfg, "qs"):
            for d in _need(cfg, "ds"):
                jobs.append(({"q": q, "d": d},
                             partial(_zsygmondy_payload, q, d)))
    else:
        for ref in _need(cfg, "data"):
            for p in _need(cfg, "primes"):
                jobs.append(({"datum": ref, "p": p},
                             partial(_datum_payload, command, ref, p)))
    return jobs


def _cmd_grid(args) -> dict:
    with open(args.config, "r", encoding="utf-8") as handle:
        cfg = parse_grid_config(handle.read())
    entries = []
    for key, thunk in _grid_jobs(cfg):
        try:
            entries.append({"key": key, "status": "ok", "result": thunk()})
        except (BlockatlasError, ValueError, OSError) as exc:
            entries.append({"key": key, "status": "error",
                            "error": {"code": type(exc).__name__,
                                      "message": str(exc)}})
    counts = {
        "ok": sum(1 for e in entries if e["status"] == "ok"),
        "error": sum(1 for e in entries if e["status"] == "error"),
    }
    return {"config": cfg, "jobs": entries, "counts": counts}


# ----------------------------------------------------------------- plumbing

_HANDLERS = {
    "unipotent": _cmd_unipotent,
    "series": _cmd_series,
    "blocks": _cmd_blocks,
    "fusion": _cmd_fusion,
    "dseries-check": _cmd_dseries_check,
    "defect-bounds": _cmd_defect_bounds,
    "zsygmondy": _cmd_zsygmondy,
    "pi1": _cmd_pi1,
    "components": _cmd_datum_check,
    "bijection": _cmd_datum_check,
    "cornqs": _cmd_datum_check,
    "grid": _cmd_grid,
}


def _report(command: str, inputs: dict, **outcome) -> dict:
    return {
        "schema": "report_v1",
        "engine": {"name": ENGINE, "version": __version__},
        "command": command,
        "inputs": inputs,
        "seed": None,
        **outcome,
    }


def _error_report(command: str, inputs: dict, code: str, message: str,
                  context: dict | None = None) -> dict:
    error = {"code": code, "message": message}
    if context:
        error["context"] = context
    return _report(command, inputs, status="error", error=error)


def _inputs_echo(args) -> dict:
    return {key: value for key, value in sorted(vars(args).items())
            if key not in ("command", "pretty")}


def _emit(doc: dict, pretty: bool) -> None:
    if pretty:
        text = json.dumps(doc, sort_keys=True, indent=2)
    else:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="blockatlas",
        description="Series/block combinatorics and torsor checks, "
                    "reported as report_v1 JSON documents.")
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true",
                        help="indent the report (still key-sorted)")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    def typed(name, help_text, **extra):
        p = sub.add_parser(name, parents=[pretty], help=help_text, **extra)
        p.add_argument("--type", required=True, metavar="FAMILY",
                       help="family token, e.g. B or 2A")
        p.add_argument("--rank", required=True, type=int)
        return p

    typed("unipotent", "list the unipotent labels of a classical type")

    p = typed("series", "partition the labels into d-series")
    p.add_argument("--d", required=True, type=int)

    p = typed("blocks", "partition the labels into ell-blocks at q")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--ell", required=True, type=int)

    p = typed("fusion", "close the d-series under all admissible d")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--dmax", type=int, default=None,
                   help="largest d to consider (default 2(rank+1))")
    p.add_argument("--plugin", default=None, metavar="FILE",
                   help="exceptional_v1 data file for non-classical types")

    p = typed("dseries-check", "is the join of the given d-series a single class")
    p.add_argument("--D", required=True, nargs="+", metavar="D",
                   help="d values, space or comma separated")
    p.add_argument("--plugin", default=None, metavar="FILE")

    typed("defect-bounds", "defect bounds for every occurring 1-series core")

    p = sub.add_parser("zsygmondy", parents=[pretty],
                       help="smallest odd prime at which q has order exactly d")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--d", required=True, type=int)

    def datum(name, help_text, p_required=True):
        p = sub.add_parser(name, parents=[pretty], help=help_text)
        p.add_argument("--datum", required=True,
                       help="catalog:NAME or a JSON datum file")
        p.add_argument("--p", type=int, required=p_required, default=None)
        return p

    datum("pi1", "fundamental group and its arithmetic target",
          p_required=False)
    datum("components", "component-group route comparisons at p")
    datum("bijection", "group-side vs dual-side torsor orders at p")
    datum("cornqs", "triviality criterion for the p-part of pi1")

    p = sub.add_parser("grid", parents=[pretty],
                       help="run grid cells in expansion order on one thread")
    p.add_argument("--config", required=True, metavar="FILE",
                   help="flat key = value grid description")

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as exc:
        _emit(_error_report(argv[0] if argv else "", {"argv": argv},
                            "UsageError", str(exc)), pretty=False)
        return 2
    handler = _HANDLERS[args.command]
    try:
        result = handler(args)
    except InvariantViolation as exc:
        _emit(_error_report(args.command, _inputs_echo(args),
                            "InvariantViolation", str(exc)), args.pretty)
        return 1
    except ParseError as exc:
        context = {}
        if exc.line is not None:
            context["line"] = exc.line
        if exc.column is not None:
            context["column"] = exc.column
        _emit(_error_report(args.command, _inputs_echo(args), "ParseError",
                            str(exc), context or None), args.pretty)
        return 2
    except (BlockatlasError, ValueError, OSError) as exc:
        _emit(_error_report(args.command, _inputs_echo(args),
                            type(exc).__name__, str(exc)), args.pretty)
        return 2
    _emit(_report(args.command, _inputs_echo(args), status="ok", result=result),
          args.pretty)
    return 0


if __name__ == "__main__":
    sys.exit(main())
