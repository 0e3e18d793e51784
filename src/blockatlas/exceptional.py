"""Loadable label and series data for families without a built-in enumerator.

The classical families carry their own combinatorial label model; the
exceptional ones do not, so their label sets and series partitions are
supplied as data.  This module validates such a data file and exposes it
through the same two-method interface the fusion machinery consumes:
``labels(family)`` and ``series_blocks(family, d)``.

File format (JSON)::

    {
      "schema": "exceptional_v1",
      "families": {
        "G2": {
          "labels": ["1", "eps", "theta'", "theta''"],
          "series": {
            "3": [{"core": "c0", "members": ["1", "theta'"]}]
          }
        }
      }
    }

Every ``members`` list must draw from the family's ``labels``, and within
one value of ``d`` the blocks must be pairwise disjoint with distinct
``core`` keys.  Labels absent from every block of a given ``d`` are
singletons for that ``d``; a ``d`` absent from ``series`` has only
singletons.  No data ships with the package.
"""
from __future__ import annotations

import json

from .errors import NotSupported, ParseError

SCHEMA_TAG = "exceptional_v1"


def _require_str_list(value, what: str) -> list[str]:
    if not isinstance(value, list) or not value:
        raise ParseError(f"{what} must be a non-empty array")
    out = []
    for item in value:
        if not isinstance(item, str) or not item:
            raise ParseError(f"{what} entries must be non-empty strings")
        out.append(item)
    if len(set(out)) != len(out):
        raise ParseError(f"{what} entries must be distinct")
    return out


class ExceptionalPlugin:
    """Validated label/series tables keyed by family name."""

    def __init__(self, tables: dict):
        # tables: family -> (labels, {d: [(core, members), ...]})
        self._tables = tables

    # -------------------------------------------------------- constructors

    @classmethod
    def from_dict(cls, data) -> "ExceptionalPlugin":
        if not isinstance(data, dict):
            raise ParseError("top level must be an object")
        if data.get("schema") != SCHEMA_TAG:
            raise ParseError(f'"schema" must be "{SCHEMA_TAG}"')
        families = data.get("families")
        if not isinstance(families, dict) or not families:
            raise ParseError('"families" must be a non-empty object')
        tables = {}
        for name, body in families.items():
            if not isinstance(name, str) or not name:
                raise ParseError("family names must be non-empty strings")
            tables[name] = cls._parse_family(name, body)
        return cls(tables)

    @classmethod
    def loads(cls, text: str) -> "ExceptionalPlugin":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "ExceptionalPlugin":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())

    @staticmethod
    def _parse_family(name: str, body) -> tuple:
        if not isinstance(body, dict):
            raise ParseError(f"family {name!r} must be an object")
        labels = _require_str_list(body.get("labels"), f"family {name!r} labels")
        label_set = set(labels)
        series_raw = body.get("series", {})
        if not isinstance(series_raw, dict):
            raise ParseError(f'family {name!r} "series" must be an object')
        series = {}
        for key, blocks_raw in series_raw.items():
            try:
                d = int(key)
            except (TypeError, ValueError):
                d = 0
            if d < 1 or str(d) != key:
                raise ParseError(
                    f"family {name!r} series key {key!r} is not a positive integer")
            if not isinstance(blocks_raw, list):
                raise ParseError(f"family {name!r} series {key!r} must be an array")
            blocks = []
            seen_labels: set = set()
            seen_cores: set = set()
            for block in blocks_raw:
                if not isinstance(block, dict):
                    raise ParseError(
                        f"family {name!r} series {key!r} blocks must be objects")
                core = block.get("core")
                if not isinstance(core, str) or not core:
                    raise ParseError(
                        f'family {name!r} series {key!r}: "core" must be a '
                        "non-empty string")
                if core in seen_cores:
                    raise ParseError(
                        f"family {name!r} series {key!r}: duplicate core {core!r}")
                seen_cores.add(core)
                members = _require_str_list(
                    block.get("members"),
                    f"family {name!r} series {key!r} core {core!r} members")
                for member in members:
                    if member not in label_set:
                        raise ParseError(
                            f"family {name!r} series {key!r}: member {member!r} "
                            "is not a declared label")
                    if member in seen_labels:
                        raise ParseError(
                            f"family {name!r} series {key!r}: label {member!r} "
                            "appears in two blocks")
                    seen_labels.add(member)
                blocks.append((core, members))
            series[d] = sorted(blocks)
        return labels, series

    # ----------------------------------------------------------- interface

    def _family(self, family: str) -> tuple:
        if family not in self._tables:
            raise NotSupported(f"no data for family {family}")
        return self._tables[family]

    def labels(self, family: str) -> list[str]:
        return list(self._family(family)[0])

    def series_blocks(self, family: str, d: int) -> list[tuple]:
        """[(core, [labels...]), ...] for the d-series; [] means all singletons."""
        _labels, series = self._family(family)
        return [(core, list(members)) for core, members in series.get(d, [])]
