"""Tests for the loadable exceptional-family data plugin."""
import json
from importlib import resources

import pytest
from jsonschema import Draft202012Validator

from blockatlas.arith import GroupTypeTag, PrimePower
from blockatlas.errors import NotSupported, ParseError
from blockatlas.exceptional import ExceptionalPlugin
from blockatlas.fusion import fusion_closure, is_single_D_series

VALID = {
    "schema": "exceptional_v1",
    "families": {
        "G2": {
            "labels": ["a", "b", "c", "d", "e"],
            "series": {
                "3": [
                    {"core": "x", "members": ["a", "b"]},
                    {"core": "y", "members": ["c", "d"]},
                ],
                "4": [
                    {"core": "z", "members": ["b", "c", "e"]},
                ],
            },
        },
    },
}


def plugin():
    return ExceptionalPlugin.from_dict(VALID)


def test_accessors():
    pl = plugin()
    assert pl.labels("G2") == ["a", "b", "c", "d", "e"]
    assert pl.series_blocks("G2", 3) == [("x", ["a", "b"]), ("y", ["c", "d"])]
    assert pl.series_blocks("G2", 4) == [("z", ["b", "c", "e"])]
    # absent d: everything is a singleton, rendered as no blocks
    assert pl.series_blocks("G2", 7) == []


def test_unknown_family():
    pl = plugin()
    with pytest.raises(NotSupported):
        pl.labels("F4")
    with pytest.raises(NotSupported):
        pl.series_blocks("E8", 3)


def test_loads_and_load_roundtrip(tmp_path):
    text = json.dumps(VALID)
    pl = ExceptionalPlugin.loads(text)
    assert pl.labels("G2") == ["a", "b", "c", "d", "e"]
    path = tmp_path / "exc.json"
    path.write_text(text, encoding="utf-8")
    assert ExceptionalPlugin.load(path).series_blocks("G2", 4) == \
        [("z", ["b", "c", "e"])]


def test_json_error_carries_location():
    with pytest.raises(ParseError) as info:
        ExceptionalPlugin.loads('{\n  "schema": }')
    assert info.value.line == 2


def tweak(**kwargs):
    data = json.loads(json.dumps(VALID))
    data.update(kwargs)
    return data


def g2(**kwargs):
    data = json.loads(json.dumps(VALID))
    data["families"]["G2"].update(kwargs)
    return data


MALFORMED = [
    [],                                       # not an object
    tweak(schema="exceptional_v2"),           # wrong tag
    tweak(families={}),                       # no families
    tweak(families=[]),                       # families not an object
    g2(labels=[]),                            # empty label list
    g2(labels=["a", "a"]),                    # duplicate labels
    g2(labels=["a", 3]),                      # non-string label
    g2(series={"0": []}),                     # d must be positive
    g2(series={"03": []}),                    # non-canonical key
    g2(series={"two": []}),                   # non-numeric key
    g2(series={"3": {}}),                     # blocks not an array
    g2(series={"3": ["a"]}),                  # block not an object
    g2(series={"3": [{"core": "x", "members": ["a", "q"]}]}),   # unknown member
    g2(series={"3": [{"core": "x", "members": ["a", "a"]}]}),   # repeated member
    g2(series={"3": [{"core": "x", "members": []}]}),           # empty block
    g2(series={"3": [{"members": ["a"]}]}),                     # missing core
    g2(series={"3": [{"core": "x", "members": ["a"]},
                     {"core": "x", "members": ["b"]}]}),        # duplicate core
    g2(series={"3": [{"core": "x", "members": ["a", "b"]},
                     {"core": "y", "members": ["b"]}]}),        # overlapping blocks
    g2(series={"3\n": []}),                   # trailing newline in key
]


@pytest.mark.parametrize("bad", MALFORMED)
def test_rejects_malformed(bad):
    with pytest.raises(ParseError):
        ExceptionalPlugin.from_dict(bad)


def _with_extra_block_key():
    data = json.loads(json.dumps(VALID))
    data["families"]["G2"]["series"]["3"][0]["note"] = "ignored"
    return data


def _with_empty_family_name():
    data = json.loads(json.dumps(VALID))
    data["families"][""] = data["families"]["G2"]
    return data


# Documents the schema cannot judge: members outside the label list,
# overlapping blocks and duplicate cores within one d (loader-only rules).
LOADER_ONLY = [
    g2(series={"3": [{"core": "x", "members": ["a", "q"]}]}),
    g2(series={"3": [{"core": "x", "members": ["a"]},
                     {"core": "x", "members": ["b"]}]}),
    g2(series={"3": [{"core": "x", "members": ["a", "b"]},
                     {"core": "y", "members": ["b"]}]}),
]


def test_schema_agrees_with_loader():
    validator = Draft202012Validator(json.loads(
        resources.files("blockatlas").joinpath("exceptional_v1.schema.json")
        .read_text(encoding="utf-8")))
    accepted_by_both = [tweak(comment="ignored"),     # unknown top-level key
                        g2(comment="ignored"),        # unknown family key
                        _with_extra_block_key()]      # unknown block key
    for doc in [VALID] + MALFORMED + accepted_by_both + [_with_empty_family_name()]:
        try:
            ExceptionalPlugin.from_dict(doc)
            loader_ok = True
        except ParseError:
            loader_ok = False
        if doc in LOADER_ONLY:
            assert validator.is_valid(doc) and not loader_ok, doc
        else:
            assert validator.is_valid(doc) == loader_ok, doc
            assert loader_ok == (doc is VALID or doc in accepted_by_both), doc


def test_fusion_closure_through_plugin():
    tag = GroupTypeTag("G2", 2)
    res = fusion_closure(tag, PrimePower.from_q(2), plugin=plugin())
    # q=2: d=3 has witness 7, d=4 has witness 5; the two d=3 blocks are
    # bridged by the d=4 block, so everything collapses.
    assert res.admissible[3] == 7
    assert res.admissible[4] == 5
    assert 2 not in res.admissible          # only witness 3 is bad here
    assert 6 not in res.admissible          # no prime has order 6 mod 2
    assert res.verdict == "single_class"
    assert res.classes == (("a", "b", "c", "d", "e"),)
    assert res.plugin_type == "G2"
    res.validate()


def test_fusion_without_plugin_refuses():
    tag = GroupTypeTag("G2", 2)
    with pytest.raises(NotSupported):
        fusion_closure(tag, PrimePower.from_q(2))


def test_d_series_join_through_plugin():
    tag = GroupTypeTag("G2", 2)
    join = is_single_D_series(tag, {3, 4}, plugin=plugin())
    assert join.single
    assert is_single_D_series(tag, {3}, plugin=plugin()).single is False
