"""Label enumeration, d-series, ℓ-blocks."""

import pytest

from blockatlas.arith import GroupTypeTag, PrimePower
from blockatlas.errors import (
    BadPrimeHypothesis,
    BoundExceeded,
    InvariantViolation,
    NotSupported,
)
from blockatlas.unipotent import (
    SeriesPartition,
    UnipotentLabel,
    d_series,
    ell_blocks,
    enumerate_labels,
)

A1 = GroupTypeTag("A", 1)
A2 = GroupTypeTag("A", 2)
TA2 = GroupTypeTag("2A", 2)
B1 = GroupTypeTag("B", 1)
B2 = GroupTypeTag("B", 2)
D2 = GroupTypeTag("D", 2)
TD2 = GroupTypeTag("2D", 2)


def block_sets(part):
    return {frozenset(lab.render() for lab in members) for _, members in part.blocks}


# ------------------------------------------------------------ enumeration

def test_enumerate_a1():
    labs = enumerate_labels(A1)
    assert [lab.render() for lab in labs] == ["(2)", "(1,1)"]


def test_enumerate_counts_frozen():
    assert len(enumerate_labels(B2)) == 6
    assert len(enumerate_labels(GroupTypeTag("C", 2))) == 6
    assert len(enumerate_labels(D2)) == 4          # one degenerate pair
    assert len(enumerate_labels(TD2)) == 2
    assert len(enumerate_labels(GroupTypeTag("B", 3))) == 12
    # D3 is A3 in disguise: 5 labels, none degenerate
    assert len(enumerate_labels(GroupTypeTag("D", 3))) == 5
    assert len(enumerate_labels(GroupTypeTag("A", 3))) == 5


def test_degenerate_markers():
    labs = enumerate_labels(D2)
    marked = [lab for lab in labs if lab.marker]
    assert len(marked) == 2
    assert {lab.marker for lab in marked} == {"′", "″"}
    assert marked[0].payload == marked[1].payload
    assert {lab.render() for lab in marked} == {"({1},{1})′", "({1},{1})″"}


def test_enumerate_deterministic_and_unique():
    for tag in (A2, TA2, B2, D2, TD2, GroupTypeTag("C", 4)):
        labs = enumerate_labels(tag)
        assert labs == enumerate_labels(tag)
        assert len(set(labs)) == len(labs)


def test_enumerate_exceptional_rejected():
    with pytest.raises(NotSupported):
        enumerate_labels(GroupTypeTag("G2", 2))


def test_enumerate_bound():
    with pytest.raises(BoundExceeded):
        enumerate_labels(GroupTypeTag("B", 11))
    with pytest.raises(BoundExceeded):
        enumerate_labels(GroupTypeTag("A", 30))


def test_cached_labels_and_series_respect_rank_bound(monkeypatch):
    b8 = GroupTypeTag("B", 8)
    labels = enumerate_labels(b8)
    expected = list(labels)
    labels.clear()
    labels.append(UnipotentLabel(b8, "tampered"))
    assert enumerate_labels(b8) == expected
    part = d_series(b8, 3)
    part.context["tampered"] = True
    assert d_series(b8, 3).context == {"kind": "d_series", "d": 3}
    monkeypatch.setenv("BLOCKATLAS_MAX_RANK", "3")
    with pytest.raises(BoundExceeded):
        enumerate_labels(b8)
    with pytest.raises(BoundExceeded):
        d_series(b8, 3)


# --------------------------------------------------------------- d-series

def test_a2_series_frozen():
    s2 = d_series(A2, 2)
    assert block_sets(s2) == {frozenset({"(3)", "(1,1,1)"}), frozenset({"(2,1)"})}
    s3 = d_series(A2, 3)
    assert s3.class_count == 1


def test_a_type_single_1_series():
    for n in range(1, 11):
        assert d_series(GroupTypeTag("A", n), 1).class_count == 1


def test_twisted_a_single_2_series():
    for n in range(1, 11):
        assert d_series(GroupTypeTag("2A", n), 2).class_count == 1


def test_twisted_a2_1_series():
    # ennola_dual(1) = 2: group by 2-core
    part = d_series(TA2, 1)
    assert block_sets(part) == {frozenset({"(3)", "(1,1,1)"}), frozenset({"(2,1)"})}


def test_b1_single_1_series():
    part = d_series(B1, 1)
    assert part.class_count == 1
    assert part.blocks[0][0] == "({0},{})"


def test_b2_even_d_series_frozen():
    # d = 2 -> 1-cohook cores: ({0,2},{1}) is stuck, everything else drains
    part = d_series(B2, 2)
    assert block_sets(part) == {
        frozenset({"({2},{})", "({0,1},{2})", "({1,2},{0})",
                   "({0,1,2},{})", "({0,1,2},{1,2})"}),
        frozenset({"({0,2},{1})"}),
    }
    # d = 4 -> 2-cohook cores
    part4 = d_series(B2, 4)
    assert block_sets(part4) == {
        frozenset({"({2},{})", "({0,2},{1})", "({0,1,2},{})", "({0,1,2},{1,2})"}),
        frozenset({"({0,1},{2})"}),
        frozenset({"({1,2},{0})"}),
    }


def test_degenerate_labels_travel_together():
    for d in range(1, 6):
        part = d_series(D2, d)
        assert part.touches_degenerate
        for _, members in part.blocks:
            marks = {lab.marker for lab in members if lab.marker}
            assert marks in (set(), {"′", "″"})


def test_series_validation_rejects_tampering():
    part = d_series(A2, 2)
    # swap a label into the wrong block
    (k1, m1), (k2, m2) = part.blocks
    bad = SeriesPartition(A2, 2, ((k1, m1 + (m2[0],)), (k2, m2[1:])), {})
    with pytest.raises(InvariantViolation):
        bad.validate()
    # drop a label entirely
    bad2 = SeriesPartition(A2, 2, ((k1, m1), (k2, m2[:0])), {})
    with pytest.raises(InvariantViolation):
        bad2.validate()


# ---------------------------------------------------------------- ℓ-blocks

def test_ell_blocks_a2_frozen():
    part = ell_blocks(A2, PrimePower.from_q(2), 7)
    assert part.class_count == 1
    assert part.context == {"kind": "ell_blocks", "ell": 7, "q": 2, "d": 3}


def test_ell_blocks_b2_frozen():
    part = ell_blocks(B2, PrimePower.from_q(4), 5)
    assert part.context["d"] == 2
    assert block_sets(part) == block_sets(d_series(B2, 2))


def test_ell_blocks_hypotheses():
    with pytest.raises(BadPrimeHypothesis, match="even"):
        ell_blocks(B2, PrimePower.from_q(4), 2)
    # the only odd bad primes live in the exceptional table
    with pytest.raises(BadPrimeHypothesis, match="bad prime"):
        ell_blocks(GroupTypeTag("G2", 2), PrimePower.from_q(2), 3)
    with pytest.raises(BadPrimeHypothesis, match="divides"):
        ell_blocks(A2, PrimePower.from_q(3), 3)
    with pytest.raises(BadPrimeHypothesis, match="not prime"):
        ell_blocks(A2, PrimePower.from_q(2), 9)


def test_label_sorting_stable():
    labs = enumerate_labels(B2)
    assert labs == sorted(labs, key=UnipotentLabel.sort_key)
