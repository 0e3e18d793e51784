import random
import time

import pytest
from conftest import clear_process_caches

from blockatlas import arith, unipotent
from blockatlas.arith import GroupTypeTag, PrimePower, admissible_d
from blockatlas.cli import main
from blockatlas.errors import BoundExceeded, InvariantViolation, NotSupported
from blockatlas.fusion import (
    FusionResult,
    MergeEvent,
    defect_bound_report,
    derived_inequality_check,
    fusion_closure,
    is_single_D_series,
)
from blockatlas.partitions import MAX_PARTITION_SIZE
from blockatlas.unipotent import d_series, enumerate_labels


def oracle_closure(group_type, q, d_max, rng):
    """Independent fixpoint closure: merge d-series blocks in random order."""
    names = [lab.render() for lab in enumerate_labels(group_type)]
    cls = {name: frozenset([name]) for name in names}
    block_lists = []
    for d in admissible_d(group_type, q, d_max):
        for _key, members in d_series(group_type, d).blocks:
            block_lists.append([lab.render() for lab in members])
    changed = True
    while changed:
        changed = False
        rng.shuffle(block_lists)
        for members in block_lists:
            merged = frozenset().union(*(cls[m] for m in members))
            if any(cls[m] != merged for m in members):
                for m in merged:
                    cls[m] = merged
                changed = True
    return set(cls.values())


def test_a2_q2_single_class_with_certificate():
    res = fusion_closure(GroupTypeTag("A", 2), PrimePower.from_q(2))
    assert res.d_max == 6
    assert res.admissible == {2: 3, 3: 7, 4: 5, 5: 31}
    assert res.verdict == "single_class"
    assert res.classes == (("(3)", "(2,1)", "(1,1,1)"),)
    assert res.certificate == (
        MergeEvent("(3)", "(1,1,1)", 2, 3),
        MergeEvent("(3)", "(2,1)", 3, 7),
    )
    assert not res.touches_degenerate


def test_a1_q3_inconclusive_two_classes():
    res = fusion_closure(GroupTypeTag("A", 1), PrimePower.from_q(3))
    # no admissible d ever joins (2) to (1,1): both are their own d-core
    assert res.verdict == "inconclusive"
    assert res.classes == (("(1,1)",), ("(2)",))
    assert res.certificate == ()


def test_b2_q2_frozen_certificate():
    res = fusion_closure(GroupTypeTag("B", 2), PrimePower.from_q(2), d_max=4)
    assert res.admissible == {2: 3, 3: 7, 4: 5}
    assert res.verdict == "single_class"
    assert res.class_count == 1
    # four merges inside the big 2-series, then d=4 picks up the straggler
    assert res.certificate == (
        MergeEvent("({0,1},{2})", "({0,1,2},{1,2})", 2, 3),
        MergeEvent("({0,1},{2})", "({1,2},{0})", 2, 3),
        MergeEvent("({0,1},{2})", "({2},{})", 2, 3),
        MergeEvent("({0,1},{2})", "({0,1,2},{})", 2, 3),
        MergeEvent("({0,1,2},{1,2})", "({0,2},{1})", 4, 5),
    )


def test_d2_degenerate_twins_fuse_together():
    res = fusion_closure(GroupTypeTag("D", 2), PrimePower.from_q(2))
    assert res.touches_degenerate
    assert res.verdict == "single_class"
    for cls in res.classes:
        assert ("({1},{1})′" in cls) == ("({1},{1})″" in cls)


@pytest.mark.parametrize("family,rank", [
    ("A", 1), ("A", 3), ("2A", 2), ("2A", 4),
    ("B", 2), ("B", 3), ("C", 3), ("D", 2), ("D", 4), ("2D", 3),
])
@pytest.mark.parametrize("qv", [2, 3, 4])
def test_matches_independent_closure(family, rank, qv):
    tag = GroupTypeTag(family, rank)
    q = PrimePower.from_q(qv)
    res = fusion_closure(tag, q)
    rng = random.Random(1000 * rank + qv)
    assert {frozenset(c) for c in res.classes} == oracle_closure(
        tag, q, res.d_max, rng)


@pytest.mark.parametrize("family,rank,qv", [
    ("A", 2, 2), ("B", 3, 2), ("2A", 3, 3), ("2D", 3, 2),
])
def test_monotone_in_d_max_and_prefix_certificates(family, rank, qv):
    tag = GroupTypeTag(family, rank)
    q = PrimePower.from_q(qv)
    prev = None
    for d_max in range(1, 2 * (rank + 1) + 1):
        res = fusion_closure(tag, q, d_max=d_max)
        if prev is not None:
            assert res.class_count <= prev.class_count
            assert res.certificate[:len(prev.certificate)] == prev.certificate
        prev = res


@pytest.mark.parametrize("family", ["A", "2A", "B", "C", "D", "2D"])
def test_series_after_one_class_merge_nothing(family):
    """Union every admissible d-series, with no early stop, in the closure's
    order: the classes and the ordered effective merges are the closure's,
    so the series it skips once one class is left merge nothing."""
    for rank in range(2 if family in ("D", "2D") else 1, 9):
        tag = GroupTypeTag(family, rank)
        names = [lab.render() for lab in enumerate_labels(tag)]
        for qv in (2, 3, 4, 5, 7, 8):
            q = PrimePower.from_q(qv)
            res = fusion_closure(tag, q)
            witnesses = admissible_d(tag, q, 2 * (rank + 1))
            assert res.admissible == witnesses
            # a union-find of its own: each label's class as a shared list
            cls, merges = {name: [name] for name in names}, []
            for d in sorted(witnesses):
                for _key, members in d_series(tag, d).blocks:
                    anchor, *others = [lab.render() for lab in members]
                    for other in others:
                        if cls[other] is not cls[anchor]:
                            cls[anchor].extend(cls[other])
                            for name in cls[other]:
                                cls[name] = cls[anchor]
                            merges.append((anchor, other, d))
            classes = {id(c): c for c in cls.values()}.values()
            order = {name: i for i, name in enumerate(names)}
            assert sorted(tuple(sorted(c, key=order.get)) for c in classes) \
                == list(res.classes), (tag, qv)
            assert merges == [(ev.label_a, ev.label_b, ev.d)
                              for ev in res.certificate], (tag, qv)


@pytest.mark.parametrize("family", ["A", "2A"])
def test_linear_families_single_class_at_partition_bound(family):
    rank = MAX_PARTITION_SIZE - 1
    start = time.monotonic()
    res = fusion_closure(GroupTypeTag(family, rank), PrimePower.from_q(2))
    elapsed = time.monotonic() - start
    assert res.verdict == "single_class"
    # q = 2 has no odd witness at d = 1 or d = 6 (Zsigmondy's exception)
    assert sorted(res.admissible) == [d for d in range(2, 2 * rank + 3)
                                      if d != 6]
    assert elapsed < 10.0, f"{elapsed:.1f}s"


def test_certificate_events_share_series_core():
    for family, rank in [("B", 3), ("D", 4), ("2A", 4)]:
        tag = GroupTypeTag(family, rank)
        res = fusion_closure(tag, PrimePower.from_q(2))
        for ev in res.certificate:
            # a d-series block is keyed by its members' rendered core
            core = {lab.render(): key
                    for key, members in d_series(tag, ev.d).blocks
                    for lab in members}
            assert core[ev.label_a] == core[ev.label_b]


def test_validate_rejects_tampering():
    res = fusion_closure(GroupTypeTag("B", 2), PrimePower.from_q(2), d_max=4)

    dropped = FusionResult(res.group_type, res.q, res.d_max, res.admissible,
                           res.classes, res.certificate[:-1], res.verdict)
    with pytest.raises(InvariantViolation, match="does not reproduce"):
        dropped.validate()

    # both labels already sit in the class of ({0,1},{2}) after d = 2
    extra = res.certificate + (MergeEvent("({2},{})", "({0,2},{1})", 2, 3),)
    with pytest.raises(InvariantViolation, match="merges nothing"):
        FusionResult(res.group_type, res.q, res.d_max, res.admissible,
                     res.classes, extra, res.verdict).validate()

    forged = tuple(MergeEvent(e.label_a, e.label_b, e.d, 11)
                   for e in res.certificate)
    with pytest.raises(InvariantViolation, match="not backed"):
        FusionResult(res.group_type, res.q, res.d_max, res.admissible,
                     res.classes, forged, res.verdict).validate()


@pytest.mark.parametrize("stated", [
    (("(1,1)", "(2)"),),                  # joins what no event joins
    (("(1,1)",), ("(2)",), ("(2)",)),     # states one class twice
    (("(1,1)",), ("(2)",), ()),           # states an empty class
], ids=["joined", "repeated", "empty"])
def test_validate_rejects_classes_the_replay_does_not_give(stated):
    res = fusion_closure(GroupTypeTag("A", 1), PrimePower.from_q(3))
    assert res.classes == (("(1,1)",), ("(2)",)) and res.certificate == ()
    with pytest.raises(InvariantViolation, match="does not reproduce"):
        res._replace(classes=stated).validate()


def test_validate_checks_the_witness_of_every_d():
    res = fusion_closure(GroupTypeTag("A", 2), PrimePower.from_q(2))
    last = res.certificate[-1]
    assert [ev.d for ev in res.certificate] == [2, 3] and last.ell == 7
    forged = res.certificate[:-1] + (last._replace(ell=5),)
    with pytest.raises(InvariantViolation, match="not backed"):
        res._replace(certificate=forged).validate()
    # 5 is odd, good and prime to 2, but 2 has order 4 mod 5
    with pytest.raises(InvariantViolation, match="wrong order"):
        res._replace(certificate=forged,
                     admissible={**res.admissible, 3: 5}).validate()


def test_validate_rejects_a_split_class():
    res = fusion_closure(GroupTypeTag("A", 2), PrimePower.from_q(2))
    split = (("(3)",), ("(2,1)", "(1,1,1)"))
    with pytest.raises(InvariantViolation, match="does not reproduce"):
        res._replace(classes=split).validate()


@pytest.mark.parametrize("family,rank,qv,d,ell", [
    ("A", 1, 3, 1, 2),    # even, though A has no bad prime
    ("B", 2, 3, 1, 2),    # even and bad
    ("D", 3, 5, 1, 2),
    ("G2", 2, 2, 2, 3),   # odd and bad: 3 is bad for G2
], ids=["A-even", "B-even", "D-even", "G2-bad"])
def test_validate_rejects_a_witness_that_fails_hypotheses(family, rank, qv,
                                                           d, ell):
    """One event joining the first two labels, backed by a witness of the
    right order prime to q: only the hypothesis check rejects it."""
    tag, q = GroupTypeTag(family, rank), PrimePower.from_q(qv)
    plugin = _FakePlugin() if family == "G2" else None
    names = (plugin.labels(family) if plugin
             else [lab.render() for lab in enumerate_labels(tag)])
    assert arith.mult_order(qv, ell) == d and qv % ell != 0
    res = fusion_closure(tag, q, plugin=plugin)
    forged = res._replace(
        admissible={d: ell},
        classes=((names[0], names[1]),) + tuple((n,) for n in names[2:]),
        certificate=(MergeEvent(names[0], names[1], d, ell),))
    with pytest.raises(InvariantViolation, match="fails hypotheses"):
        forged.validate()


def test_exceptional_family_needs_plugin():
    g2 = GroupTypeTag("G2", 2)
    with pytest.raises(NotSupported):
        fusion_closure(g2, PrimePower.from_q(2))
    with pytest.raises(NotSupported):
        is_single_D_series(g2, {1, 2})


class _FakePlugin:
    def labels(self, family):
        return ["x1", "x2", "x3"]

    def series_blocks(self, family, d):
        if d == 3:
            return [("c", ["x1", "x2", "x3"])]
        return [(name, [name]) for name in self.labels(family)]


def test_plugin_drives_exceptional_fusion():
    g2 = GroupTypeTag("G2", 2)
    res = fusion_closure(g2, PrimePower.from_q(2), plugin=_FakePlugin())
    # 2 is bad for G2, so the d=2 witness is refused; d=3 carries the merge
    assert 2 not in res.admissible
    assert res.verdict == "single_class"
    assert res.certificate == (
        MergeEvent("x1", "x2", 3, 7),
        MergeEvent("x1", "x3", 3, 7),
    )
    assert res.plugin_type == "G2"
    join = is_single_D_series(g2, {3}, plugin=_FakePlugin())
    assert join.single and bool(join)


class _RecordingPlugin(_FakePlugin):
    def __init__(self):
        self.asked = []

    def series_blocks(self, family, d):
        self.asked.append(d)
        return super().series_blocks(family, d)


def test_merge_loop_stops_once_one_class_is_left():
    g2 = GroupTypeTag("G2", 2)
    plugin = _RecordingPlugin()
    res = fusion_closure(g2, PrimePower.from_q(2), plugin=plugin)
    # d=3 joins all three labels; d=4 and d=5 stay admissible but unread
    assert sorted(res.admissible) == [3, 4, 5]
    assert plugin.asked == [3]
    assert len(res.certificate) == 2

    plugin = _RecordingPlugin()
    assert is_single_D_series(g2, {3, 4, 5}, plugin=plugin).single
    assert plugin.asked == [3]


_TWIN_COMMANDS = (["unipotent"], ["series", "--d", "4"],
                  ["blocks", "--q", "4", "--ell", "5"], ["defect-bounds"],
                  ["dseries-check", "--D", "1,2,3"], ["fusion", "--q", "3"])


@pytest.mark.parametrize("first,twin", [("B", "C"), ("A", "2A")])
def test_twin_families_build_no_label_table(monkeypatch, capsys, first,
                                            twin):
    # C answers from B's label table and series, 2A from A's label table
    # and A's series at ennola_dual(d): after the first family's run, the
    # twin's run builds no label table (and C's no series either)
    for rank, q in ((3, 2), (5, 7), (8, 4)):
        clear_process_caches()
        assert main(["fusion", "--type", first, "--rank", str(rank),
                     "--q", str(q)]) == 0
        labels = unipotent._labels.cache_info().currsize
        blocks = unipotent._blocks.cache_info().currsize
        assert main(["fusion", "--type", twin, "--rank", str(rank),
                     "--q", str(q)]) == 0
        assert unipotent._labels.cache_info().currsize == labels
        if twin == "C":
            assert unipotent._blocks.cache_info().currsize == blocks
    # no command on the twin asks either cache for a key of its family:
    # every label table and series it reads is the first family's
    clear_process_caches()
    asked = set()
    for name in ("_labels", "_blocks"):
        cache = getattr(unipotent, name)
        monkeypatch.setattr(unipotent, name, lambda tag, *rest, cache=cache:
                            asked.add(tag.family) or cache(tag, *rest))
    for rank in (2, 5, 8):
        for command, *options in _TWIN_COMMANDS:
            assert main([command, "--type", twin, "--rank", str(rank),
                         *options]) == 0, (command, rank)
            assert asked == {first}, command
    capsys.readouterr()


def test_bound_errors_come_before_any_witness_search(monkeypatch):
    searched = []
    real = arith.primitive_prime
    monkeypatch.setattr(arith, "primitive_prime",
                        lambda *args: searched.append(args) or real(*args))
    q = PrimePower.from_q(4)
    with pytest.raises(BoundExceeded, match="^rank 11 exceeds"):
        fusion_closure(GroupTypeTag("B", 11), q, d_max=10**8)
    with pytest.raises(BoundExceeded, match="^d_max 63 exceeds 62"):
        fusion_closure(GroupTypeTag("A", 2), q, d_max=63)
    # below 63, on the first d whose power is past the cap
    with pytest.raises(BoundExceeded, match=r"^4\*\*32 exceeds"):
        fusion_closure(GroupTypeTag("A", 2), q, d_max=40)
    with pytest.raises(BoundExceeded, match=r"^8\*\*21 exceeds"):
        fusion_closure(GroupTypeTag("B", 3), PrimePower.from_q(8), d_max=25)
    assert searched == []


def test_D_series_join_frozen():
    assert is_single_D_series(GroupTypeTag("2A", 5), {1, 6}).single
    assert is_single_D_series(GroupTypeTag("B", 3), {2, 4}).single
    assert is_single_D_series(GroupTypeTag("B", 3), {1, 4}).single
    assert is_single_D_series(GroupTypeTag("D", 4), {2, 4}).single
    assert is_single_D_series(GroupTypeTag("A", 5), {1}).single

    two = is_single_D_series(GroupTypeTag("A", 2), {2})
    assert not two.single
    assert two.classes == (("(2,1)",), ("(3)", "(1,1,1)"))
    assert is_single_D_series(GroupTypeTag("A", 2), {3}).single


def test_D_series_join_argument_validation():
    with pytest.raises(ValueError):
        is_single_D_series(GroupTypeTag("A", 2), set())
    with pytest.raises(ValueError):
        is_single_D_series(GroupTypeTag("A", 2), {0, 2})


def test_defect_bounds_2a3_single_empty_core():
    rep = defect_bound_report(GroupTypeTag("2A", 3))
    assert [(r.core, r.defect, r.satisfied) for r in rep.rows] == [
        ("()", 0, True)]
    assert rep.all_ok


def test_defect_bounds_2a5_hits_equality():
    rep = defect_bound_report(GroupTypeTag("2A", 5))
    rows = {r.core: r for r in rep.rows}
    assert set(rows) == {"()", "(3,2,1)"}
    big = rows["(3,2,1)"]
    assert big.defect == 3 and big.lhs == 12 and big.rhs == 12 and big.satisfied
    assert rep.all_ok


def test_defect_bounds_b2_ladders():
    rep = defect_bound_report(GroupTypeTag("B", 2))
    rows = {r.core: r for r in rep.rows}
    assert set(rows) == {"({0},{})", "({0,1,2},{})"}
    assert rows["({0},{})"].defect == 1
    k3 = rows["({0,1,2},{})"]
    assert k3.defect == 3 and k3.lhs == 8 and k3.rhs == 8 and k3.satisfied


def test_defect_bounds_d2_and_2d2():
    rep = defect_bound_report(GroupTypeTag("D", 2))
    assert [(r.core, r.defect) for r in rep.rows] == [("({},{})", 0)]
    assert rep.all_ok

    rep = defect_bound_report(GroupTypeTag("2D", 2))
    assert [(r.core, r.defect) for r in rep.rows] == [("({0,1},{})", 2)]
    assert rep.all_ok


def test_derived_inequality_base_cases_and_literal():
    # D2 only occurs at k=0, where the literal form fails but the base
    # case applies; the report must still count it as satisfied.
    rep = derived_inequality_check(GroupTypeTag("D", 2))
    (row,) = rep.rows
    assert row.base_case and row.satisfied and row.lhs > row.rhs
    assert rep.all_ok

    rep = derived_inequality_check(GroupTypeTag("2A", 5))
    rows = {r.defect: r for r in rep.rows}
    assert rows[0].base_case
    k3 = rows[3]
    assert not k3.base_case and k3.lhs == 2 and k3.rhs == 6 and k3.satisfied

    rep = derived_inequality_check(GroupTypeTag("B", 2))
    k3 = {r.defect: r for r in rep.rows}[3]
    assert k3.lhs == 0 and k3.rhs == 0 and k3.satisfied


def test_derived_inequality_needs_rank_two():
    with pytest.raises(ValueError):
        derived_inequality_check(GroupTypeTag("B", 1))


@pytest.mark.parametrize("family,max_rank", [
    ("A", 6), ("2A", 7), ("B", 6), ("C", 6), ("D", 6), ("2D", 6),
])
def test_bounds_hold_across_small_ranks(family, max_rank):
    start = 2 if family in ("D", "2D") else 1
    for n in range(start, max_rank + 1):
        assert defect_bound_report(GroupTypeTag(family, n)).all_ok
        if n >= 2:
            assert derived_inequality_check(GroupTypeTag(family, n)).all_ok


def test_exceptional_has_no_defect_bounds():
    with pytest.raises(NotSupported):
        defect_bound_report(GroupTypeTag("F4", 4))
