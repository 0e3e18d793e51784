"""Label enumeration, d-series, ℓ-blocks."""

import pytest
from conftest import clear_process_caches

from blockatlas import unipotent
from blockatlas.arith import GroupTypeTag, PrimePower
from blockatlas.errors import (
    BadPrimeHypothesis,
    BoundExceeded,
    InvariantViolation,
    NotSupported,
)
from blockatlas.partitions import ennola_dual
from blockatlas.symbols import Symbol, cohook_core, hook_core, phi
from blockatlas.unipotent import (
    SeriesPartition,
    UnipotentLabel,
    _blocks,
    _core_rule,
    _labels,
    _model,
    _symbol_core,
    d_series,
    ell_blocks,
    enumerate_labels,
    label_table,
    series_core,
    series_renders,
)

A1 = GroupTypeTag("A", 1)
A2 = GroupTypeTag("A", 2)
TA2 = GroupTypeTag("2A", 2)
B1 = GroupTypeTag("B", 1)
B2 = GroupTypeTag("B", 2)
D2 = GroupTypeTag("D", 2)
TD2 = GroupTypeTag("2D", 2)
FAMILIES = ("A", "2A", "B", "C", "D", "2D")


def tags(family, top):
    low = 2 if family in ("D", "2D") else 1
    return [GroupTypeTag(family, rank) for rank in range(low, top + 1)]


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


def lusztig_label_count(family, n):
    """Lusztig's closed forms for the number of unipotent characters, with
    p the partition count and p2 the bipartition count (0 below size 0)."""
    def p(m):
        return multipartition_count(1, m) if m >= 0 else 0

    def p2(m):
        return multipartition_count(2, m) if m >= 0 else 0

    if family in ("A", "2A"):
        return p(n + 1)
    if family in ("B", "C"):
        return sum(p2(n - s * (s + 1)) for s in range(n + 1))
    if family == "D":
        # defect 0: swap classes of bipartitions, degenerate ones twice
        half = p(n // 2) if n % 2 == 0 else 0
        return ((p2(n) + 3 * half) // 2
                + sum(p2(n - 4 * k * k) for k in range(1, n + 1)))
    return sum(p2(n - (2 * k + 1) ** 2) for k in range(n + 1))


@pytest.mark.parametrize("family", FAMILIES)
def test_label_counts_follow_the_closed_forms(family):
    for n in range(2, 11):
        tag = GroupTypeTag(family, n)
        assert len(enumerate_labels(tag)) == lusztig_label_count(family, n), n


@pytest.mark.parametrize("family", ("B", "C", "D", "2D"))
def test_a_table_that_loses_a_symbol_fails_its_count(monkeypatch, family):
    # _labels compares the table's length with Lusztig's count from
    # partition counts, so an enumeration that drops a symbol raises
    real = unipotent.enumerate_symbols
    monkeypatch.setattr(unipotent, "enumerate_symbols",
                        lambda n, defects: real(n, defects)[:-1])
    unipotent._labels.cache_clear()
    with pytest.raises(InvariantViolation, match="Lusztig's count is"):
        enumerate_labels(GroupTypeTag(family, 4))


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


def test_cached_labels_and_series_respect_rank_bound(monkeypatch, capsys):
    b8 = GroupTypeTag("B", 8)
    # every call hands out the table's one tuple, which refuses mutation
    labels = enumerate_labels(b8)
    assert enumerate_labels(b8) is labels
    with pytest.raises(AttributeError):
        labels.clear()
    with pytest.raises(TypeError):
        labels[0] = UnipotentLabel(labels[0].payload, "′")
    assert UnipotentLabel(labels[0].payload, "′").measure == 8
    assert enumerate_labels(b8) == _labels.__wrapped__(b8).labels
    part = d_series(b8, 3)
    part.context["tampered"] = True
    assert d_series(b8, 3).context == {"kind": "d_series", "d": 3}
    # a build that exceeds the bound raises and is not cached: it raises
    # again on the next call, through every entry point
    b11 = GroupTypeTag("B", 11)
    for _ in range(2):
        with pytest.raises(BoundExceeded):
            enumerate_labels(b11)
        with pytest.raises(BoundExceeded):
            d_series(b11, 3)
        with pytest.raises(BoundExceeded):
            label_table(b11)
        with pytest.raises(BoundExceeded):
            series_renders(b11, 3)
    # the bound is a constant: no environment variable lowers it
    from blockatlas.cli import main
    argv = ["unipotent", "--type", "B", "--rank", "4"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("BLOCKATLAS_MAX_RANK", "3")
    assert main(argv) == 0
    assert capsys.readouterr().out == plain


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


def multipartition_count(e, w):
    """#{e-tuples of partitions of total size w}: the x^w coefficient of
    P(x)^e, with P(x) the partition generating function."""
    p = [1] + [0] * w
    for part in range(1, w + 1):
        for n in range(part, w + 1):
            p[n] += p[n - part]
    power = [1] + [0] * w
    for _ in range(e):
        power = [sum(power[i] * p[n - i] for i in range(n + 1))
                 for n in range(w + 1)]
    return power[w]


def relative_weyl_rank(family, d):
    # the e of G(e, 1, w): a d-series of weight w has as many members as
    # G(e, 1, w) has irreducible characters
    if family in ("A", "2A"):
        return _model(GroupTypeTag(family, 1), d)[1]
    return 2 * d if d % 2 == 1 else d


def core_of_key(key):
    """The core a block key names, read from its text: a partition "(3,1)",
    or the rows of a symbol "({0,2},{1})"."""
    def ints(text):
        return tuple(int(x) for x in text.split(",") if x)
    if key.startswith("({"):
        return tuple(map(ints, key[2:-2].split("},{")))
    return ints(key[1:-1])


@pytest.mark.parametrize("family", FAMILIES)
def test_block_sizes_count_e_multipartitions(family):
    # the generic-block count (Broué–Malle–Michel, Astérisque 212): a series
    # whose core has weight w, i.e. sits w removals below its members, has
    # as many members as its relative Weyl group has irreducible
    # characters.  That group is G(e, 1, w), with N = #{e-multipartitions
    # of w} characters, but for a degenerate D or 2D core, where it is its
    # index-2 subgroup G(e, 2, w): by Clifford theory the F characters of
    # G(e, 1, w) fixed by the e/2-shift of the multipartition (those of
    # e/2-multipartitions of w/2) split in two and the rest pair up, so it
    # has (N + 3F)/2.  The core, its weight and its degeneracy are read
    # from the block's key, not from the core caches.
    for rank in range(2, 9):
        tag = GroupTypeTag(family, rank)
        for d in range(1, 9):
            model, model_d = _model(tag, d)
            step = _core_rule(model.family, model_d)[1]
            e = relative_weyl_rank(family, d)
            for key, members in d_series(tag, d).blocks:
                lab, core = members[0], core_of_key(key)
                if lab.is_partition:
                    drop = sum(lab.payload) - sum(core)
                else:
                    drop = lab.payload.rank - Symbol(*core).rank
                assert drop % step == 0
                w = drop // step
                count = multipartition_count(e, w)
                if not lab.is_partition and core[0] == core[1]:
                    fixed = multipartition_count(e // 2, w // 2) * (w % 2 == 0)
                    count = (count + 3 * fixed) // 2
                assert len(members) == count, (str(tag), d, key)


def test_degenerate_labels_travel_together():
    for d in range(1, 6):
        part = d_series(D2, d)
        assert part.touches_degenerate
        for _, members in part.blocks:
            marks = {lab.marker for lab in members if lab.marker}
            assert marks in (set(), {"′", "″"})


def _series_through_phi(tag, d) -> dict:
    """The d-series of tag with every core and member mapped by phi to its
    canonical symbol: core render -> member payloads, markers dropped."""
    return {phi(series_core(tag, members[0], d)).canonical().render():
            frozenset(phi(lab.payload).canonical() for lab in members)
            for _key, members in d_series(tag, d).blocks}


def test_phi_maps_each_series_onto_its_ennola_partner():
    # Ennola duality (Broué–Malle–Michel): phi carries the d-series of B_n,
    # D_n and 2D_n onto the ennola_dual(d)-series of the partner type, which
    # is the type itself for B and at even n, and swaps D and 2D at odd n.
    # Odd d reads hook cores and its partner 2d cohook cores, so the two
    # sides share core arithmetic only at 4 | d.
    pairs = 0
    for family, low in (("B", 1), ("D", 2), ("2D", 2)):
        for n in range(low, 9):
            partner = (family if family == "B" or n % 2 == 0 else
                       {"D": "2D", "2D": "D"}[family])
            for d in range(1, 2 * n + 3):
                dual = d_series(GroupTypeTag(partner, n), ennola_dual(d))
                want = {key: frozenset(lab.payload for lab in members)
                        for key, members in dual.blocks}
                got = _series_through_phi(GroupTypeTag(family, n), d)
                assert got == want, (family, n, d)
                pairs += 1
    assert pairs == 256


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


# A2 at d = 2: the blocks are "(1)" with (3), (1,1,1) and "(2,1)" with (2,1).
_A2_BLOCKS = (("(1)", ("(3)", "(1,1,1)")), ("(2,1)", ("(2,1)",)))


@pytest.mark.parametrize("corrupt,message", [
    (lambda one, two: ((one[0], one[1] + two[1]),), "keyed"),
    (lambda one, two: (one, two, (one[0], one[1][:1])), "in two blocks"),
    (lambda one, two: (one, two, ("(3)", ())), "empty block"),
    (lambda one, two: ((one[0], one[1][:1]), two), "do not cover"),
    (lambda one, two: ((one[0], one[1][:1]), (one[0], one[1][1:]), two),
     "share a core"),
], ids=["mis-keyed", "two-blocks", "empty-block", "missing-label",
        "split-block"])
def test_series_validation_rejects_each_corruption(corrupt, message):
    part = d_series(A2, 2)
    assert [(key, [lab.render() for lab in members])
            for key, members in part.blocks] == \
        [(key, list(members)) for key, members in _A2_BLOCKS]
    bad = SeriesPartition(A2, 2, corrupt(*part.blocks), {})
    with pytest.raises(InvariantViolation, match=message):
        bad.validate()


def test_series_validation_rejects_a_wrong_drop(monkeypatch):
    # a core rule that drops one box at d = 2, keyed consistently: only the
    # drop check can see it
    monkeypatch.setattr(unipotent, "_core_rule",
                        lambda family, d: (lambda lam, _: (2,), d))
    bad = SeriesPartition(A2, 2, (("(2)", tuple(enumerate_labels(A2))),), {})
    with pytest.raises(InvariantViolation, match="drop 1 not a multiple of 2"):
        bad.validate()


@pytest.mark.parametrize("family", FAMILIES)
def test_label_tables_and_blocks_are_in_sort_key_order(family):
    for tag in tags(family, 8):
        labels = enumerate_labels(tag)
        keys = [lab.sort_key() for lab in labels]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), str(tag)
        for d in range(1, 9):
            for _, members in d_series(tag, d).blocks:
                assert list(members) == sorted(members,
                                               key=UnipotentLabel.sort_key)


@pytest.mark.parametrize("source,tag", [("partitions_of", A2),
                                        ("enumerate_symbols", B2)])
def test_label_table_out_of_order_raises(monkeypatch, source, tag):
    real = getattr(unipotent, source)
    monkeypatch.setattr(unipotent, source, lambda *args: real(*args)[::-1])
    with pytest.raises(InvariantViolation, match="sort_key order"):
        _labels.__wrapped__(tag)


def test_series_caches_equal_uncached():
    for family in FAMILIES:
        for tag in tags(family, 6):
            model = _model(tag)[0]
            table = _labels(model)
            assert table == _labels.__wrapped__(model)
            assert table.members == frozenset(table.labels)
            for d in range(1, 2 * tag.rank + 4):
                assert _blocks(*_model(tag, d)) == \
                    _blocks.__wrapped__(*_model(tag, d))
                for lab in table.labels:
                    if not lab.is_partition:
                        assert _symbol_core(lab.payload, d) == \
                            _symbol_core.__wrapped__(lab.payload, d)
    # the series core, read from per-row data, is the canonical rows of the
    # closed-form core: hook_core for odd d, cohook_core at d/2 for even d;
    # series_core hands it out as a Symbol
    for family in ("B", "D", "2D"):
        for tag in tags(family, 8):
            for d in range(1, 2 * (tag.rank + 1) + 1):
                for lab in label_table(tag).labels:
                    sym = lab.payload
                    core = (hook_core(sym, d) if d % 2 else
                            cohook_core(sym, d // 2)).canonical()
                    rows = (core.row_s, core.row_t)
                    assert _symbol_core(sym, d) == rows, (sym.render(), d)
                    assert series_core(tag, lab, d) == core


def test_series_key_symbol_cores_on_rows(monkeypatch):
    # series key their cores on row tuples, whose equality runs in C:
    # counting Symbol.__eq__ while every symbol-family series up to rank 6
    # is built and validated finds no call, and each label's series core
    # is the Symbol of its cached canonical rows
    clear_process_caches()
    calls = []
    real_eq = Symbol.__eq__
    monkeypatch.setattr(Symbol, "__eq__",
                        lambda a, b: calls.append(1) or real_eq(a, b))
    for family in ("B", "C", "D", "2D"):
        for tag in tags(family, 6):
            for d in range(1, 2 * tag.rank + 4):
                d_series(tag, d)
    assert calls == []
    monkeypatch.undo()
    for family in ("B", "D", "2D"):
        for tag in tags(family, 6):
            for lab in label_table(tag).labels:
                core = series_core(tag, lab, 3)
                assert (core.row_s, core.row_t) == _symbol_core(lab.payload, 3)


def test_render_tables_follow_the_label_table_and_series():
    # C and 2A answer from the tables of B and of A: compared with their own
    # series here, also at the fusion grid's top ranks 7 and 8
    cells = [(tag, range(1, 2 * tag.rank + 4))
             for family in FAMILIES for tag in tags(family, 6)]
    cells += [(GroupTypeTag(family, rank), range(1, 2 * (rank + 1) + 1))
              for family in ("C", "2A") for rank in (7, 8)]
    for tag, ds in cells:
        labels = enumerate_labels(tag)
        table = label_table(tag)
        assert table.renders == tuple(lab.render() for lab in labels)
        assert table is label_table(tag)
        assert table.degenerate == any(lab.marker for lab in labels)
        for d in ds:
            assert series_renders(tag, d) == tuple(
                tuple(lab.render() for lab in members)
                for _key, members in d_series(tag, d).blocks), (str(tag), d)
    with pytest.raises(ValueError, match="d must be >= 1"):
        series_renders(A2, 0)


def test_each_label_stores_its_measure():
    for family in FAMILIES:
        for tag in tags(family, 8):
            for lab in label_table(tag).labels:
                measure = (sum(lab.payload) if lab.is_partition
                           else lab.payload.rank)
                assert lab.measure == measure, (str(tag), lab)
                assert lab == UnipotentLabel(lab.payload, lab.marker)
                assert lab.render() == UnipotentLabel(lab.payload,
                                                      lab.marker).render()


def test_one_core_per_payload_and_d(monkeypatch):
    # C reads B's label table and series record at the same d, 2A reads A's
    # at ennola_dual(d): the twin builds no record of its own, so it cannot
    # build a core either; once built, validating a series again builds no
    # swapped Symbol.
    def record_misses():
        return _labels.cache_info().misses, _blocks.cache_info().misses

    # (model, its d, twin, the twin's d): ennola_dual(2) = 1
    for model, d, twin, twin_d in (("B", 3, "C", 3), ("A", 1, "2A", 2)):
        clear_process_caches()
        built = d_series(GroupTypeTag(model, 5), d)
        misses = record_misses()
        assert d_series(GroupTypeTag(twin, 5), twin_d).blocks is built.blocks
        assert record_misses() == misses, twin
    series = [d_series(tag, d) for family in FAMILIES
              for tag in tags(family, 6) for d in range(1, 9)]
    swaps, ranks = [], []
    real_swap, real_rank = Symbol.swap, Symbol.rank.fget
    monkeypatch.setattr(Symbol, "swap",
                        lambda sym: swaps.append(sym) or real_swap(sym))
    monkeypatch.setattr(Symbol, "rank",
                        property(lambda sym: ranks.append(sym)
                                 or real_rank(sym)))
    for part in series:
        ranks.clear()
        part.validate()
        # each distinct core is measured once; the labels' measures are
        # stored in their table
        assert len(ranks) <= part.class_count
    assert swaps == []


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
    assert list(labs) == sorted(labs, key=UnipotentLabel.sort_key)
