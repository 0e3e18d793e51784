"""Cross-prime closure of d-series, D-series joins, and defect bounds.

The closure engine merges the d-series partitions for every admissible d
(those witnessed by an odd good prime not dividing q) in a union-find, a
plain ``parent`` dict, recording one certificate event per effective merge.
The loop stops once a single class remains, because no later series can
merge anything: the certificate and the admissible map (every witnessed
d ≤ d_max) are the same as over every d, and every series that is built is
still validated.  The closure and the D-series join share one merge loop
and one label source, which reads each series as the process-wide tuples
of member renders from :mod:`unipotent`, and each type's label renders and
degenerate flag from its label table, so C and 2A read those of B and A;
the defect bounds read the validated 1-series.
C_n has the labels and d-series of B_n (``unipotent._model``) and the same
bad primes, so its closure is B_n's: ``fusion_closure`` keeps one validated
B_n result per (rank, q, d_max), the default d_max resolved first, and
hands B_n and C_n each a copy with its own type, so a process closes the
pair once.
Certificates are replayed event by event; the witness of each distinct
(d, ℓ) is checked once.  Processing order is fixed — d ascending, blocks by
key, members in label order — so certificates are byte-reproducible.  A
result with more than one class is reported as "inconclusive": the
witnessed mechanism alone does not decide it, and the engine never claims
a refutation.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import NamedTuple, Optional

from .arith import GroupTypeTag, PrimePower, admissible_d, is_good, mult_order
from .errors import InvariantViolation, NotSupported
from .partitions import staircase_parameter
from .unipotent import d_series, label_table, series_core, series_renders


def _find(parent: dict, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _roots(parent: dict, items) -> list:
    """The root of each item; one at most one step below its root is read
    without the call."""
    out = []
    for x in items:
        top = parent[x]
        if parent[top] != top:
            top = _find(parent, x)
        out.append(top)
    return out


def _classes(parent: dict, order) -> tuple:
    """The classes of ``order``, members in its order, by first member."""
    by_root: dict = {}
    for x, root in zip(order, _roots(parent, order)):
        by_root.setdefault(root, []).append(x)
    return tuple(tuple(members) for members in
                 sorted(by_root.values(), key=lambda ms: ms[0]))


class MergeEvent(NamedTuple):
    label_a: str
    label_b: str
    d: int
    ell: int


class FusionResult(NamedTuple):
    group_type: GroupTypeTag
    q: PrimePower
    d_max: int
    admissible: dict          # d -> witnessing ell
    classes: tuple            # tuple of tuples of label renders
    certificate: tuple        # MergeEvents in processing order
    verdict: str              # "single_class" | "inconclusive"
    touches_degenerate: bool = False
    plugin_type: Optional[str] = None

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def validate(self) -> None:
        # the witness checks read only (d, ell): once per distinct pair
        witnessed: dict = {}
        for ev in self.certificate:
            witnessed.setdefault((ev.d, ev.ell), ev)
        for ev in witnessed.values():
            if ev.d not in self.admissible or self.admissible[ev.d] != ev.ell:
                raise InvariantViolation(f"event {ev} not backed by a witness")
            if ev.ell % 2 == 0 or not is_good(ev.ell, self.group_type):
                raise InvariantViolation(f"witness {ev.ell} fails hypotheses")
            if self.q.q % ev.ell == 0 or mult_order(self.q.q, ev.ell) != ev.d:
                raise InvariantViolation(f"witness {ev.ell} has wrong order")
        parent = {lab: lab for cls in self.classes for lab in cls}
        for ev in self.certificate:
            root_a = _find(parent, ev.label_a)
            root_b = _find(parent, ev.label_b)
            if root_a == root_b:
                raise InvariantViolation(f"event {ev} merges nothing")
            parent[root_b] = root_a
        # the replayed classes are the stated ones when each stated class
        # lies in one replayed class and no two share one: the stated
        # classes hold every label the union-find holds
        seen: set = set()
        for cls in self.classes:
            roots = set(_roots(parent, cls))
            if len(roots) != 1 or roots & seen:
                raise InvariantViolation(
                    "certificate replay does not reproduce classes")
            seen |= roots


def _labels(group_type: GroupTypeTag, plugin, needs: str) -> tuple:
    """(label renders, degenerate flag, d -> the d-series' member-render
    blocks) of a type.  Read before the caller computes its d values, so
    label-set errors come first."""
    if group_type.is_classical:
        table = label_table(group_type)
        return (table.renders, table.degenerate,
                partial(series_renders, group_type))
    if plugin is None:
        raise NotSupported(
            f"family {group_type.family} needs plugin data for {needs}")
    family = group_type.family
    return (plugin.labels(family), False,
            lambda d: [members for _key, members
                       in plugin.series_blocks(family, d)])


def _merge(names, series, ds) -> tuple:
    """Union each d-series, d ascending, blocks by key, every member onto
    its block's first; returns the parent dict and the effective merges
    (a, b, d).  Stops before the next d once one class is left: no later
    series can merge anything, so the merges are the same as over every d."""
    parent = {x: x for x in names}
    merges: list = []
    single = len(parent) - 1
    for d in sorted(ds):
        if len(merges) == single:
            break
        for block in series(d):
            # the anchor's root stays the root of every class merged into it
            anchor = block[0]
            root = _find(parent, anchor)
            for other in block[1:]:
                # other's root, read as _roots reads it
                other_root = parent[other]
                if parent[other_root] != other_root:
                    other_root = _find(parent, other)
                if other_root != root:
                    parent[other_root] = root
                    merges.append((anchor, other, d))
    return parent, merges


def fusion_closure(group_type: GroupTypeTag, q: PrimePower,
                   d_max: Optional[int] = None, plugin=None) -> FusionResult:
    """Union-find closure of the d-series over all admissible d ≤ d_max.

    B_n and C_n read one cached B_n result; each call gets its own
    admissible dict."""
    if d_max is None:
        d_max = 2 * (group_type.rank + 1)
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if group_type.family not in ("B", "C"):
        return _closure(group_type, q, d_max, plugin)
    result = _b_closure(group_type.rank, q, d_max)
    return result._replace(group_type=group_type,
                           admissible=dict(result.admissible))


@lru_cache(maxsize=None)
def _b_closure(rank: int, q: PrimePower, d_max: int) -> FusionResult:
    return _closure(GroupTypeTag("B", rank), q, d_max, None)


def _closure(group_type: GroupTypeTag, q: PrimePower, d_max: int,
             plugin) -> FusionResult:
    names, degenerate, series = _labels(group_type, plugin, "fusion")
    witnesses = admissible_d(group_type, q, d_max)
    parent, merges = _merge(names, series, witnesses)
    events = tuple(MergeEvent(a, b, d, witnesses[d]) for a, b, d in merges)
    classes = _classes(parent, names)
    result = FusionResult(
        group_type=group_type, q=q, d_max=d_max, admissible=witnesses,
        classes=classes, certificate=events,
        verdict="single_class" if len(classes) == 1 else "inconclusive",
        touches_degenerate=degenerate,
        plugin_type=None if group_type.is_classical else group_type.family)
    result.validate()
    return result


class DSeriesJoin(NamedTuple):
    group_type: GroupTypeTag
    D: tuple
    single: bool
    classes: tuple  # tuple of tuples of label renders


def is_single_D_series(group_type: GroupTypeTag, D, plugin=None) -> DSeriesJoin:
    """Join (transitive common coarsening) of the d-series for d in D.

    Past d = 2(rank + 1) every classical d-series is the same partition,
    discrete but for the degenerate pairs, so each larger d reads the
    series at 2(rank + 1) + 1; a plugin type reads each d it is given."""
    ds = tuple(sorted(set(int(d) for d in D)))
    if not ds or any(d < 1 for d in ds):
        raise ValueError("D must be a non-empty set of positive integers")
    names, _degenerate, series = _labels(group_type, plugin,
                                         "D-series checks")
    read = ds
    if group_type.is_classical:
        read = {min(d, 2 * (group_type.rank + 1) + 1) for d in ds}
    classes = _classes(_merge(names, series, read)[0], names)
    return DSeriesJoin(group_type, ds, len(classes) == 1, classes)


# ------------------------------------------------------------ defect bounds

class DefectBoundRow(NamedTuple):
    core: str
    defect: int
    lhs: int
    rhs: int
    satisfied: bool
    base_case: bool = False


class DefectBoundReport(NamedTuple):
    group_type: GroupTypeTag
    kind: str  # "primary" | "derived"
    rows: tuple

    @property
    def all_ok(self) -> bool:
        return all(row.satisfied for row in self.rows)


def _occurring_1series(group_type: GroupTypeTag) -> dict[str, int]:
    """core render -> defect parameter k, over the type's 1-series."""
    out: dict[str, int] = {}
    for key, members in d_series(group_type, 1).blocks:
        core = series_core(group_type, members[0], 1)
        if members[0].is_partition:
            k = staircase_parameter(core)
            if k is None:
                raise InvariantViolation(f"non-staircase core {core} at d=1")
        else:
            k = core.defect
        out[key] = k
    return out


def _primary_bound(family: str, k: int, n: int) -> tuple:
    if family in ("A", "2A"):
        return k * (k + 1), 2 * (n + 1), False     # k(k+1)/2 <= n+1
    if family in ("B", "C"):
        return k * k - 1, 4 * n, False             # (k^2-1)/4 <= n
    return k * k, 4 * n, False                     # k^2/4 <= n


def _derived_bound(family: str, k: int, n: int) -> tuple:
    base = k <= 2
    if family in ("A", "2A"):
        return k * k - 3 * k + 2, 2 * (n - 2), base  # /2 <= n-2
    if family in ("B", "C"):
        return k * k - 4 * k + 3, 4 * (n - 2), base  # /4 <= n-2
    return k * k - 4 * k + 4, 4 * (n - 2), base      # /4 <= n-2


def _bound_report(group_type: GroupTypeTag, kind: str,
                  bound) -> DefectBoundReport:
    """One row per occurring 1-series core, in core order, from
    ``bound(family, k, rank) -> (lhs, rhs, base_case)``; a base case holds."""
    if not group_type.is_classical:
        raise NotSupported("defect bounds are defined for classical families")
    rows = []
    for core, k in sorted(_occurring_1series(group_type).items()):
        lhs, rhs, base = bound(group_type.family, k, group_type.rank)
        rows.append(DefectBoundRow(core, k, lhs, rhs, base or lhs <= rhs,
                                   base))
    return DefectBoundReport(group_type, kind, tuple(rows))


def defect_bound_report(group_type: GroupTypeTag) -> DefectBoundReport:
    """The family's defect bound, checked for every occurring 1-series."""
    return _bound_report(group_type, "primary", _primary_bound)


def derived_inequality_check(group_type: GroupTypeTag) -> DefectBoundReport:
    """The sharpened rank-(n−2) inequality; k ≤ 2 are base cases."""
    if group_type.is_classical and group_type.rank < 2:
        raise ValueError("derived inequality needs rank >= 2")
    return _bound_report(group_type, "derived", _derived_bound)
