"""Root data with Galois action, and the lattice functors built from them.

A :class:`RootDatumWithAction` packages the cocharacter lattice ``Z^rank``
of a maximal torus together with the coroots (columns in that lattice), the
roots (vectors in the dual lattice), and a labeled family of integer
operators describing how the Galois group of a local field acts: generators
of the inertia image, the subset of those generated by wild inertia, and a
Frobenius lift.  Operators act on the cocharacter side; the induced action
on roots is by inverse transpose.

From a datum the module derives the algebraic fundamental group (cocharacter
lattice modulo the coroot lattice), its arithmetic form (inertia
coinvariants followed by Frobenius fixed points), and the cocharacter
lattice of the abelianization, the cokernel end of the derived-subgroup
sequence; its kernel end, the fundamental group of the derived subgroup, is
the torsion of ``pi1``.  ``pi1`` and
``kottwitz_target`` return groups that :mod:`abelian` interns and caches;
``derived_and_abelianized`` is an ``lru_cache`` function of the immutable
datum.  None of them re-checks what validation proved, so ``pi1`` cannot
raise.  Validation stores what it resolves on the datum itself: the coroot
matrix, the inertia, wild and Frobenius operators looked up from their
labels once, and the order of the tame quotient of the inertia image
(``tame_order``), from the one enumeration of the inertia and wild images
that validation makes.

``catalog()`` returns a fixed library of small worked examples used by the
tests and the command-line tools, one read-only name → entry mapping per
process.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .abelian import (
    FGAbelianGroup,
    IntMatrix,
    coinvariants,
    fixed_points,
    smith_normal_form,
)
from .errors import InvalidDatum, ParseError, only_keys, parse_json

# Enumerating the inertia image stops here; bigger images cannot be verified.
_CLOSURE_CAP = 4096


def _as_vector(v, rank: int, what: str) -> tuple:
    vec = tuple(int(x) for x in v)
    if len(vec) != rank:
        raise InvalidDatum(f"{what} {vec} does not have length {rank}")
    return vec


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


class RootDatumWithAction:
    """Cocharacter lattice with coroots, roots, and a labeled Galois action.

    ``galois`` is a tuple of ``(label, matrix)`` pairs; ``inertia`` and
    ``wild`` list the labels generated by (wild) inertia, and ``frobenius``
    names the Frobenius lift.  Construction validates the structure and
    raises InvalidDatum on any defect.  Validation also derives
    ``coroot_matrix`` (the coroots as columns), ``inertia_matrices``,
    ``wild_matrices`` and ``frobenius_matrix`` (the operators those labels
    name) and ``tame_order``, the order of the tame quotient of the inertia
    image.  Derived values are not fields: equality and hashing read the
    fields alone.
    """

    __slots__ = ("rank", "coroots", "roots", "galois", "inertia", "wild",
                 "frobenius", "coroot_matrix", "inertia_matrices",
                 "wild_matrices", "frobenius_matrix", "tame_order")

    def __init__(self, rank: int, coroots=(), roots=(), galois=(),
                 inertia=(), wild=(), frobenius: str = "F"):
        if rank < 0:
            raise InvalidDatum("rank must be nonnegative")
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(
            self, "coroots",
            tuple(_as_vector(v, rank, "coroot") for v in coroots))
        object.__setattr__(
            self, "roots", tuple(_as_vector(v, rank, "root") for v in roots))
        pairs = []
        for label, mat in galois:
            if not isinstance(label, str) or not label:
                raise InvalidDatum("operator labels must be nonempty strings")
            if not isinstance(mat, IntMatrix):
                mat = IntMatrix(mat)
            pairs.append((label, mat))
        object.__setattr__(self, "galois", tuple(pairs))
        object.__setattr__(self, "inertia", tuple(inertia))
        object.__setattr__(self, "wild", tuple(wild))
        object.__setattr__(self, "frobenius", frobenius)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("RootDatumWithAction is immutable")

    def _fields(self) -> tuple:
        return (self.rank, self.coroots, self.roots, self.galois, self.inertia,
                self.wild, self.frobenius)

    def __eq__(self, other):
        return (type(other) is RootDatumWithAction
                and self._fields() == other._fields())

    def __hash__(self):
        return hash(self._fields())

    # ----------------------------------------------------------- validation

    def _validate(self) -> None:
        if len(self.roots) != len(self.coroots):
            raise InvalidDatum("roots and coroots must come in matched pairs")
        if len(set(self.coroots)) != len(self.coroots):
            raise InvalidDatum("duplicate coroot")
        if len(set(self.roots)) != len(self.roots):
            raise InvalidDatum("duplicate root")
        for a, av in zip(self.roots, self.coroots):
            if _dot(a, av) != 2:
                raise InvalidDatum(
                    f"pairing of root {a} with its coroot {av} is not 2")
        labels = [label for label, _ in self.galois]
        if len(set(labels)) != len(labels):
            raise InvalidDatum("duplicate operator label")
        for kind, named in (("inertia", self.inertia), ("wild", self.wild)):
            if len(set(named)) != len(named):
                raise InvalidDatum(f"duplicate {kind} label")
        known = set(labels)
        for label in self.inertia:
            if label not in known:
                raise InvalidDatum(f"inertia label {label!r} is not declared")
        if not set(self.wild) <= set(self.inertia):
            raise InvalidDatum("wild labels must be inertia labels")
        if self.frobenius not in known:
            raise InvalidDatum(f"frobenius label {self.frobenius!r} is not declared")
        # shapes before any rank-sized matrix, so a declared rank far above
        # the operators' size fails in time proportional to the input
        for label, mat in self.galois:
            if mat.rows != self.rank or mat.cols != self.rank:
                raise InvalidDatum(f"operator {label!r} is not {self.rank}x{self.rank}")
        coroots = IntMatrix.from_columns(self.coroots, self.rank)
        roots = IntMatrix.from_columns(self.roots, self.rank)
        for label, mat in self.galois:
            if not mat.is_unimodular():
                raise InvalidDatum(f"operator {label!r} is not unimodular")
            self._check_permutes(label, mat, coroots, roots)
        ops = dict(self.galois)
        object.__setattr__(self, "coroot_matrix", coroots)
        object.__setattr__(self, "inertia_matrices",
                           tuple(ops[label] for label in self.inertia))
        object.__setattr__(self, "wild_matrices",
                           tuple(ops[label] for label in self.wild))
        object.__setattr__(self, "frobenius_matrix", ops[self.frobenius])
        object.__setattr__(self, "tame_order", self._check_normal_images())

    def _check_permutes(self, label: str, mat: IntMatrix, coroots: IntMatrix,
                        roots: IntMatrix) -> None:
        """The operator M must permute the coroots, and its inverse
        transpose the roots by the same index permutation: M·a∨_i = a∨_j
        together with Mᵀ·a_j = a_i, which needs no inverse.  One product
        per side; ``coroots`` and ``roots`` hold the vectors as columns."""
        if not self.coroots:
            return
        index = {v: i for i, v in enumerate(self.coroots)}
        pulled = (mat.transpose() @ roots).columns()
        for i, image in enumerate((mat @ coroots).columns()):
            j = index.get(image)
            if j is None:
                raise InvalidDatum(f"operator {label!r} moves coroot "
                                   f"{self.coroots[i]} outside the coroot set")
            if pulled[j] != self.roots[i]:
                raise InvalidDatum(
                    f"operator {label!r} does not permute the roots compatibly")

    def _check_normal_images(self) -> int:
        """Frobenius must normalize the inertia image, and inertia and
        Frobenius the wild image.  Returns the order of the tame quotient,
        the ratio of the two image sizes: a group order, because the wild
        image is normal.  Each image is enumerated once."""
        gens = self.inertia_matrices
        if not gens:
            return 1
        closure = _matrix_group_closure(gens, self.rank)
        f = self.frobenius_matrix
        finv = f.inverse_unimodular()
        for g in gens:
            if (f @ g @ finv).entries not in closure:
                raise InvalidDatum(
                    "frobenius does not normalize the inertia image")
        # the wild image must be normal in the full weil action: conjugation
        # by inertia or frobenius has to stay inside it, or the coinvariant
        # towers built on the wild quotient are not even well posed
        wild_gens = self.wild_matrices
        if not wild_gens:
            return len(closure)
        wild_closure = _matrix_group_closure(wild_gens, self.rank)
        for outer in gens + (f,):
            inv = outer.inverse_unimodular()
            for w in wild_gens:
                if (outer @ w @ inv).entries not in wild_closure:
                    raise InvalidDatum(
                        "wild image must be normal under inertia and frobenius")
        return len(closure) // len(wild_closure)


def _matrix_group_closure(gens: Sequence[IntMatrix], dim: int) -> set:
    """Entry tuples of the group generated by `gens` under multiplication.

    Generators of infinite order overflow the cap and raise InvalidDatum;
    for finite matrix groups the multiplicative closure already contains
    every inverse, so no separate inversion step is needed.
    """
    seen = {IntMatrix.identity(dim).entries}
    frontier = [IntMatrix.identity(dim)]
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                prod = g @ m
                if prod.entries not in seen:
                    if len(seen) >= _CLOSURE_CAP:
                        raise InvalidDatum(
                            "inertia image is too large to enumerate")
                    seen.add(prod.entries)
                    fresh.append(prod)
        frontier = fresh
    return seen


# --------------------------------------------------------------- functors


def pi1(datum: RootDatumWithAction) -> FGAbelianGroup:
    """Cocharacter lattice modulo the coroot lattice, in ambient Z^rank.

    Every operator descends to it: validation proved that each permutes the
    coroots.
    """
    return FGAbelianGroup(datum.rank, IntMatrix.identity(datum.rank),
                          datum.coroot_matrix)


def kottwitz_target(datum: RootDatumWithAction) -> FGAbelianGroup:
    """Frobenius fixed points of the inertia coinvariants of pi1."""
    descended = coinvariants(pi1(datum), datum.inertia_matrices)
    return fixed_points(descended, datum.frobenius_matrix)


class DerivedAbelianized(NamedTuple):
    """The abelianized end of the derived-subgroup sequence, in the shared
    ambient; the derived end, the saturation of the coroot lattice modulo
    the coroot lattice, is ``pi1(datum).torsion()``.

    ``cochar_ab`` is the cocharacter lattice of the abelianization (ambient
    modulo saturation).  ``ab_wild`` carries each wild operator, in the
    order of ``datum.wild``, transported to coordinates on Z^r, r =
    ``cochar_ab.free_rank``.
    """

    cochar_ab: FGAbelianGroup
    ab_wild: tuple  # IntMatrix on Z^r per wild label


@functools.lru_cache(maxsize=None)
def derived_and_abelianized(datum: RootDatumWithAction) -> DerivedAbelianized:
    """The saturation of the coroots is the torsion of pi1, so it contains
    them and its Smith form is the identity: U maps it onto the first s
    coordinates.  Each operator permutes the coroots, so it preserves the
    saturation and U·M·U⁻¹ is block upper triangular; its lower-right block
    is the action on cochar_ab.  Only the wild operators are transported:
    the criterion reads no other, so without one U is not computed."""
    rank = datum.rank
    saturation = pi1(datum).torsion().sub
    cochar_ab = FGAbelianGroup(rank, IntMatrix.identity(rank), saturation)
    s = saturation.cols
    if s == 0 or not datum.wild:
        return DerivedAbelianized(cochar_ab, datum.wild_matrices)
    U, _S, _V = smith_normal_form(saturation)
    uinv = U.inverse_unimodular()
    ab_wild = []
    for mat in datum.wild_matrices:
        h = (U @ mat @ uinv).entries
        ab_wild.append(IntMatrix._of(
            tuple(row[s:] for row in h[s:]), rank - s, rank - s))
    return DerivedAbelianized(cochar_ab, tuple(ab_wild))


def permutes_standard_basis(operators: Sequence[IntMatrix]) -> bool:
    """Is every column of every operator a standard basis vector?

    Then the operators permute the standard basis: the lattice is a
    permutation module for the group they generate, so its coinvariants are
    torsion-free.
    """
    return all(col.count(1) == 1 and col.count(0) == len(col) - 1
               for mat in operators for col in mat.columns())


# ---------------------------------------------------------------- catalog


class CatalogEntry(NamedTuple):
    """A named example datum.  ``quasi_split`` is the one field not derivable
    from the datum: inner twists share their root datum."""

    name: str
    datum: RootDatumWithAction
    quasi_split: bool = True


def _split(rank: int, coroots=(), roots=()):
    return RootDatumWithAction(
        rank, coroots=coroots, roots=roots,
        galois=(("F", IntMatrix.identity(rank)),), frobenius="F")


_ID1 = ((1,),)
_ID2 = ((1, 0), (0, 1))
_SWAP = ((0, 1), (1, 0))
_NEG1 = ((-1,),)
_NEG2 = ((-1, 0), (0, -1))
_ROT3 = ((0, -1), (1, -1))  # order three, commutes with negation

_A2_COROOTS = ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1))
_A2_ROOTS = ((2, -1), (-1, 2), (1, 1), (-2, 1), (1, -2), (-1, -1))


@functools.lru_cache(maxsize=None)
def catalog() -> Mapping[str, CatalogEntry]:
    """Named example data; keys are stable identifiers used by the CLI.

    Every call returns one read-only mapping over the same frozen entries,
    which are built and validated on the first call only."""
    return MappingProxyType({entry.name: entry for entry in (
        CatalogEntry("split_torus_rank1", _split(1)),
        CatalogEntry("split_torus_rank2", _split(2)),
        CatalogEntry(
            "unramified_induced_rank2",
            RootDatumWithAction(2, galois=(("F", _SWAP),), frobenius="F")),
        CatalogEntry(
            "tame_induced_rank2",
            RootDatumWithAction(2, galois=(("s", _SWAP), ("F", _NEG2)),
                                inertia=("s",), frobenius="F")),
        CatalogEntry(
            "norm_one_ramified",
            RootDatumWithAction(1, galois=(("s", _NEG1), ("F", _ID1)),
                                inertia=("s",), frobenius="F")),
        CatalogEntry(
            "norm_one_unramified",
            RootDatumWithAction(1, galois=(("F", _NEG1),), frobenius="F")),
        CatalogEntry(
            "norm_one_wild",
            RootDatumWithAction(1, galois=(("w", _NEG1), ("F", _ID1)),
                                inertia=("w",), wild=("w",), frobenius="F")),
        CatalogEntry(
            "wild_swap_rank2",
            RootDatumWithAction(2, galois=(("w", _SWAP), ("F", _ID2)),
                                inertia=("w",), wild=("w",), frobenius="F")),
        CatalogEntry(
            "wild_induced_rank2",
            RootDatumWithAction(2, galois=(("w", _SWAP), ("F", _NEG2)),
                                inertia=("w",), wild=("w",), frobenius="F")),
        CatalogEntry(
            "wild_plus_tame_rank2",
            RootDatumWithAction(2, galois=(("w", _NEG2), ("t", _ROT3), ("F", _ID2)),
                                inertia=("w", "t"), wild=("w",), frobenius="F")),
        CatalogEntry(
            "sl2_split", _split(1, coroots=((1,), (-1,)), roots=((2,), (-2,)))),
        CatalogEntry(
            "pgl2_split", _split(1, coroots=((2,), (-2,)), roots=((1,), (-1,)))),
        CatalogEntry(
            "gl2_split",
            _split(2, coroots=((1, -1), (-1, 1)), roots=((1, -1), (-1, 1)))),
        CatalogEntry(
            "sl3_split", _split(2, coroots=_A2_COROOTS, roots=_A2_ROOTS)),
        CatalogEntry(
            "pgl3_split", _split(2, coroots=_A2_ROOTS, roots=_A2_COROOTS)),
        CatalogEntry(
            "sp4_split",
            _split(2,
                   coroots=((1, 0), (0, 1), (1, 1), (1, -1),
                            (-1, 0), (0, -1), (-1, -1), (-1, 1)),
                   roots=((2, 0), (0, 2), (1, 1), (1, -1),
                          (-2, 0), (0, -2), (-1, -1), (-1, 1)))),
        CatalogEntry(
            "su3_unramified",
            RootDatumWithAction(2, coroots=_A2_COROOTS, roots=_A2_ROOTS,
                                galois=(("F", _SWAP),), frobenius="F")),
        CatalogEntry(
            "gl2_inner_twist",
            _split(2, coroots=((1, -1), (-1, 1)), roots=((1, -1), (-1, 1))),
            quasi_split=False),
    )})


# ------------------------------------------------------------------- JSON


def _require(obj: dict, key: str, kind, what: str):
    if key not in obj:
        raise ParseError(f"{what} is missing the {key!r} field")
    value = obj[key]
    if type(value) is not kind:  # a JSON boolean is no int
        raise ParseError(f"{key!r} must be a {kind.__name__}")
    return value


def _int_rows(rows: list, what: str) -> list:
    """``rows`` once each is a list of JSON integers: a boolean, float or
    string entry, which ``int()`` would read or truncate, is a ParseError."""
    for row in rows:
        if type(row) is not list or any(type(x) is not int for x in row):
            raise ParseError(f"{what} must be a list of integer lists")
    return rows


# induced_witness, a key of older files, is accepted and ignored
_DATUM_KEYS = ("rank", "coroots", "roots", "galois", "inertia", "wild",
               "frobenius", "induced_witness")


def datum_from_dict(obj) -> RootDatumWithAction:
    """The datum of a datum file's JSON object; an unknown key is an error."""
    if not isinstance(obj, dict):
        raise ParseError("datum must be a JSON object")
    only_keys(obj, _DATUM_KEYS, "datum")
    rank = _require(obj, "rank", int, "datum")
    coroots, roots = (_int_rows(_require(obj, key, list, "datum"), repr(key))
                      if key in obj else [] for key in ("coroots", "roots"))
    galois_raw = _require(obj, "galois", list, "datum")
    galois = []
    for item in galois_raw:
        if not isinstance(item, dict):
            raise ParseError("each galois item must be an object")
        only_keys(item, ("label", "matrix"), "galois item")
        label = _require(item, "label", str, "galois item")
        matrix = _int_rows(_require(item, "matrix", list, "galois item"),
                           f"the matrix of {label!r}")
        galois.append((label, matrix))
    inertia = obj.get("inertia", [])
    wild = obj.get("wild", [])
    frobenius = _require(obj, "frobenius", str, "datum")
    for name, seq in (("inertia", inertia), ("wild", wild)):
        if not isinstance(seq, list) or not all(isinstance(x, str) for x in seq):
            raise ParseError(f"{name!r} must be a list of labels")
    try:
        return RootDatumWithAction(
            rank, coroots=coroots, roots=roots, galois=galois,
            inertia=inertia, wild=wild, frobenius=frobenius)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed datum: {exc}") from exc


@functools.lru_cache(maxsize=None)
def load_datum(text: str) -> RootDatumWithAction:
    """Parse a JSON datum; malformed JSON reports line and column.  One
    parsed and validated datum per distinct text; a text that raises is
    not cached."""
    return datum_from_dict(parse_json(text))
