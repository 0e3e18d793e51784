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
coinvariants followed by Frobenius fixed points), and the two ends of the
derived-subgroup sequence: the fundamental group of the derived subgroup and
the cocharacter lattice of the abelianization.

``catalog()`` returns a fixed library of small worked examples used by the
tests and the command-line tools.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .abelian import (
    FGAbelianGroup,
    IntMatrix,
    SubquotientMap,
    coinvariants,
    fixed_points,
    lattice_contains,
    lattice_sum,
    smith_normal_form,
)
from .errors import InvalidDatum, InvalidWitness, InvariantViolation, ParseError

# Enumerating the inertia image stops here; bigger images cannot be verified.
_CLOSURE_CAP = 4096


def _as_vector(v, rank: int, what: str) -> tuple:
    vec = tuple(int(x) for x in v)
    if len(vec) != rank:
        raise InvalidDatum(f"{what} {vec} does not have length {rank}")
    return vec


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _apply(m: IntMatrix, v: Sequence[int]) -> tuple:
    return tuple(_dot(row, v) for row in m.entries)


@dataclass(frozen=True)
class RootDatumWithAction:
    """Cocharacter lattice with coroots, roots, and a labeled Galois action.

    ``galois`` is a tuple of ``(label, matrix)`` pairs; ``inertia`` and
    ``wild`` list the labels generated by (wild) inertia, and ``frobenius``
    names the Frobenius lift.  Construction validates the structure and
    raises InvalidDatum on any defect.
    """

    rank: int
    coroots: tuple
    roots: tuple
    galois: tuple
    inertia: tuple
    wild: tuple
    frobenius: str
    induced_witness: Optional[IntMatrix] = None

    def __init__(self, rank: int, coroots=(), roots=(), galois=(),
                 inertia=(), wild=(), frobenius: str = "F",
                 induced_witness: Optional[IntMatrix] = None):
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
        if induced_witness is not None and not isinstance(induced_witness, IntMatrix):
            induced_witness = IntMatrix(induced_witness)
        object.__setattr__(self, "induced_witness", induced_witness)
        self._validate()

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
        known = set(labels)
        for label in self.inertia:
            if label not in known:
                raise InvalidDatum(f"inertia label {label!r} is not declared")
        if not set(self.wild) <= set(self.inertia):
            raise InvalidDatum("wild labels must be inertia labels")
        if self.frobenius not in known:
            raise InvalidDatum(f"frobenius label {self.frobenius!r} is not declared")
        for label, mat in self.galois:
            if mat.rows != self.rank or mat.cols != self.rank:
                raise InvalidDatum(f"operator {label!r} is not {self.rank}x{self.rank}")
            if not mat.is_unimodular():
                raise InvalidDatum(f"operator {label!r} is not unimodular")
            self._check_permutes(label, mat)
        if self.induced_witness is not None:
            w = self.induced_witness
            if w.rows != self.rank or w.cols != self.rank or not w.is_unimodular():
                raise InvalidDatum("induced_witness must be a unimodular basis matrix")
        self._check_frobenius_normalizes()

    def _check_permutes(self, label: str, mat: IntMatrix) -> None:
        """The operator must permute the coroots; the inverse transpose must
        permute the roots by the same index permutation."""
        if not self.coroots:
            return
        index = {v: i for i, v in enumerate(self.coroots)}
        dual = mat.inverse_unimodular().transpose()
        for i, (a, av) in enumerate(zip(self.roots, self.coroots)):
            image = _apply(mat, av)
            j = index.get(image)
            if j is None:
                raise InvalidDatum(
                    f"operator {label!r} moves coroot {av} outside the coroot set")
            if _apply(dual, a) != self.roots[j]:
                raise InvalidDatum(
                    f"operator {label!r} does not permute the roots compatibly")

    def _check_frobenius_normalizes(self) -> None:
        gens = [self.matrix(label) for label in self.inertia]
        if not gens:
            return
        closure = _matrix_group_closure(gens, self.rank)
        f = self.matrix(self.frobenius)
        finv = f.inverse_unimodular()
        for g in gens:
            if (f @ g @ finv).entries not in closure:
                raise InvalidDatum(
                    "frobenius does not normalize the inertia image")
        # the wild image must be normal in the full weil action: conjugation
        # by inertia or frobenius has to stay inside it, or the coinvariant
        # towers built on the wild quotient are not even well posed
        wild_gens = [self.matrix(label) for label in self.wild]
        if not wild_gens:
            return
        wild_closure = _matrix_group_closure(wild_gens, self.rank)
        for outer in gens + [f]:
            inv = outer.inverse_unimodular()
            for w in wild_gens:
                if (outer @ w @ inv).entries not in wild_closure:
                    raise InvalidDatum(
                        "wild image must be normal under inertia and frobenius")

    # ------------------------------------------------------------ accessors

    def matrix(self, label: str) -> IntMatrix:
        for known, mat in self.galois:
            if known == label:
                return mat
        raise InvalidDatum(f"no operator labeled {label!r}")

    @property
    def inertia_matrices(self) -> tuple:
        return tuple(self.matrix(label) for label in self.inertia)

    @property
    def wild_matrices(self) -> tuple:
        return tuple(self.matrix(label) for label in self.wild)

    @property
    def frobenius_matrix(self) -> IntMatrix:
        return self.matrix(self.frobenius)

    def coroot_matrix(self) -> IntMatrix:
        return IntMatrix.from_columns(self.coroots, self.rank)


def tame_quotient_order(datum: RootDatumWithAction) -> int:
    """Order of the tame quotient of the inertia image.

    The ratio of the two closure sizes; the wild image is normal in the
    inertia image (validated at construction), so this is a group order.
    """
    gens = list(datum.inertia_matrices)
    if not gens:
        return 1
    total = len(_matrix_group_closure(gens, datum.rank))
    wild_gens = list(datum.wild_matrices)
    if not wild_gens:
        return total
    return total // len(_matrix_group_closure(wild_gens, datum.rank))


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

    Every declared operator must preserve the coroot lattice so that it
    descends to the quotient; the permutation check at construction time
    guarantees this, but the invariant is re-verified here.
    """
    coroot_lattice = datum.coroot_matrix()
    for label, mat in datum.galois:
        if coroot_lattice.cols and not lattice_contains(
                coroot_lattice, mat @ coroot_lattice):
            raise InvalidDatum(
                f"operator {label!r} does not preserve the coroot lattice")
    return FGAbelianGroup(datum.rank, IntMatrix.identity(datum.rank),
                          coroot_lattice)


def kottwitz_target(datum: RootDatumWithAction) -> FGAbelianGroup:
    """Frobenius fixed points of the inertia coinvariants of pi1."""
    descended = coinvariants(pi1(datum), datum.inertia_matrices)
    return fixed_points(descended, datum.frobenius_matrix)


@dataclass(frozen=True)
class DerivedAbelianized:
    """Two ends of the derived-subgroup sequence, in the shared ambient.

    ``pi1_der`` is the fundamental group of the derived subgroup (saturation
    of the coroot lattice modulo the coroot lattice); ``cochar_ab`` is the
    cocharacter lattice of the abelianization (ambient modulo saturation).
    ``ab_action`` carries each operator transported to coordinates on
    Z^ab_rank for the quotient lattice.
    """

    pi1_der: FGAbelianGroup
    cochar_ab: FGAbelianGroup
    ab_rank: int
    ab_action: tuple  # (label, IntMatrix on Z^ab_rank) pairs


def derived_and_abelianized(datum: RootDatumWithAction) -> DerivedAbelianized:
    rank = datum.rank
    ambient = IntMatrix.identity(rank)
    coroot_lattice = datum.coroot_matrix()
    full = FGAbelianGroup(rank, ambient, coroot_lattice)
    saturation = full.torsion().sub  # ambient vectors with a multiple in the coroot lattice
    pi1_der = FGAbelianGroup(rank, saturation, coroot_lattice)
    cochar_ab = FGAbelianGroup(rank, ambient, saturation)

    into = SubquotientMap(pi1_der, full)
    onto = SubquotientMap(full, cochar_ab)
    if not (into.well_defined() and into.injective()):
        raise InvariantViolation("derived part does not embed")
    if not (onto.well_defined() and onto.surjective()):
        raise InvariantViolation("abelianized part is not a quotient")
    # exactness in the middle: the kernel lattice of the quotient map is the
    # saturation, which must coincide with the image lattice of the embedding
    image = lattice_sum(coroot_lattice, saturation)
    if not (lattice_contains(saturation, image)
            and lattice_contains(image, saturation)):
        raise InvariantViolation("sequence fails exactness in the middle")

    s = saturation.cols
    ab_rank = rank - s
    if s == 0:
        action = tuple((label, mat) for label, mat in datum.galois)
        return DerivedAbelianized(pi1_der, cochar_ab, ab_rank, action)
    U, S, _V = smith_normal_form(saturation)
    if any(S.entries[i][i] != 1 for i in range(s)):
        raise InvariantViolation("saturation is not saturated")
    uinv = U.inverse_unimodular()
    action = []
    for label, mat in datum.galois:
        h = U @ mat @ uinv
        if any(h.entries[i][j] != 0 for i in range(s, rank) for j in range(s)):
            raise InvalidDatum(
                f"operator {label!r} does not descend to the abelianization")
        block = [[h.entries[i][j] for j in range(s, rank)] for i in range(s, rank)]
        action.append((label, IntMatrix(block, rows=ab_rank, cols=ab_rank)))
    return DerivedAbelianized(pi1_der, cochar_ab, ab_rank, tuple(action))


def is_induced(operators: Sequence[IntMatrix], witness: IntMatrix) -> bool:
    """Do the operators permute the columns of the witness basis?

    The witness must be a square unimodular matrix of the operators'
    dimension (InvalidWitness otherwise).  A lattice with such a witness is
    a permutation module for the group the operators generate, so its
    coinvariants are torsion-free.
    """
    if witness.rows != witness.cols:
        raise InvalidWitness("witness must be square")
    if not witness.is_unimodular():
        raise InvalidWitness("witness columns are not a lattice basis")
    for mat in operators:
        if mat.rows != witness.rows or mat.cols != witness.rows:
            raise InvalidWitness("witness dimension does not match the operators")
    basis = set(witness.columns())
    for mat in operators:
        for col in basis:
            if _apply(mat, col) not in basis:
                return False
    return True


# ---------------------------------------------------------------- catalog


@dataclass(frozen=True)
class CatalogEntry:
    """A named example datum with arithmetic metadata.

    ``residue_chars`` limits the residue characteristics the entry models
    (None = no restriction; entries with wild operators of order n only make
    sense when p divides n).  ``tame_witness`` is a basis permuted by every
    inertia operator, when one exists — such entries have torsion-free
    inertia coinvariants.  ``quasi_split`` is metadata, not derivable from
    the datum: inner twists share their root datum.
    """

    name: str
    datum: RootDatumWithAction
    quasi_split: bool = True
    residue_chars: Optional[tuple] = None
    tame_witness: Optional[IntMatrix] = None
    summary: str = ""


def _split(rank: int, coroots=(), roots=()):
    return RootDatumWithAction(
        rank, coroots=coroots, roots=roots,
        galois=(("F", IntMatrix.identity(rank)),), frobenius="F")


_SWAP = ((0, 1), (1, 0))
_NEG1 = ((-1,),)
_NEG2 = ((-1, 0), (0, -1))
_ROT3 = ((0, -1), (1, -1))  # order three, commutes with negation

_A2_COROOTS = ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1))
_A2_ROOTS = ((2, -1), (-1, 2), (1, 1), (-2, 1), (1, -2), (-1, -1))


def catalog() -> dict:
    """Named example data; keys are stable identifiers used by the CLI.

    Each call returns a new dict over the same frozen entries, which are
    built and validated on the first call only."""
    return {entry.name: entry for entry in _catalog_entries()}


@functools.lru_cache(maxsize=None)
def _catalog_entries() -> tuple:
    eye1 = IntMatrix.identity(1)
    eye2 = IntMatrix.identity(2)
    return (
        CatalogEntry(
            "split_torus_rank1", _split(1), tame_witness=eye1,
            summary="split one-dimensional torus; everything trivial"),
        CatalogEntry(
            "split_torus_rank2", _split(2), tame_witness=eye2,
            summary="split two-dimensional torus"),
        CatalogEntry(
            "unramified_induced_rank2",
            RootDatumWithAction(2, galois=(("F", _SWAP),), frobenius="F"),
            tame_witness=eye2,
            summary="unramified induced torus; Frobenius swaps the basis"),
        CatalogEntry(
            "tame_induced_rank2",
            RootDatumWithAction(2, galois=(("s", _SWAP), ("F", _NEG2)),
                                inertia=("s",), frobenius="F"),
            tame_witness=eye2,
            summary="tame inertia swaps the basis; Frobenius negates"),
        CatalogEntry(
            "norm_one_ramified",
            RootDatumWithAction(1, galois=(("s", _NEG1), ("F", eye1)),
                                inertia=("s",), frobenius="F"),
            summary="norm-one torus of a ramified quadratic extension"),
        CatalogEntry(
            "norm_one_unramified",
            RootDatumWithAction(1, galois=(("F", _NEG1),), frobenius="F"),
            tame_witness=eye1,
            summary="norm-one torus of the unramified quadratic extension"),
        CatalogEntry(
            "norm_one_wild",
            RootDatumWithAction(1, galois=(("w", _NEG1), ("F", eye1)),
                                inertia=("w",), wild=("w",), frobenius="F"),
            residue_chars=(2,),
            summary="norm-one torus of a wildly ramified quadratic extension"),
        CatalogEntry(
            "wild_swap_rank2",
            RootDatumWithAction(2, galois=(("w", _SWAP), ("F", eye2)),
                                inertia=("w",), wild=("w",), frobenius="F",
                                induced_witness=eye2),
            residue_chars=(2,),
            summary="wildly induced rank-two torus; wild inertia swaps the basis"),
        CatalogEntry(
            "wild_induced_rank2",
            RootDatumWithAction(2, galois=(("w", _SWAP), ("F", _NEG2)),
                                inertia=("w",), wild=("w",), frobenius="F",
                                induced_witness=eye2),
            residue_chars=(2,),
            summary="wild basis swap with Frobenius acting by negation"),
        CatalogEntry(
            "wild_plus_tame_rank2",
            RootDatumWithAction(2, galois=(("w", _NEG2), ("t", _ROT3), ("F", eye2)),
                                inertia=("w", "t"), wild=("w",), frobenius="F"),
            residue_chars=(2,),
            summary="central wild negation under a tame order-three rotation"),
        CatalogEntry(
            "sl2_split", _split(1, coroots=((1,), (-1,)), roots=((2,), (-2,))),
            tame_witness=eye1,
            summary="split rank-one simply connected group"),
        CatalogEntry(
            "pgl2_split", _split(1, coroots=((2,), (-2,)), roots=((1,), (-1,))),
            tame_witness=eye1,
            summary="split rank-one adjoint group"),
        CatalogEntry(
            "gl2_split",
            _split(2, coroots=((1, -1), (-1, 1)), roots=((1, -1), (-1, 1))),
            tame_witness=eye2,
            summary="split reductive group with one-dimensional center"),
        CatalogEntry(
            "sl3_split", _split(2, coroots=_A2_COROOTS, roots=_A2_ROOTS),
            tame_witness=eye2,
            summary="split rank-two simply connected group"),
        CatalogEntry(
            "pgl3_split", _split(2, coroots=_A2_ROOTS, roots=_A2_COROOTS),
            tame_witness=eye2,
            summary="split rank-two adjoint group"),
        CatalogEntry(
            "sp4_split",
            _split(2,
                   coroots=((1, 0), (0, 1), (1, 1), (1, -1),
                            (-1, 0), (0, -1), (-1, -1), (-1, 1)),
                   roots=((2, 0), (0, 2), (1, 1), (1, -1),
                          (-2, 0), (0, -2), (-1, -1), (-1, 1))),
            tame_witness=eye2,
            summary="split rank-two symplectic group"),
        CatalogEntry(
            "su3_unramified",
            RootDatumWithAction(2, coroots=_A2_COROOTS, roots=_A2_ROOTS,
                                galois=(("F", _SWAP),), frobenius="F"),
            tame_witness=eye2,
            summary="quasi-split unramified special unitary group of rank two"),
        CatalogEntry(
            "gl2_inner_twist",
            _split(2, coroots=((1, -1), (-1, 1)), roots=((1, -1), (-1, 1))),
            quasi_split=False, tame_witness=eye2,
            summary="inner twist sharing the gl2 datum; comparison is conjectural"),
    )


# ------------------------------------------------------------------- JSON


def datum_to_dict(datum: RootDatumWithAction) -> dict:
    """The JSON object of a datum file; ``datum_from_dict`` inverts it."""
    out = {
        "rank": datum.rank,
        "coroots": [list(v) for v in datum.coroots],
        "roots": [list(v) for v in datum.roots],
        "galois": [{"label": label, "matrix": [list(row) for row in mat.entries]}
                   for label, mat in datum.galois],
        "inertia": list(datum.inertia),
        "wild": list(datum.wild),
        "frobenius": datum.frobenius,
    }
    if datum.induced_witness is not None:
        out["induced_witness"] = [list(row) for row in datum.induced_witness.entries]
    return out


def _require(obj: dict, key: str, kind, what: str):
    if key not in obj:
        raise ParseError(f"{what} is missing the {key!r} field")
    value = obj[key]
    if not isinstance(value, kind):
        raise ParseError(f"{key!r} must be a {kind.__name__}")
    return value


def datum_from_dict(obj) -> RootDatumWithAction:
    if not isinstance(obj, dict):
        raise ParseError("datum must be a JSON object")
    rank = _require(obj, "rank", int, "datum")
    coroots = _require(obj, "coroots", list, "datum") if "coroots" in obj else []
    roots = _require(obj, "roots", list, "datum") if "roots" in obj else []
    galois_raw = _require(obj, "galois", list, "datum")
    galois = []
    for item in galois_raw:
        if not isinstance(item, dict):
            raise ParseError("each galois item must be an object")
        label = _require(item, "label", str, "galois item")
        matrix = _require(item, "matrix", list, "galois item")
        galois.append((label, matrix))
    inertia = obj.get("inertia", [])
    wild = obj.get("wild", [])
    frobenius = _require(obj, "frobenius", str, "datum")
    for name, seq in (("inertia", inertia), ("wild", wild)):
        if not isinstance(seq, list) or not all(isinstance(x, str) for x in seq):
            raise ParseError(f"{name!r} must be a list of labels")
    witness = obj.get("induced_witness")
    try:
        return RootDatumWithAction(
            rank, coroots=coroots, roots=roots, galois=galois,
            inertia=inertia, wild=wild, frobenius=frobenius,
            induced_witness=witness)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed datum: {exc}") from exc


def load_datum(text: str) -> RootDatumWithAction:
    """Parse a JSON datum; malformed JSON reports line and column."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    return datum_from_dict(obj)
