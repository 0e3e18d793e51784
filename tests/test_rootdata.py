"""Root-datum construction, validation, lattice functors, and the catalog."""

import json
import random

import pytest
from conftest import (catalog_sum, datum_to_dict, general_exact,
                      seeded_catalog_sums, well_defined)

from blockatlas.abelian import (
    FGAbelianGroup,
    IntMatrix,
    coinvariants,
    injects,
    smith_normal_form,
)
from blockatlas.errors import InvalidDatum, ParseError
from blockatlas.rootdata import (
    RootDatumWithAction,
    _matrix_group_closure,
    catalog,
    datum_from_dict,
    derived_and_abelianized,
    kottwitz_target,
    load_datum,
    permutes_standard_basis,
    pi1,
)

SWAP = ((0, 1), (1, 0))


# ---------------------------------------------------------------- validation


def test_pairing_must_be_two():
    with pytest.raises(InvalidDatum, match="pairing"):
        RootDatumWithAction(1, coroots=((1,),), roots=((1,),),
                            galois=(("F", IntMatrix.identity(1)),))


def test_root_coroot_counts_must_match():
    with pytest.raises(InvalidDatum, match="matched pairs"):
        RootDatumWithAction(1, coroots=((1,), (-1,)), roots=((2,),),
                            galois=(("F", IntMatrix.identity(1)),))


def test_operator_must_permute_coroots():
    g = ((2, 1), (1, 1))  # unimodular, but sends (1,0) to (2,1)
    with pytest.raises(InvalidDatum, match="outside the coroot set"):
        RootDatumWithAction(
            2,
            coroots=((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)),
            roots=((2, -1), (-1, 2), (1, 1), (-2, 1), (1, -2), (-1, -1)),
            galois=(("F", g),))


def test_operator_must_move_roots_compatibly():
    # reflection fixing the coroot line but twisting the paired roots
    g = ((-1, 0), (0, 1))
    with pytest.raises(InvalidDatum, match="compatibly"):
        RootDatumWithAction(2, coroots=((1, 0), (-1, 0)),
                            roots=((2, 1), (-2, -1)),
                            galois=(("F", g),))


def _datum_error(coroots, roots, *operators):
    try:
        RootDatumWithAction(
            2, coroots=coroots, roots=roots,
            galois=[(f"g{i}", g) for i, g in enumerate(operators)]
            + [("F", IntMatrix.identity(2))])
    except InvalidDatum as exc:
        return str(exc)
    return None


# diag(-1, 1) sends coroot 0 to coroot 1, which Mᵀ sends to (2, 1) != a_0;
# it sends the coroot (1, 1) outside the set
_FLIP = ((-1, 0), (0, 1))
_ROOT_FAILURE = ((1, 0), (2, 1))
_COROOT_FAILURE = ((1, 1), (1, 1))
_PAIR = ((-1, 0), (-2, -1))


def test_permutation_check_messages_and_first_failure():
    def error(*pairs):
        return _datum_error([av for av, _ in pairs], [a for _, a in pairs],
                            _FLIP)
    coroot = "operator 'g0' moves coroot (1, 1) outside the coroot set"
    roots = "operator 'g0' does not permute the roots compatibly"
    assert error(_COROOT_FAILURE, _ROOT_FAILURE, _PAIR) == coroot
    assert error(_ROOT_FAILURE, _PAIR, _COROOT_FAILURE) == roots
    assert error(_PAIR, _ROOT_FAILURE, _COROOT_FAILURE) == roots
    assert error(_ROOT_FAILURE, _PAIR) == roots
    assert error(((1, 0), (2, 0)), ((-1, 0), (-2, 0))) is None
    # a rotation of order four: Mᵀ·a_j = a_i holds, Mᵀ·a_i = a_j does not
    axes = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    assert _datum_error(axes, [(2 * x, 2 * y) for x, y in axes],
                        ((0, -1), (1, 0))) is None
    # operators are checked in their order
    assert _datum_error([(1, 0), (-1, 0)], [(2, 1), (-2, -1)], SWAP,
                        _FLIP) == "operator 'g0' moves coroot (1, 0) " \
                                  "outside the coroot set"


def _vector_by_vector(coroots, roots, operators):
    """The permutation check one vector at a time, through the inverse:
    M·a∨_i = a∨_j and (M⁻¹)ᵀ·a_i = a_j."""
    index = {v: i for i, v in enumerate(coroots)}
    for k, g in enumerate(operators):
        dual = IntMatrix(g).inverse_unimodular().transpose().entries
        for i, (a, av) in enumerate(zip(roots, coroots)):
            j = index.get(tuple(sum(x * y for x, y in zip(row, av))
                                for row in g))
            if j is None:
                return f"operator 'g{k}' moves coroot {av} outside the " \
                       f"coroot set"
            if tuple(sum(x * y for x, y in zip(row, a))
                     for row in dual) != roots[j]:
                return f"operator 'g{k}' does not permute the roots " \
                       f"compatibly"
    return None


_A2 = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]
_B2 = _A2 + [(1, -1), (-1, 1)]
# every small root that pairs to 2 with the coroot
_PARTNERS = {av: [(x, y) for x in range(-3, 4) for y in range(-3, 4)
                  if x * av[0] + y * av[1] == 2] for av in _B2}


def test_permutation_check_matches_the_vector_by_vector_check():
    # subsets of the rank-2 coroot systems A2 and B2 with random roots that
    # pair to 2, under the eight signed permutations and three shears: the
    # first failure and its message agree
    rng = random.Random(7)
    operators = [((s, 0), (0, t)) for s in (1, -1) for t in (1, -1)]
    operators += [((0, s), (t, 0)) for s in (1, -1) for t in (1, -1)]
    operators += [((1, 1), (0, 1)), ((1, 0), (-1, 1)), ((2, 1), (1, 1))]
    seen = set()
    for coroots in (_A2, _B2):
        for _ in range(60):
            chosen = rng.sample(coroots, rng.randint(1, len(coroots)))
            roots = [rng.choice(_PARTNERS[av]) for av in chosen]
            if len(set(roots)) < len(roots):
                continue
            ops = rng.sample(operators, 2)
            expected = _vector_by_vector(chosen, roots, ops)
            assert _datum_error(chosen, roots, *ops) == expected
            seen.add(expected and expected.split()[-1])
    assert {"set", "compatibly"} <= seen


def test_label_bookkeeping():
    eye = IntMatrix.identity(1)
    with pytest.raises(InvalidDatum, match="wild"):
        RootDatumWithAction(1, galois=(("s", eye), ("F", eye)),
                            wild=("s",), frobenius="F")
    with pytest.raises(InvalidDatum, match="frobenius"):
        RootDatumWithAction(1, galois=(("s", eye),), frobenius="F")
    with pytest.raises(InvalidDatum, match="duplicate"):
        RootDatumWithAction(1, galois=(("F", eye), ("F", eye)), frobenius="F")
    with pytest.raises(InvalidDatum, match="not declared"):
        RootDatumWithAction(1, galois=(("F", eye),), inertia=("s",),
                            frobenius="F")
    with pytest.raises(InvalidDatum, match="duplicate inertia label"):
        RootDatumWithAction(1, galois=(("s", eye), ("F", eye)),
                            inertia=("s", "s"), frobenius="F")
    with pytest.raises(InvalidDatum, match="duplicate wild label"):
        RootDatumWithAction(1, galois=(("s", eye), ("F", eye)),
                            inertia=("s",), wild=("s", "s"), frobenius="F")


def test_operators_must_be_unimodular():
    with pytest.raises(InvalidDatum, match="unimodular"):
        RootDatumWithAction(1, galois=(("F", ((2,),)),), frobenius="F")


def test_frobenius_must_normalize_inertia():
    rot = ((0, -1), (1, 0))          # order four
    swap = SWAP                      # conjugates rot to its inverse: fine
    RootDatumWithAction(2, galois=(("r", rot), ("F", swap)),
                        inertia=("r",), frobenius="F")
    sign = ((-1, 0), (0, 1))
    shear = ((1, 1), (0, 1))         # conjugate of sign leaves the group
    with pytest.raises(InvalidDatum, match="normalize"):
        RootDatumWithAction(2, galois=(("s", sign), ("F", shear)),
                            inertia=("s",), frobenius="F")


def test_wild_image_must_be_normal():
    sign = ((-1, 0), (0, 1))
    other = ((1, 0), (0, -1))
    # swap conjugates sign to other, which is outside the wild image
    with pytest.raises(InvalidDatum, match="normal"):
        RootDatumWithAction(
            2, galois=(("w", sign), ("s", SWAP), ("F", IntMatrix.identity(2))),
            inertia=("w", "s"), wild=("w",), frobenius="F")
    # declaring both reflections wild makes the image normal again
    RootDatumWithAction(
        2, galois=(("w", sign), ("v", other), ("s", SWAP),
                   ("F", IntMatrix.identity(2))),
        inertia=("w", "v", "s"), wild=("w", "v"), frobenius="F")


def test_tame_quotient_order():
    cat = catalog()
    assert cat["norm_one_ramified"].datum.tame_order == 2
    assert cat["norm_one_wild"].datum.tame_order == 1
    assert cat["wild_plus_tame_rank2"].datum.tame_order == 3
    assert cat["sl2_split"].datum.tame_order == 1
    # derived, not a field: equal data hash alike and compare equal
    again = datum_from_dict(datum_to_dict(cat["wild_plus_tame_rank2"].datum))
    assert again == cat["wild_plus_tame_rank2"].datum and again.tame_order == 3
    assert "tame_order" not in datum_to_dict(again)


def test_validation_stores_the_labeled_operators():
    # every catalog datum and a datum file whose labels are not in galois
    # order: the stored operators are the ones their labels name, resolved
    # once, and as derived values they leave equality and hashing alone
    wild_sum = catalog_sum(["wild_plus_tame_rank2", "sl2_split",
                            "tame_induced_rank2"])
    blob = json.dumps({**datum_to_dict(wild_sum),
                       "inertia": list(reversed(wild_sum.inertia))})
    data = [entry.datum for entry in catalog().values()] + [load_datum(blob)]
    for datum in data:
        ops = dict(datum.galois)
        assert datum.inertia_matrices == tuple(ops[x] for x in datum.inertia)
        assert datum.wild_matrices == tuple(ops[x] for x in datum.wild)
        assert datum.frobenius_matrix == ops[datum.frobenius]
        assert datum.coroot_matrix == IntMatrix.from_columns(datum.coroots,
                                                             datum.rank)
        for name in ("inertia_matrices", "wild_matrices", "frobenius_matrix",
                     "coroot_matrix"):
            assert getattr(datum, name) is getattr(datum, name), name
        assert all(a is ops[x]
                   for a, x in zip(datum.inertia_matrices, datum.inertia))
        assert datum.frobenius_matrix is ops[datum.frobenius]
        again = RootDatumWithAction(
            datum.rank, coroots=datum.coroots, roots=datum.roots,
            galois=datum.galois, inertia=datum.inertia, wild=datum.wild,
            frobenius=datum.frobenius)
        assert again == datum and hash(again) == hash(datum)
    assert data[-1].inertia != wild_sum.inertia
    assert data[-1].inertia_matrices == wild_sum.inertia_matrices[::-1]


def test_each_image_is_enumerated_once(monkeypatch):
    from blockatlas import rootdata
    from blockatlas.langlands import component_lemma_checks
    enumerated = []

    def counted(gens, dim):
        enumerated.append(tuple(g.entries for g in gens))
        return closure(gens, dim)

    closure = rootdata._matrix_group_closure
    monkeypatch.setattr(rootdata, "_matrix_group_closure", counted)
    sign, rot3 = ((-1, 0), (0, -1)), ((0, -1), (1, -1))
    datum = RootDatumWithAction(
        2, galois=(("w", sign), ("t", rot3), ("F", IntMatrix.identity(2))),
        inertia=("w", "t"), wild=("w",), frobenius="F")
    for p in (2, 3, 5):
        component_lemma_checks(datum, p)
    assert enumerated == [(sign, rot3), (sign,)]
    assert datum.tame_order == 3


def test_infinite_inertia_image_is_rejected():
    shear = ((1, 1), (0, 1))
    with pytest.raises(InvalidDatum, match="too large"):
        RootDatumWithAction(2, galois=(("s", shear), ("F", IntMatrix.identity(2))),
                            inertia=("s",), frobenius="F")


# ------------------------------------------------------------------ catalog


def test_catalog_names_are_stable():
    cat = catalog()
    assert set(cat) == {
        "split_torus_rank1", "split_torus_rank2", "unramified_induced_rank2",
        "tame_induced_rank2", "norm_one_ramified", "norm_one_unramified",
        "norm_one_wild", "wild_swap_rank2", "wild_induced_rank2",
        "wild_plus_tame_rank2", "sl2_split", "pgl2_split", "gl2_split",
        "sl3_split", "pgl3_split", "sp4_split", "su3_unramified",
        "gl2_inner_twist",
    }
    for name, entry in cat.items():
        assert entry.name == name
    assert not cat["gl2_inner_twist"].quasi_split
    # the wild entries model residue characteristic 2 only: their wild
    # image has 2-power order
    assert {name: len(_matrix_group_closure(e.datum.wild_matrices,
                                            e.datum.rank))
            for name, e in cat.items() if e.datum.wild} == {
        "norm_one_wild": 2, "wild_swap_rank2": 2, "wild_induced_rank2": 2,
        "wild_plus_tame_rank2": 2}


def test_catalog_pi1_structures():
    # classical fundamental groups: simply connected trivial, adjoint cyclic
    expected = {
        "split_torus_rank1": "Z",
        "split_torus_rank2": "Z + Z",
        "unramified_induced_rank2": "Z + Z",
        "tame_induced_rank2": "Z + Z",
        "norm_one_ramified": "Z",
        "norm_one_unramified": "Z",
        "norm_one_wild": "Z",
        "wild_swap_rank2": "Z + Z",
        "wild_induced_rank2": "Z + Z",
        "wild_plus_tame_rank2": "Z + Z",
        "sl2_split": "0",
        "pgl2_split": "Z/2",
        "gl2_split": "Z",
        "sl3_split": "0",
        "pgl3_split": "Z/3",
        "sp4_split": "0",
        "su3_unramified": "0",
        "gl2_inner_twist": "Z",
    }
    assert {n: pi1(e.datum).describe() for n, e in catalog().items()} == expected


def test_catalog_kottwitz_structures():
    # inertia coinvariants then Frobenius fixed points, by hand:
    # norm_one_ramified: Z/(2) fixed by identity; tame_induced: swap
    # coinvariants Z with Frobenius acting by -1; wild_plus_tame: the
    # negation and rotation relations already exhaust the lattice.
    expected = {
        "split_torus_rank1": "Z",
        "split_torus_rank2": "Z + Z",
        "unramified_induced_rank2": "Z",
        "tame_induced_rank2": "0",
        "norm_one_ramified": "Z/2",
        "norm_one_unramified": "0",
        "norm_one_wild": "Z/2",
        "wild_swap_rank2": "Z",
        "wild_induced_rank2": "0",
        "wild_plus_tame_rank2": "0",
        "sl2_split": "0",
        "pgl2_split": "Z/2",
        "gl2_split": "Z",
        "sl3_split": "0",
        "pgl3_split": "Z/3",
        "sp4_split": "0",
        "su3_unramified": "0",
        "gl2_inner_twist": "Z",
    }
    got = {n: kottwitz_target(e.datum).describe() for n, e in catalog().items()}
    assert got == expected


def test_tame_witnesses_really_are_permuted():
    # inertia permutes the standard basis of all but three entries, and
    # those permutation lattices have torsion-free inertia coinvariants
    permuted = {name for name, e in catalog().items()
                if permutes_standard_basis(e.datum.inertia_matrices)}
    assert set(catalog()) - permuted == {
        "norm_one_ramified", "norm_one_wild", "wild_plus_tame_rank2"}
    for name in permuted:
        datum = catalog()[name].datum
        assert coinvariants(FGAbelianGroup.free(datum.rank),
                            datum.inertia_matrices).torsion().is_trivial, name


def test_induced_witnesses_cover_the_wild_part():
    # the standard basis is the one witness: the wild swaps permute it, the
    # wild signs do not
    induced = {name for name, e in catalog().items() if e.datum.wild
               and permutes_standard_basis(e.datum.wild_matrices)}
    assert induced == {"wild_swap_rank2", "wild_induced_rank2"}


# --------------------------------------------------------- derived sequence


def ab_blocks(datum) -> dict:
    """label -> the operator's action on cochar_ab, computed here for every
    operator: in the basis U of the saturation's Smith form, U·M·U⁻¹ is
    block upper triangular and its lower-right block is that action."""
    saturation = pi1(datum).torsion().sub
    rank, s = datum.rank, saturation.cols
    if s == 0:
        return dict(datum.galois)
    U, S, _V = smith_normal_form(saturation)
    assert [S.entries[i][i] for i in range(s)] == [1] * s
    uinv = U.inverse_unimodular()
    out = {}
    for label, mat in datum.galois:
        h = (U @ mat @ uinv).entries
        assert all(h[i][j] == 0 for i in range(s, rank) for j in range(s)), \
            label
        out[label] = IntMatrix([row[s:] for row in h[s:]],
                               rows=rank - s, cols=rank - s)
    return out


def test_derived_and_abelianized_gl2():
    datum = catalog()["gl2_split"].datum
    da = derived_and_abelianized(datum)
    assert pi1(datum).torsion().is_trivial
    assert da.cochar_ab.free_rank == 1 and not da.cochar_ab.invariant_factors
    assert ab_blocks(datum)["F"] == IntMatrix.identity(1)
    assert da.ab_wild == ()


def test_derived_and_abelianized_semisimple():
    datum = catalog()["pgl2_split"].datum
    assert pi1(datum).torsion().describe() == "Z/2"
    assert derived_and_abelianized(datum).cochar_ab.free_rank == 0
    datum = catalog()["sl3_split"].datum
    assert pi1(datum).torsion().is_trivial
    assert derived_and_abelianized(datum).cochar_ab.free_rank == 0


def test_abelianized_action_descends():
    # unitary-type twist of the gl2 datum: swap acts trivially on the
    # center direction, so the descended operator is the identity
    datum = RootDatumWithAction(
        2, coroots=((1, -1), (-1, 1)), roots=((1, -1), (-1, 1)),
        galois=(("F", SWAP),), inertia=("F",), wild=("F",), frobenius="F")
    da = derived_and_abelianized(datum)
    assert da.cochar_ab.free_rank == 1
    assert da.ab_wild == (IntMatrix.identity(1),)
    assert ab_blocks(datum)["F"] == IntMatrix.identity(1)


def test_torus_has_no_derived_part():
    datum = catalog()["split_torus_rank2"].datum
    da = derived_and_abelianized(datum)
    assert pi1(datum).torsion().is_trivial
    assert da.cochar_ab.free_rank == 2
    assert ab_blocks(datum)["F"] == IntMatrix.identity(2)


def test_derived_sequence_is_exact_and_every_operator_descends():
    # what derived_and_abelianized takes from validation instead of checking
    # it on every datum: pi1(G_der), the torsion of pi1, embeds in pi1, pi1
    # maps onto cochar_ab, the image of the one is the kernel of the other,
    # the saturation has the identity as Smith form, and each operator is
    # block upper triangular in the basis U and acts on cochar_ab by its
    # lower-right block; the wild operators' blocks are the ones stored
    data = [(name, e.datum) for name, e in sorted(catalog().items())]
    for seed in (1, 2):
        data += [("+".join(names), datum)
                 for names, datum in seeded_catalog_sums(seed)]
    for name, datum in data:
        da = derived_and_abelianized(datum)
        full = pi1(datum)
        der = full.torsion()
        assert well_defined(der, full), name
        assert well_defined(full, da.cochar_ab), name
        assert injects(der, full), name
        assert general_exact(der, full, da.cochar_ab), name
        assert da.cochar_ab.free_rank == datum.rank - der.sub.cols, name
        blocks = ab_blocks(datum)
        assert da.ab_wild == tuple(blocks[label] for label in datum.wild), \
            name


# ----------------------------------------------------------------- induced


def test_is_induced_basics():
    assert permutes_standard_basis([IntMatrix(SWAP)])
    assert permutes_standard_basis([IntMatrix(SWAP), IntMatrix.identity(2)])
    assert not permutes_standard_basis([IntMatrix(((-1, 0), (0, 1)))])
    # g swaps the basis (1,0), (1,1) but not the standard one
    assert not permutes_standard_basis([IntMatrix(((1, 0), (1, -1)))])
    assert permutes_standard_basis([])
    assert permutes_standard_basis([IntMatrix.identity(0)])


# -------------------------------------------------------------------- JSON


def test_json_round_trip_catalog():
    for entry in catalog().values():
        blob = json.dumps(datum_to_dict(entry.datum))
        assert load_datum(blob) == entry.datum


def test_load_datum_reports_location():
    with pytest.raises(ParseError) as info:
        load_datum('{"rank": 1,\n  "galois": [}')
    assert info.value.line == 2
    assert info.value.column is not None


def test_load_datum_field_errors():
    with pytest.raises(ParseError, match="frobenius"):
        load_datum('{"rank": 1, "galois": [{"label": "F", "matrix": [[1]]}]}')
    with pytest.raises(ParseError, match="label"):
        load_datum('{"rank": 1, "galois": [{"matrix": [[1]]}], "frobenius": "F"}')
    with pytest.raises(ParseError, match="malformed"):
        load_datum('{"rank": 1, "frobenius": "F",'
                   ' "galois": [{"label": "F", "matrix": [[1], [2, 3]]}]}')
    with pytest.raises(ParseError, match="list of labels"):
        load_datum('{"rank": 1, "frobenius": "F", "inertia": [1],'
                   ' "galois": [{"label": "F", "matrix": [[1]]}]}')


_RANK_ONE = {"rank": 1, "coroots": [[2]], "roots": [[1]],
             "galois": [{"label": "F", "matrix": [[1]]}], "frobenius": "F"}


@pytest.mark.parametrize("field,value,message", [
    ("rank", True, "'rank' must be a int"),
    ("rank", "1", "'rank' must be a int"),
    ("coroots", [["2"]], "'coroots' must be a list of integer lists"),
    ("coroots", [2], "'coroots' must be a list of integer lists"),
    ("roots", [[1.9]], "'roots' must be a list of integer lists"),
    ("roots", [[True]], "'roots' must be a list of integer lists"),
    ("galois", [{"label": "F", "matrix": [[1.5]]}],
     "the matrix of 'F' must be a list of integer lists"),
    ("galois", [{"label": "F", "matrix": [[True]]}],
     "the matrix of 'F' must be a list of integer lists"),
])
def test_non_integers_are_parse_errors(field, value, message):
    # int() would read each of these as an integer: True and "1" as 1,
    # 1.9 as 1
    assert datum_from_dict(_RANK_ONE).rank == 1
    with pytest.raises(ParseError) as info:
        datum_from_dict({**_RANK_ONE, field: value})
    assert str(info.value) == message


def test_semantic_errors_stay_invalid_datum():
    blob = json.dumps({
        "rank": 1,
        "coroots": [[1]], "roots": [[1]],
        "galois": [{"label": "F", "matrix": [[1]]}],
        "frobenius": "F",
    })
    with pytest.raises(InvalidDatum, match="pairing"):
        load_datum(blob)


def test_unnamed_keys_are_ignored_on_load():
    # only the retired induced_witness key is ignored; any other key the
    # format does not name is a ParseError that names it
    datum = catalog()["wild_swap_rank2"].datum
    for extra in ({"induced_witness": [[1, 0], [0, 1]]},
                  {"induced_witness": [[2, 0]]}):
        assert datum_from_dict({**datum_to_dict(datum), **extra}) == datum
    with pytest.raises(ParseError, match="datum has the unknown key 'note'"):
        datum_from_dict({**datum_to_dict(datum), "note": None})
    obj = datum_to_dict(datum)
    obj["galois"][0]["induced_witness"] = []
    with pytest.raises(ParseError,
                       match="galois item has the unknown key 'induced_witness'"):
        datum_from_dict(obj)
