"""Torsor comparison, triviality criterion, and component-lemma checks."""

import math

import pytest
from conftest import (
    SPLIT_GROUPS,
    clear_process_caches,
    conjugated_datum,
    functor_corpus,
    preserves,
    seeded_tori,
    torus,
    unitary,
    weil_restriction,
    well_defined,
)

from blockatlas import langlands, rootdata
from blockatlas.abelian import (
    FGAbelianGroup,
    IntMatrix,
    coinvariants,
    fixed_points,
    kernel_basis,
    lattice_contains,
)
from blockatlas.langlands import (
    REGIME_CONJECTURAL,
    REGIME_PROVED,
    TorsorReport,
    bijection_check,
    component_lemma_checks,
    cornqs_check,
    dual_side_torsor,
    group_side_torsor,
)
from blockatlas.rootdata import (
    RootDatumWithAction,
    catalog,
    derived_and_abelianized,
    kottwitz_target,
    permutes_standard_basis,
    pi1,
)

PRIMES = (2, 3, 5)


def entry(name):
    return catalog()[name]


# ------------------------------------------------------------------ torsors


def test_norm_one_ramified_frozen():
    datum = entry("norm_one_ramified").datum
    report = bijection_check(datum, 2)
    assert report.group_side.describe() == "Z/2"
    assert report.dual_side.describe() == "Z/2"
    assert report.group_side.order() == 2
    for p in (3, 5):
        r = bijection_check(datum, p)
        assert r.group_side.is_trivial and r.dual_side.is_trivial


def test_norm_one_wild_frozen():
    datum = entry("norm_one_wild").datum
    report = bijection_check(datum, 2)
    assert report.group_side.invariant_factors == (2,)
    assert report.dual_side.invariant_factors == (2,)


def inertia_order(datum):
    """Order of the inertia image <s>, by powering s."""
    s = dict(datum.galois)["s"]
    power, order = s, 1
    while power != IntMatrix.identity(datum.rank):
        power, order = power @ s, order + 1
    return order


def test_tame_tori_have_trivial_torsors():
    # The torsion of X_I is H^-1(I, X), which |I| kills (Brown, Cohomology
    # of Groups, GTM 87, VI.4): for a torus whose inertia image has order
    # prime to p, both torsor sides are trivial.
    tame = wild = 0
    for summands, m, p, datum in seeded_tori(20261019, 300):
        report = bijection_check(datum, p)
        if inertia_order(datum) % p:
            assert report.group_side.is_trivial, (summands, m, p)
            assert report.dual_side.is_trivial, (summands, m, p)
            tame += 1
        else:
            wild += not report.group_side.is_trivial
    assert tame > 100 and wild > 10, (tame, wild)


def test_norm_one_tori_have_group_side_of_order_p_to_the_valuation():
    # X_I of the norm-one torus of a totally ramified degree-m extension
    # is Z/m, and Frobenius (a power of s) fixes it
    for m in range(2, 13):
        for p in (2, 3, 5, 7, 11):
            if m % p:
                continue
            v = 0
            while m % p ** (v + 1) == 0:
                v += 1
            for frob in (None, 1, m - 1):
                datum = torus([("norm_one", m)], m, p, frob)
                report = bijection_check(datum, p)
                assert report.group_side.order() == p ** v, (m, p, frob)
                assert report.group_side.invariant_factors == (p ** v,)
                assert report.dual_side.order() == p ** v


def test_ramified_unitary_groups_match_their_closed_forms():
    # X_I = Z^n / <e_i + e_{n+1-i}>: its torsion is Z/2, from the middle
    # coordinate, exactly for odd n.  With Frobenius the identity both torsor
    # sides are the p-torsion of X_I, of order 2 at p = 2 for odd n and
    # trivial otherwise
    for n in range(1, 7):
        for p in PRIMES:
            datum = unitary(n, p)
            descent = coinvariants(FGAbelianGroup.free(n),
                                   datum.inertia_matrices)
            assert descent.torsion().invariant_factors == \
                ((2,) if n % 2 else ()), n
            order = 2 if p == 2 and n % 2 else 1
            report = bijection_check(datum, p)
            assert report.group_side.order() == order, (n, p)
            assert report.dual_side.order() == order, (n, p)
            assert cornqs_check(datum, p).implication_holds, (n, p)
            assert component_lemma_checks(datum, p).all_ok, (n, p)


def test_weil_restrictions_of_split_groups_have_trivial_torsors():
    # s permutes the m copies of a split group's cocharacter lattice, a
    # permutation lattice, so X_I is torsion-free and both torsor sides are
    # trivial at every p, the wild ones (p | m) included
    for name in SPLIT_GROUPS:
        for m in range(1, 7):
            for p in PRIMES:
                datum = weil_restriction(name, m, p)
                report = bijection_check(datum, p)
                assert report.group_side.is_trivial, (name, m, p)
                assert report.dual_side.is_trivial, (name, m, p)
                assert cornqs_check(datum, p).implication_holds, (name, m, p)
                assert component_lemma_checks(datum, p).all_ok, (name, m, p)


# wild_ab_induced asks whether the wild operators permute the basis of
# cochar_ab that the Smith form of the coroot saturation picks, so
# isomorphic data can read differently, and so can one datum under another
# elimination (the last two read 1000000 if the Smith form takes the
# saturation's rows in reverse order).  Frozen at p = 2 on Weil
# restrictions (name, m, torus summands), in their own basis and then in
# the bases of seeded_unimodular seeds 0-5, so that a change of the
# lattice layer's bases that moves the field shows.
WILD_AB_INDUCED_FROZEN = {
    ("gl2_split", 2, ()): "1000000",
    ("sl2_split", 2, (("perm", 2),)): "1000000",
    ("gl2_split", 2, (("norm_one", 2),)): "0000000",
    ("sl2_split", 4, ()): "1111111",        # cochar_ab = 0
    ("sl3_split", 4, (("perm", 2),)): "1000001",
    ("sp4_split", 4, (("perm", 2),)): "1000001",
}


def test_wild_ab_induced_frozen_on_conjugated_weil_restrictions():
    for (name, m, summands), frozen in WILD_AB_INDUCED_FROZEN.items():
        datum = weil_restriction(name, m, 2, summands)
        bases = [datum] + [conjugated_datum(datum, seed) for seed in range(6)]
        read = "".join(str(int(cornqs_check(d, 2).wild_ab_induced))
                       for d in bases)
        assert read == frozen, (name, m, summands)


SHARED_TORI = ([("norm_one", 2)], [("norm_one", 4)], [("sign", 2)],
               [("norm_one", 3), ("perm", 3)], [("norm_one", 6)])


def test_semisimple_and_torus_summands_under_one_inertia_generator():
    # s acts on Res_{E/F} H and on a torus at once, and Frobenius is the
    # identity; the permutation part adds no torsion to X_I, so both torsor
    # sides are those of the torus alone
    nontrivial = 0
    for name, m in zip(SPLIT_GROUPS, (2, 3, 3, 2, 3, 2)):
        for summands in SHARED_TORI:
            degree = math.lcm(*(k for _kind, k in summands))
            for p in PRIMES:
                what = (name, m, summands, p)
                datum = weil_restriction(name, m, p, summands)
                report = bijection_check(datum, p)
                alone = bijection_check(torus(summands, degree, p), p)
                for side in ("group_side", "dual_side"):
                    assert getattr(report, side).invariant_factors == \
                        getattr(alone, side).invariant_factors, what
                assert report.group_side.order() == \
                    report.dual_side.order(), what
                assert cornqs_check(datum, p).implication_holds, what
                assert component_lemma_checks(datum, p).all_ok, what
                nontrivial += not report.group_side.is_trivial
    # Z/2 from norm_one 2, Z/4 from norm_one 4 and Z/2 from the sign at
    # p = 2; Z/3 from norm_one 3 at p = 3; Z/6 from norm_one 6 at 2 and 3
    assert nontrivial == len(SPLIT_GROUPS) * 6


def test_wild_swap_both_sides_trivial():
    # the induced wild action leaves the coinvariants torsion free, so
    # both torsors collapse even at the residue characteristic
    datum = entry("wild_swap_rank2").datum
    report = bijection_check(datum, 2)
    assert report.group_side.is_trivial
    assert report.dual_side.is_trivial


def test_unitary_and_simply_connected_trivial():
    for name in ("su3_unramified", "sl2_split", "sl3_split", "sp4_split"):
        for p in PRIMES:
            r = bijection_check(entry(name).datum, p)
            assert r.group_side.is_trivial and r.dual_side.is_trivial


def test_adjoint_torus_torsor_still_trivial():
    # the comparison runs over the maximally split torus, whose lattice is
    # unramified here; the fundamental group's 2-torsion plays no part
    r = bijection_check(entry("pgl2_split").datum, 2)
    assert r.group_side.is_trivial and r.dual_side.is_trivial


def test_regime_flag():
    twist = entry("gl2_inner_twist")
    split = entry("gl2_split")
    assert bijection_check(twist.datum, 2,
                           quasi_split=twist.quasi_split).regime == REGIME_CONJECTURAL
    assert bijection_check(split.datum, 2,
                           quasi_split=split.quasi_split).regime == REGIME_PROVED


def test_equal_cardinality_across_catalog():
    for name, e in catalog().items():
        for p in PRIMES:
            report = bijection_check(e.datum, p, quasi_split=e.quasi_split)
            assert report.group_side.order() == report.dual_side.order(), name


def test_tame_entries_are_trivial_at_every_prime():
    # entries whose inertia permutes the standard basis, wild ones included
    for name, e in catalog().items():
        if not permutes_standard_basis(e.datum.inertia_matrices):
            continue
        for p in PRIMES:
            r = bijection_check(e.datum, p)
            assert r.group_side.is_trivial and r.dual_side.is_trivial, name


def test_torsor_report_dict():
    report = bijection_check(entry("norm_one_ramified").datum, 2)
    data = report.as_dict()
    assert data["group_side"] == {
        "structure": "Z/2", "invariant_factors": [2], "order": 2}
    assert data["equal_cardinality"] is True
    assert data["regime"] == REGIME_PROVED


def test_prime_guard():
    datum = entry("split_torus_rank1").datum
    for bad in (1, 4, 6):
        with pytest.raises(ValueError):
            group_side_torsor(datum, bad)
        with pytest.raises(ValueError):
            dual_side_torsor(datum, bad)


def test_torsor_functor_order_insensitivity():
    # p-torsion commutes with Frobenius fixed points and coinvariants on
    # the finite torsion part, whichever is applied first
    for name, e in catalog().items():
        datum = e.datum
        descended = coinvariants(FGAbelianGroup.free(datum.rank),
                                 datum.inertia_matrices)
        frob = datum.frobenius_matrix
        for p in (2, 3):
            first = coinvariants(descended.p_torsion(p), (frob,))
            second = coinvariants(descended.torsion(), (frob,)).p_torsion(p)
            assert first.invariant_factors == second.invariant_factors, name
            left = fixed_points(descended, frob).p_torsion(p)
            right = fixed_points(descended.p_torsion(p), frob)
            assert left.invariant_factors == right.invariant_factors, name


# ----------------------------------------------------- triviality criterion


def test_criterion_adjoint_failure_at_its_prime():
    report = cornqs_check(entry("pgl2_split").datum, 2)
    assert report.derived_pi1_order == 2
    assert not report.hypothesis_a
    assert not report.conclusion          # the 2-torsion really survives
    assert report.implication_holds       # vacuously
    ok = cornqs_check(entry("pgl2_split").datum, 3)
    assert ok.hypothesis_a and ok.hypothesis_b and ok.conclusion


def test_criterion_pgl3():
    assert not cornqs_check(entry("pgl3_split").datum, 3).hypothesis_a
    report = cornqs_check(entry("pgl3_split").datum, 2)
    assert report.hypothesis_a and report.conclusion


def test_criterion_ramified_torus():
    report = cornqs_check(entry("norm_one_ramified").datum, 2)
    assert report.hypothesis_a            # no derived part at all
    assert report.wild_ab_induced         # no wild operators either
    assert not report.ab_coinvariants_p_free
    assert not report.hypothesis_b
    assert not report.conclusion
    assert report.implication_holds


def test_criterion_wild_entries():
    # a wild sign action permutes no basis; a wild swap does
    assert not cornqs_check(entry("norm_one_wild").datum, 2).wild_ab_induced
    assert not cornqs_check(entry("wild_plus_tame_rank2").datum, 2).wild_ab_induced
    swap = cornqs_check(entry("wild_swap_rank2").datum, 2)
    assert swap.wild_ab_induced and swap.hypothesis_b and swap.conclusion


def test_criterion_holds_across_catalog():
    for name, e in catalog().items():
        for p in PRIMES:
            report = cornqs_check(e.datum, p, quasi_split=e.quasi_split)
            assert report.as_dict()["sequence_exact_on_p_part"] is True
            assert report.implication_holds, (name, p)
            # the two triviality readings agree on this catalog
            assert report.conclusion == report.pi1_coinvariants_p_free, name


def test_criterion_report_dict():
    data = cornqs_check(entry("pgl2_split").datum, 2).as_dict()
    assert data["hypothesis_a"] is False
    assert data["hypothesis_b"] is True
    assert data["implication_holds"] is True
    assert data["derived_pi1_order"] == 2


# --------------------------------------------------------- component lemma


def test_lemma_ramified_torus_routes():
    # tame quotient of order two collides with p = 2: the wild route sees
    # a free lattice where the direct route sees Z/2
    report = component_lemma_checks(entry("norm_one_ramified").datum, 2)
    assert report.tame_action_order == 2
    assert not report.tame_order_coprime
    assert not report.h1_agree_cochar
    assert not report.h1_agree_pi1
    assert report.torsion_injects and report.torsion_injects_fixed
    assert not report.all_ok
    odd = component_lemma_checks(entry("norm_one_ramified").datum, 3)
    assert odd.all_ok and odd.tame_order_coprime


def test_lemma_wild_entries():
    at2 = component_lemma_checks(entry("norm_one_wild").datum, 2)
    assert at2.all_ok
    at3 = component_lemma_checks(entry("norm_one_wild").datum, 3)
    assert not at3.wild_torsion_p_local   # the Z/2 it creates is not 3-local
    assert at3.h1_agree_cochar and at3.h1_agree_pi1

    mixed = component_lemma_checks(entry("wild_plus_tame_rank2").datum, 2)
    assert mixed.tame_action_order == 3 and mixed.tame_order_coprime
    assert mixed.all_ok
    mixed3 = component_lemma_checks(entry("wild_plus_tame_rank2").datum, 3)
    assert not mixed3.wild_torsion_p_local
    assert not mixed3.tame_order_coprime
    assert mixed3.h1_agree_cochar         # both routes vanish regardless


def test_lemma_flag_is_only_sufficient():
    # order-two tame action at p = 2, but no torsion anywhere: the routes
    # agree even though the coprimality flag is down
    report = component_lemma_checks(entry("tame_induced_rank2").datum, 2)
    assert not report.tame_order_coprime
    assert report.all_ok


def test_lemma_injectivity_across_catalog():
    for name, e in catalog().items():
        for p in PRIMES:
            report = component_lemma_checks(e.datum, p)
            assert report.torsion_injects, (name, p)
            assert report.torsion_injects_fixed, (name, p)


def test_lemma_injectivity_fails_off_the_quasi_split_axis():
    # inertia acting by the long Weyl element: the torus side keeps a Z/2
    # that the trivial fundamental group cannot receive
    datum = RootDatumWithAction(
        1, coroots=((1,), (-1,)), roots=((2,), (-2,)),
        galois=(("s", ((-1,),)), ("F", IntMatrix.identity(1))),
        inertia=("s",), frobenius="F")
    report = component_lemma_checks(datum, 2)
    assert not report.torsion_injects
    assert not report.torsion_injects_fixed
    assert not report.h1_agree_cochar
    assert report.wild_torsion_p_local
    # the torsor comparison itself is indifferent to the failure
    both = bijection_check(datum, 2)
    assert both.group_side.describe() == both.dual_side.describe() == "Z/2"


def _check_maps(datum, p):
    """The four maps between p-parts that the checks rest on: the two of
    the derived sequence whose exactness cornqs_check states, and the two
    that component_lemma_checks compares, built as they build them."""
    inert, frob = datum.inertia_matrices, datum.frobenius_matrix
    da = derived_and_abelianized(datum)
    pi1_torsion = coinvariants(pi1(datum), inert).p_torsion(p)
    torus_part = coinvariants(FGAbelianGroup.free(datum.rank),
                              inert).p_torsion(p)
    return {
        "left": (coinvariants(pi1(datum).torsion(), inert).p_torsion(p),
                 pi1_torsion),
        "right": (pi1_torsion, coinvariants(da.cochar_ab, inert).p_torsion(p)),
        "plain": (torus_part, pi1_torsion),
        "fixed": (fixed_points(torus_part, frob),
                  fixed_points(pi1_torsion, frob)),
    }


def test_check_maps_are_well_defined():
    # the checks do not test these inclusions: on a validated datum each
    # target's relation lattice contains its source's
    data = [(name, e.datum) for name, e in sorted(catalog().items())]
    for p in PRIMES:
        cases = data + [
            ((name, m), weil_restriction(name, m, p))
            for name in SPLIT_GROUPS for m in range(1, 7)] + [
            ((name, m, summands), weil_restriction(name, m, p, summands))
            for name, m in zip(SPLIT_GROUPS, (2, 3, 3, 2, 3, 2))
            for summands in SHARED_TORI]
        for what, datum in cases:
            for name, (source, target) in _check_maps(datum, p).items():
                assert well_defined(source, target), (what, p, name)


def test_lemma_report_dict():
    data = component_lemma_checks(entry("norm_one_wild").datum, 2).as_dict()
    assert data["all_ok"] is True
    assert data["tame_action_order"] == 1
    assert set(data) == {
        "p", "tame_action_order", "tame_order_coprime",
        "wild_torsion_p_local", "h1_agree_cochar", "h1_agree_pi1",
        "torsion_injects", "torsion_injects_fixed", "all_ok",
    }


# ----------------------------------------------------- per-datum module reuse

@pytest.mark.parametrize("name", sorted(catalog()))
def test_checks_agree_with_and_without_warm_modules(name):
    e = entry(name)
    checks = {
        "bijection": lambda p: bijection_check(e.datum, p, e.quasi_split),
        "cornqs": lambda p: cornqs_check(e.datum, p, quasi_split=e.quasi_split),
        "components": lambda p: component_lemma_checks(e.datum, p),
    }
    cells = [(command, p) for command in checks for p in PRIMES]
    cold = {}
    for command, p in cells:
        clear_process_caches()
        cold[command, p] = checks[command](p).as_dict()
    # one sweep in reverse order warms the datum's caches with the other
    # primes and commands; a second sweep then reads every module from them
    derived_and_abelianized.cache_clear()
    for sweep in (cells[::-1], cells):
        for command, p in sweep:
            assert checks[command](p).as_dict() == cold[command, p], (command, p)


def test_bijection_check_rejects_composite_p_before_lattice_work(monkeypatch):
    def no_lattice_work(*args):
        raise AssertionError("lattice work before the prime check")
    monkeypatch.setattr(langlands, "coinvariants", no_lattice_work)
    monkeypatch.setattr(langlands, "fixed_points", no_lattice_work)
    with pytest.raises(ValueError, match="p = 4 is not prime"):
        bijection_check(entry("pgl2_split").datum, 4)


# ------------------------------------- operators the functors take on trust

def induces_injection(group, g):
    """Is a + L -> g(a) + L injective on group = K/L: does every x in K
    with g(x) in L lie in L?"""
    k, rel = group.sub, group.rel
    top = kernel_basis((g @ k).hstack(-rel))._first_rows(k.cols)
    return top.cols == 0 or lattice_contains(rel, k @ top)


def test_every_functor_operator_acts_bijectively(monkeypatch, tmp_path):
    # coinvariants and fixed_points do not check their operators: on a
    # validated datum every operator that langlands and rootdata pass them
    # is n x n, maps K and L into themselves and is injective on K/L
    data = functor_corpus(tmp_path)
    calls = {}
    for module in (langlands, rootdata):
        for name in ("coinvariants", "fixed_points"):
            seen = calls[module.__name__, name] = set()

            def checked(group, ops, functor=getattr(module, name),
                        seen=seen, name=name):
                for g in ops if name == "coinvariants" else (ops,):
                    if (group, g) not in seen:
                        assert preserves(group, g), (name, group, g.entries)
                        assert induces_injection(group, g), \
                            (name, group, g.entries)
                        seen.add((group, g))
                return functor(group, ops)
            monkeypatch.setattr(module, name, checked)
    for datum in data:
        for p in (2, 3, 5, 7):
            bijection_check(datum, p)
            cornqs_check(datum, p)
            component_lemma_checks(datum, p)
            pi1(datum).p_torsion(p)
            kottwitz_target(datum).p_torsion(p)
    # each functor met operators in both modules
    assert all(calls.values()), {key: len(v) for key, v in calls.items()}
