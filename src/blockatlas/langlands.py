"""Comparison of the two p-torsor groups attached to a root datum.

For a datum with cocharacter lattice X, inertia action I, and Frobenius F,
the group side computes the p-torsion of (X_I)^F — the p-part of the
arithmetic fundamental group of the maximally split torus — and the dual
side computes the F-coinvariants of the p-torsion of X_I, the component
group of the Frobenius-twisted fixed points on the dual torus.  For a
finite module an automorphism has kernel and cokernel of equal size, so the
two sides always have the same cardinality; :func:`bijection_check` verifies
that and reports both structures.

:func:`cornqs_check` evaluates the triviality criterion for the p-part of
the arithmetic fundamental group of the group itself: p must not divide the
order of the fundamental group of the derived subgroup, and the wild action
on the abelianized cocharacter lattice must permute its standard basis.
Both hypotheses and the conclusion are computed independently so the
implication itself is observable; the exactness transfer they rely on is a
lemma that holds on every validated datum, and the report states it.

:func:`component_lemma_checks` verifies the three mechanizable claims of
the component-group lemma: torsion created by the wild quotient is p-local,
the unramified H^1 computed through the wild quotient agrees with the one
computed directly from the inertia coinvariants, and p-torsion of the torus
quotient injects into p-torsion of the fundamental-group quotient, before
and after taking Frobenius fixed points.  H^1 of <F> on a finite p-part A
is read as ``coinvariants(A, (F,))``, as on the dual side: F is unimodular
and, by datum validation, maps each K and L here onto itself, so it is an
automorphism of K/L.

The modules these checks read that do not depend on p are computed once per
datum value and process, each on first use, by the caches that build them:
the interned groups of :mod:`abelian` (``pi1`` and its torsion, the
saturation), its ``coinvariants`` and ``fixed_points`` for the inertia and
wild coinvariants and the Frobenius fixed points (so ``kottwitz_target``
too), and ``derived_and_abelianized`` in :mod:`rootdata` for the change of
basis onto the abelianized lattice; the
operators and the tame quotient's order are stored on the datum when it is
validated.  Per p only the p-torsion, the maps between the p-parts, H^1 on
them and the cardinality check remain.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .abelian import FGAbelianGroup, coinvariants, fixed_points, injects
from .arith import is_prime
from .errors import InvariantViolation
from .rootdata import (
    RootDatumWithAction,
    derived_and_abelianized,
    kottwitz_target,
    permutes_standard_basis,
    pi1,
)

REGIME_PROVED = "proved"
REGIME_CONJECTURAL = "conjectural"


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def group_side_torsor(datum: RootDatumWithAction, p: int) -> FGAbelianGroup:
    """p-torsion of the Frobenius fixed points of the inertia coinvariants
    of the cocharacter lattice."""
    _check_prime(p)
    descent = coinvariants(FGAbelianGroup.free(datum.rank),
                           datum.inertia_matrices)
    return fixed_points(descent, datum.frobenius_matrix).p_torsion(p)


def dual_side_torsor(datum: RootDatumWithAction, p: int) -> FGAbelianGroup:
    """Frobenius coinvariants of the p-torsion of the inertia coinvariants
    of the cocharacter lattice."""
    _check_prime(p)
    descent = coinvariants(FGAbelianGroup.free(datum.rank),
                           datum.inertia_matrices)
    return coinvariants(descent.p_torsion(p), (datum.frobenius_matrix,))


def _group_dict(group: FGAbelianGroup) -> dict:
    return {
        "structure": group.describe(),
        "invariant_factors": group.invariant_factors,
        "order": group.order(),
    }


class TorsorReport(NamedTuple):
    """Both torsor groups at p, with the regime the comparison lives in."""

    p: int
    regime: str
    group_side: FGAbelianGroup
    dual_side: FGAbelianGroup

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "regime": self.regime,
            "group_side": _group_dict(self.group_side),
            "dual_side": _group_dict(self.dual_side),
            "equal_cardinality": True,
        }


def bijection_check(datum: RootDatumWithAction, p: int,
                    quasi_split: bool = True) -> TorsorReport:
    """Compute both torsors and verify they have the same cardinality.

    Frobenius acts invertibly on the finite torsion of X_I, so for a valid
    datum the two cardinalities cannot differ; a mismatch therefore raises
    InvariantViolation rather than being reported.  The regime records whether the datum is
    quasi-split, where the simply transitive actions on both sides are
    established, or an inner twist, where the comparison is conjectural.
    """
    group = group_side_torsor(datum, p)
    dual = dual_side_torsor(datum, p)
    if group.order() != dual.order():
        raise InvariantViolation(
            f"torsor cardinalities disagree at p={p}: "
            f"{group.describe()} vs {dual.describe()}")
    regime = REGIME_PROVED if quasi_split else REGIME_CONJECTURAL
    return TorsorReport(p, regime, group, dual)


# ------------------------------------------------------- triviality criterion


class CriterionReport(NamedTuple):
    """Both hypotheses of the triviality criterion, and its conclusion.

    ``hypothesis_a``: p does not divide the order of the fundamental group
    of the derived subgroup.  ``hypothesis_b``: the wild operators permute
    the standard basis of the abelianized cocharacter lattice
    (``wild_ab_induced``), and (the consequence actually used) the inertia
    coinvariants of that lattice have no p-torsion.  ``conclusion``: the
    p-part of the arithmetic fundamental group vanishes.  The implication A
    and B => conclusion is a theorem in the proved regime; every field is
    computed independently so the report can also exhibit hypothesis
    failures.

    ``as_dict`` states ``sequence_exact_on_p_part``, which holds on every
    validated datum: the derived-subgroup sequence 0 -> pi1(G_der) ->
    pi1(G) -> X_*(G_ab) -> 0 stays exact on p-parts after inertia
    coinvariants.  Coinvariants are right exact, so pi1_I -> (X_ab)_I is
    onto and its kernel K is the image of pi1(G_der)_I, which is finite as
    pi1(G_der) is.  A preimage of an element of p-power order is then
    torsion, and its p-primary part is a preimage too, so the map stays onto
    on p-parts; its kernel there is K's p-part, the image of the p-part of
    pi1(G_der)_I.  ``TorsorReport`` states equal cardinality the same way.
    """

    p: int
    regime: str
    derived_pi1_order: int
    hypothesis_a: bool
    wild_ab_induced: bool
    ab_coinvariants_p_free: bool
    pi1_coinvariants_p_free: bool
    conclusion: bool

    @property
    def hypothesis_b(self) -> bool:
        return self.wild_ab_induced and self.ab_coinvariants_p_free

    @property
    def implication_holds(self) -> bool:
        return not (self.hypothesis_a and self.hypothesis_b) or self.conclusion

    def as_dict(self) -> dict:
        return {**self._asdict(), "sequence_exact_on_p_part": True,
                "hypothesis_b": self.hypothesis_b,
                "implication_holds": self.implication_holds}


def cornqs_check(datum: RootDatumWithAction, p: int,
                 quasi_split: bool = True) -> CriterionReport:
    """Evaluate the triviality criterion for the p-part of the arithmetic
    fundamental group."""
    _check_prime(p)
    # pi1(G_der), the saturation of the coroots modulo them, is pi1's torsion
    der_order = prod(pi1(datum).invariant_factors)
    hypothesis_a = der_order % p != 0

    da = derived_and_abelianized(datum)
    wild_ab_induced = permutes_standard_basis(da.ab_wild)

    inert = datum.inertia_matrices
    ab_torsion = coinvariants(da.cochar_ab, inert).p_torsion(p)
    pi1_torsion = coinvariants(pi1(datum), inert).p_torsion(p)

    conclusion = kottwitz_target(datum).p_torsion(p).is_trivial
    regime = REGIME_PROVED if quasi_split else REGIME_CONJECTURAL
    return CriterionReport(
        p=p, regime=regime, derived_pi1_order=der_order,
        hypothesis_a=hypothesis_a, wild_ab_induced=wild_ab_induced,
        ab_coinvariants_p_free=ab_torsion.is_trivial,
        pi1_coinvariants_p_free=pi1_torsion.is_trivial, conclusion=conclusion)


# --------------------------------------------------------- component lemma


class ComponentLemmaReport(NamedTuple):
    """Mechanized component-group lemma, one boolean per claim.

    ``wild_torsion_p_local``: torsion created by the wild coinvariants
    consists of p-groups.  ``h1_agree_cochar`` / ``h1_agree_pi1``: the
    unramified H^1 of the p-torsion components, computed directly from the
    inertia coinvariants and computed through the wild quotient, have the
    same invariant factors.  ``torsion_injects`` (and ``..._fixed``): the
    p-torsion of the torus-side quotient embeds in the p-torsion of the
    fundamental-group quotient, before (after) Frobenius fixed points.
    ``tame_order_coprime`` flags the sufficient condition for the H^1
    transfer: the tame quotient of the inertia image has order prime to p.
    """

    p: int
    tame_action_order: int
    tame_order_coprime: bool
    wild_torsion_p_local: bool
    h1_agree_cochar: bool
    h1_agree_pi1: bool
    torsion_injects: bool
    torsion_injects_fixed: bool

    @property
    def all_ok(self) -> bool:
        return (self.wild_torsion_p_local and self.h1_agree_cochar
                and self.h1_agree_pi1 and self.torsion_injects
                and self.torsion_injects_fixed)

    def as_dict(self) -> dict:
        return {**self._asdict(), "all_ok": self.all_ok}


def component_lemma_checks(datum: RootDatumWithAction,
                           p: int) -> ComponentLemmaReport:
    _check_prime(p)
    inert = datum.inertia_matrices
    frob = datum.frobenius_matrix
    lattice = FGAbelianGroup.free(datum.rank)

    wild_lattice = coinvariants(lattice, datum.wild_matrices)
    # the torsion is p-local when its p-part is all of it
    p_local = (wild_lattice.p_torsion(p).order()
               == prod(wild_lattice.invariant_factors))

    torus_part = coinvariants(lattice, inert).p_torsion(p)
    fundamental = pi1(datum)
    pi1_part = coinvariants(fundamental, inert).p_torsion(p)

    def through_wild(wild_quotient: FGAbelianGroup) -> tuple:
        staged = coinvariants(wild_quotient.p_torsion(p), inert)
        return coinvariants(staged, (frob,)).invariant_factors

    h1_cochar = (coinvariants(torus_part, (frob,)).invariant_factors
                 == through_wild(wild_lattice))
    h1_pi1 = (coinvariants(pi1_part, (frob,)).invariant_factors
              == through_wild(coinvariants(fundamental, datum.wild_matrices)))

    # both maps are well defined: pi1_part's relations contain torus_part's
    return ComponentLemmaReport(
        p=p, tame_action_order=datum.tame_order,
        tame_order_coprime=datum.tame_order % p != 0,
        wild_torsion_p_local=p_local,
        h1_agree_cochar=h1_cochar, h1_agree_pi1=h1_pi1,
        torsion_injects=injects(torus_part, pi1_part),
        torsion_injects_fixed=injects(fixed_points(torus_part, frob),
                                      fixed_points(pi1_part, frob)))
