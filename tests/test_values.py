"""Value semantics of the immutable types that processes cache and key on.

Each type refuses assignment to a field, compares and hashes by its fields,
and keeps the error text of its constructor's checks.  Objects built by the
internal constructors (``IntMatrix._of``, ``make_symbol``) equal those built
by the public ones.  ``Symbol``, ``UnipotentLabel`` and ``GroupTypeTag`` hash
their fields once, when they are built, on every construction path.
"""
import re

import pytest

from blockatlas.abelian import IntMatrix
from blockatlas.arith import GroupTypeTag, PrimePower
from blockatlas.errors import InvalidDatum
from blockatlas.rootdata import RootDatumWithAction
from blockatlas.symbols import (
    Symbol,
    _built,
    cohook_core,
    hook_core,
    make_symbol,
)
from blockatlas.unipotent import UnipotentLabel

_SWAP = ((0, 1), (1, 0))


def _datum(frobenius_matrix):
    return RootDatumWithAction(2, galois=(("F", frobenius_matrix),))


def _label(symbol, marker):
    return UnipotentLabel(symbol((1,), (1,)), marker)


# (field, a factory, another call of it, the object with one field changed)
CASES = {
    "IntMatrix": ("rows", lambda: IntMatrix([[1, 2], [3, 4]]),
                  lambda: IntMatrix._of(((1, 2), (3, 4)), 2, 2),
                  lambda: IntMatrix([[1, 2], [3, 5]])),
    "Symbol": ("row_s", lambda: Symbol((1, 2), (0,)),
               lambda: make_symbol((0, 2, 3), (0, 1)),
               lambda: Symbol((0,), (1, 2))),
    "UnipotentLabel": ("marker", lambda: _label(Symbol, "′"),
                       lambda: _label(make_symbol, "′"),
                       lambda: _label(Symbol, "″")),
    "GroupTypeTag": ("rank", lambda: GroupTypeTag("B", 3),
                     lambda: GroupTypeTag(family="B", rank=3),
                     lambda: GroupTypeTag("C", 3)),
    "PrimePower": ("q", lambda: PrimePower(8, 2, 3),
                   lambda: PrimePower.from_q(8),
                   lambda: PrimePower(9, 3, 2)),
    "RootDatumWithAction": ("rank", lambda: _datum(_SWAP),
                            lambda: _datum(IntMatrix(_SWAP)),
                            lambda: _datum(((1, 0), (0, 1)))),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_cannot_be_assigned(name):
    field, make, _again, _other = CASES[name]
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    assert getattr(value, field) == before


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_fields_equal_values(name):
    _field, make, again, other = CASES[name]
    a, b, c = make(), again(), other()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2


# the fields each hashed-once type hashes, and every path that builds one
HASHED_FIELDS = {Symbol: ("row_s", "row_t"),
                 UnipotentLabel: ("payload", "marker"),
                 GroupTypeTag: ("family", "rank")}
BUILT_BY = {
    "Symbol": lambda: Symbol((1, 2), (0,)),
    "make_symbol": lambda: make_symbol((0, 2, 3), (0, 1)),
    "_built": lambda: _built((1, 2), (0,)),
    "Symbol.swap": lambda: Symbol((0,), (1, 2)).swap(),
    "Symbol.canonical": lambda: Symbol((2,), (0,)).canonical(),
    "hook_core": lambda: hook_core(Symbol((0, 4), (1,)), 3),
    "cohook_core": lambda: cohook_core(Symbol((0, 2), (1,)), 2),
    "UnipotentLabel": lambda: _label(Symbol, "″"),
    "UnipotentLabel(make_symbol)": lambda: _label(make_symbol, ""),
    "GroupTypeTag": lambda: GroupTypeTag("2D", 5),
    "GroupTypeTag(keywords)": lambda: GroupTypeTag(family="A", rank=1),
}


@pytest.mark.parametrize("path", sorted(BUILT_BY))
def test_hash_is_the_hash_of_the_fields(path):
    value = BUILT_BY[path]()
    fields = tuple(getattr(value, f) for f in HASHED_FIELDS[type(value)])
    assert hash(value) == hash(fields)
    rebuilt = type(value)(*fields)   # the public constructor
    assert rebuilt == value and hash(rebuilt) == hash(value)
    with pytest.raises(AttributeError):
        value._hash = 0
    assert hash(value) == hash(fields)


def test_cached_render_is_not_a_field():
    rendered, fresh = _label(Symbol, "′"), _label(Symbol, "′")
    assert rendered.render() == "({1},{1})′"
    assert rendered == fresh and hash(rendered) == hash(fresh)


@pytest.mark.parametrize("make,error,text", [
    (lambda: GroupTypeTag("D", 1), ValueError, "family D needs rank >= 2"),
    (lambda: GroupTypeTag("2D", 1), ValueError, "family 2D needs rank >= 2"),
    (lambda: GroupTypeTag("Z", 2), ValueError, "unknown family 'Z'"),
    (lambda: GroupTypeTag("A", 0), ValueError, "rank must be >= 1"),
    (lambda: PrimePower(8, 2, 2), ValueError, "8 != 2**2"),
    (lambda: PrimePower(1, 2, 0), ValueError, "1 != 2**0"),
    (lambda: PrimePower(16, 4, 2), ValueError, "4 is not prime"),
    (lambda: PrimePower.from_q(12), ValueError, "12 is not a prime power"),
    (lambda: Symbol((0,), (0,)), ValueError,
     "not reduced: 0 in both rows (use make_symbol)"),
    (lambda: Symbol((1, 1), ()), ValueError, "repeated entry in row (1, 1)"),
    (lambda: Symbol((), (-1,)), ValueError, "negative entry in row (-1,)"),
    (lambda: IntMatrix([[1, 2], [3]]), ValueError, "ragged matrix"),
    (lambda: IntMatrix([[1]], rows=2), ValueError, "row count mismatch"),
    (lambda: RootDatumWithAction(-1), InvalidDatum, "rank must be nonnegative"),
    (lambda: _datum(((2, 0), (0, 1))), InvalidDatum,
     "operator 'F' is not unimodular"),
])
def test_constructor_errors_keep_their_text(make, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        make()
