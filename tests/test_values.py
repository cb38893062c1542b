"""
The value classes (Partition, RowStandardTableau, RskPair, LabeledWGraph,
AffinePermutation, RuleReport, RegressResult) behave as frozen records:
constructed by position or keyword with their defaults, printed as
Class(field=value, ...), equal exactly when of one class with equal
fields, hashed as the tuple of their fields, ordered by their parts for
partitions, unchanged by pickling and copying, and closed to assignment
and deletion with an AttributeError that names the attribute.  The
reports copy the sequences they are given, so a caller's list changes
none of them.
"""

import copy
import pickle

import pytest

from affwgraph import (
    AffinePermutation,
    LabeledWGraph,
    Partition,
    RowStandardTableau,
    RskPair,
    RuleReport,
)
from affwgraph.regress import RegressResult

from conftest import exactly

T321 = RowStandardTableau(((1, 2, 3), (4, 5)))
V0, V1 = RowStandardTableau(((2, 3), (1,))), RowStandardTableau(((1, 3), (2,)))

# each class with the fields of one value, by keyword, and that value's repr
VALUES = {
    "Partition": (Partition, {"parts": (3, 2)}, "Partition(parts=(3, 2))"),
    "RowStandardTableau": (
        RowStandardTableau, {"rows": ((1, 2, 3), (4, 5))}, "RowStandardTableau(rows=((1, 2, 3), (4, 5)))",
    ),
    "RskPair": (
        RskPair, {"p": T321, "q": ((1, 1, 2), (2, 2))},
        "RskPair(p=RowStandardTableau(rows=((1, 2, 3), (4, 5))), q=((1, 1, 2), (2, 2)))",
    ),
    "LabeledWGraph": (
        LabeledWGraph,
        {
            "n": 3, "index_set": frozenset({1, 2}), "vertices": (V0, V1),
            "tau": (frozenset({1}), frozenset({2})), "weights": {(0, 1): 1, (1, 0): 1},
        },
        "LabeledWGraph(n=3, index_set=frozenset({1, 2}), vertices=(RowStandardTableau(rows=((2, 3), (1,))), "
        "RowStandardTableau(rows=((1, 3), (2,)))), tau=(frozenset({1}), frozenset({2})), "
        "weights=EdgeWeights({(0, 1): 1, (1, 0): 1}))",
    ),
    "AffinePermutation": (AffinePermutation, {"window": (0, 2, 4)}, "AffinePermutation(window=(0, 2, 4))"),
    "RuleReport": (
        RuleReport, {"rule": "bonding", "passed": False, "witnesses": ((0, 1),)},
        "RuleReport(rule='bonding', passed=False, witnesses=((0, 1),))",
    ),
    "RegressResult": (
        RegressResult, {"name": "fixtures", "passed": False, "detail": "mismatch: gamma_3_2"},
        "RegressResult(name='fixtures', passed=False, detail='mismatch: gamma_3_2')",
    ),
}
# a field of each value and another value for it
OTHER = {
    "Partition": ("parts", (4, 1)),
    "RowStandardTableau": ("rows", ((1, 2, 4), (3, 5))),
    "RskPair": ("p", RowStandardTableau(((1, 2, 4), (3, 5)))),
    "LabeledWGraph": ("weights", {(0, 1): 2, (1, 0): 1}),
    "AffinePermutation": ("window", (1, 2, 3)),
    "RuleReport": ("witnesses", ()),
    "RegressResult": ("detail", ""),
}
CASES = pytest.mark.parametrize("cls, fields, text", VALUES.values(), ids=VALUES.keys())


def _fields(value, names) -> tuple:
    return tuple(getattr(value, name) for name in names)


@CASES
def test_repr_and_construction(cls, fields, text):
    value = cls(**fields)
    assert repr(value) == text
    assert cls(*fields.values()) == value
    assert type(value) is cls


@CASES
def test_equality_and_hash(cls, fields, text):
    value, same = cls(**fields), cls(**fields)
    key = _fields(value, fields)
    assert value == same and not value != same
    # another class, the field tuple included, is never equal
    assert value.__eq__(key) is NotImplemented and value != key and key != value
    assert value.__eq__(object()) is NotImplemented
    # nor is a subclass with the same fields
    assert type("Sub", (cls,), {})(**fields) != value
    if cls is LabeledWGraph:
        # the read-only weight view makes a graph unhashable, as its field tuple
        for item in (value, key):
            with pytest.raises(TypeError, match="unhashable type: 'EdgeWeights'"):
                hash(item)
    else:
        assert hash(value) == hash(same) == hash(key)
    # one field changed
    name, other = OTHER[cls.__name__]
    changed = dict(fields, **{name: other})
    assert cls(**changed) != value


@CASES
def test_pickle_and_copy_round_trips(cls, fields, text):
    value = cls(**fields)
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is cls and clone == value and repr(clone) == text
        assert _fields(clone, fields) == _fields(value, fields)


@CASES
def test_assignment_and_deletion_raise(cls, fields, text):
    value = cls(**fields)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError, match=exactly(f"cannot assign to field {name!r}")):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=exactly(f"cannot delete field {name!r}")):
            delattr(value, name)
    assert repr(value) == text and not hasattr(value, "other")


def test_defaults():
    assert RuleReport("bonding", True) == RuleReport(rule="bonding", passed=True, witnesses=())
    assert RuleReport("bonding", True).witnesses == ()
    assert RegressResult("fixtures", True) == RegressResult(name="fixtures", passed=True, detail="")
    assert repr(RegressResult("fixtures", True)) == "RegressResult(name='fixtures', passed=True, detail='')"
    assert repr(RuleReport("bonding", True)) == "RuleReport(rule='bonding', passed=True, witnesses=())"


def test_partitions_order_as_their_parts():
    parts = [(3, 2), (4, 1), (3, 1, 1), (2, 2, 1), (5,), (3, 3), (4, 2), (2, 1)]
    shapes = [Partition(p) for p in parts]
    assert [s.parts for s in sorted(shapes)] == sorted(parts)
    for a in shapes:
        for b in shapes:
            assert (a < b, a <= b, a > b, a >= b, a == b) == (
                a.parts < b.parts, a.parts <= b.parts, a.parts > b.parts, a.parts >= b.parts, a.parts == b.parts,
            )
    # no order with another class, not even the parts themselves
    for other in ((3, 2), T321):
        for compare in (lambda x, y: x < y, lambda x, y: x <= y, lambda x, y: x > y, lambda x, y: x >= y):
            with pytest.raises(TypeError):
                compare(shapes[0], other)


def test_reports_copy_the_sequences_they_are_given():
    # a caller's lists are copied into tuples of tuples, so changing them
    # later changes neither the value nor its JSON, and the value hashes
    witnesses, q = [[0, 1]], [[1, 1, 2], [2, 2]]
    report, pair = RuleReport("bonding", False, witnesses), RskPair(T321, q)
    witnesses[0].append(2)
    witnesses.append([3])
    q[0].append(3)
    assert report == RuleReport("bonding", False, ((0, 1),)) and report.witnesses == ((0, 1),)
    assert report.to_json() == {"rule": "bonding", "passed": False, "witnesses": [[0, 1]]}
    assert pair == RskPair(T321, ((1, 1, 2), (2, 2))) and pair.q == ((1, 1, 2), (2, 2))
    assert hash(report) == hash(("bonding", False, ((0, 1),)))
    assert hash(pair) == hash((T321, ((1, 1, 2), (2, 2))))
    # tuples of tuples are kept as they are
    held = ((0, 1), (2, 3))
    assert all(a is b for a, b in zip(RuleReport("bonding", False, held).witnesses, held))


@pytest.mark.parametrize("fields, text", [
    (("fixtures", True, ["x"]), "detail must be a string, not ['x']"),
    ((["fixtures"], True), "name must be a string, not ['fixtures']"),
    ((1, True), "name must be a string, not 1"),
    (("fixtures", False, None), "detail must be a string, not None"),
])
def test_regress_result_rejects_a_name_or_detail_that_is_not_a_string(fields, text):
    with pytest.raises(ValueError, match=exactly(text)):
        RegressResult(*fields)
