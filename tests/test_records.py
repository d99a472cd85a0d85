"""The seven records of the package are plain immutable classes that keep
the semantics they had as frozen dataclasses: equality, hash and ``repr``
by their field tuple, pickling and copying, and construction by position
and by keyword."""

import copy
import pickle

import pytest

from schurmult import (
    AlgebraContext,
    DominantWeight,
    FactorizationReport,
    MultiplicityTable,
    Partition,
    Weight,
    verify_factorization,
)
from schurmult.cli import Query

A2 = AlgebraContext(3)
W = DominantWeight((1, 0), A2)

# (record, its fields by name, its repr as the dataclass wrote it)
RECORDS = [
    (A2, {"N": 3}, "AlgebraContext(N=3)"),
    (Partition((2, 1)), {"parts": (2, 1)}, "Partition(parts=(2, 1))"),
    (
        W,
        {"coords": (1, 0), "context": A2},
        "DominantWeight(coords=(1, 0), context=AlgebraContext(N=3))",
    ),
    (
        Weight((3, 1, 2), A2),
        {"mu_exponents": (2, 0, 1), "context": A2},
        "Weight(mu_exponents=(2, 0, 1), context=AlgebraContext(N=3))",
    ),
    (
        MultiplicityTable(W, ((W, 1),), 3, (3,)),
        {"highest_weight": W, "entries": ((W, 1),), "dimension": 3, "orbit_sizes": (3,)},
        "MultiplicityTable(highest_weight=DominantWeight(coords=(1, 0), "
        "context=AlgebraContext(N=3)), entries=((DominantWeight(coords=(1, 0), "
        "context=AlgebraContext(N=3)), 1),), dimension=3, orbit_sizes=(3,))",
    ),
    (
        verify_factorization(Partition((2, 1)), A2),
        {"partition": Partition((2, 1)), "context": A2, "difference": {}},
        "FactorizationReport(partition=Partition(parts=(2, 1)), "
        "context=AlgebraContext(N=3), difference={})",
    ),
    (
        Query("mult", rank=3, weight=(1, 0)),
        {
            "command": "mult",
            "rank": 3,
            "weight": (1, 0),
            "partition": None,
            "height": None,
            "fmt": "text",
            "oracle": False,
            "ranks": (),
            "max_height": 4,
            "flagship": False,
        },
        "Query(command='mult', rank=3, weight=(1, 0), partition=None, height=None, "
        "fmt='text', oracle=False, ranks=(), max_height=4, flagship=False)",
    ),
]


def test_records_keep_their_dataclass_semantics():
    assert {type(record) for record, _, _ in RECORDS} == {
        AlgebraContext,
        Partition,
        DominantWeight,
        Weight,
        MultiplicityTable,
        FactorizationReport,
        Query,
    }
    for record, fields, text in RECORDS:
        cls = type(record)
        values = tuple(fields.values())
        assert tuple(getattr(record, name) for name in fields) == values
        assert repr(record) == text
        # construction by position and by keyword
        assert cls(*values) == record == cls(**fields)
        assert record != values and record != object()
        # the hash of the field tuple, or the same refusal (a dict field)
        try:
            expected = hash(values)
        except TypeError:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(twin) is cls and twin == record and repr(twin) == text
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert tuple(getattr(record, name) for name in fields) == values
