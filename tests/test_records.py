"""The eight result records: fields, keyword construction, repr, read-only
attributes, hashing and pickling, which reports sent between processes
rely on.  The records are tuples, so each also equals the plain tuple of
its values."""

import pickle

import pytest

from fbblat import (AdjunctRepresentation, AdjunctTerm, BFileDiff,
                    BFileMismatch, CountTable, EquivalenceReport, Fbb, Poset,
                    ReducibilityReport)

_TERM = AdjunctTerm(lower="u1", upper="u3", chain=("c2",))
_MISMATCH = BFileMismatch(n=4, q=2, triangle_value=15, file_value=16,
                          index=5, line_no=6)

# (record class, its fields in order with a value each, its repr)
RECORDS = [
    (ReducibilityReport,
     [("reducible", frozenset({1})), ("join_irreducible", frozenset({2})),
      ("meet_irreducible", frozenset({3})),
      ("doubly_irreducible", frozenset())],
     "ReducibilityReport(reducible=frozenset({1}), "
     "join_irreducible=frozenset({2}), meet_irreducible=frozenset({3}), "
     "doubly_irreducible=frozenset())"),
    (AdjunctTerm,
     [("lower", "u1"), ("upper", "u3"), ("chain", ("c2",))],
     "AdjunctTerm(lower='u1', upper='u3', chain=('c2',))"),
    (AdjunctRepresentation,
     [("base_chain", ("u1", "u2", "u3")), ("terms", (_TERM,))],
     "AdjunctRepresentation(base_chain=('u1', 'u2', 'u3'), "
     "terms=(AdjunctTerm(lower='u1', upper='u3', chain=('c2',)),))"),
    (Fbb,
     [("n", 2), ("mask", 1), ("poset", Poset.chain(("u1", "c1", "u2")))],
     "Fbb(n=2, mask=1, poset=Poset(3 elements, 2 covers))"),
    (EquivalenceReport,
     [("n", 3), ("l", 2), ("enumerated", 3), ("recurrence_d", 3),
      ("recurrence_f", 3), ("failures", ())],
     "EquivalenceReport(n=3, l=2, enumerated=3, recurrence_d=3, "
     "recurrence_f=3, failures=())"),
    (CountTable,
     [("kind", "d"), ("max_n", 1), ("cells", {(0, 0): 1})],
     "CountTable(kind='d', max_n=1, cells={(0, 0): 1})"),
    (BFileMismatch,
     [("n", 4), ("q", 2), ("triangle_value", 15), ("file_value", 16),
      ("index", 5), ("line_no", 6)],
     "BFileMismatch(n=4, q=2, triangle_value=15, file_value=16, index=5, "
     "line_no=6)"),
    (BFileDiff,
     [("path", "b.txt"), ("kind", "d"), ("compared", 5),
      ("mismatches", (_MISMATCH,)), ("warnings", ("w",))],
     "BFileDiff(path='b.txt', kind='d', compared=5, "
     "mismatches=(BFileMismatch(n=4, q=2, triangle_value=15, file_value=16, "
     "index=5, line_no=6),), warnings=('w',))"),
]

records = pytest.mark.parametrize("cls, fields, text", RECORDS,
                                  ids=[cls.__name__ for cls, _, _ in RECORDS])


def build(cls, fields):
    return cls(**dict(fields))


@records
def test_fields_in_order_by_keyword(cls, fields, text):
    record = build(cls, fields)
    assert cls._fields == tuple(name for name, _ in fields)
    for name, value in fields:
        assert getattr(record, name) is value
    assert record == cls(*(value for _, value in fields))


@records
def test_repr(cls, fields, text):
    assert repr(build(cls, fields)) == text


@records
def test_attributes_are_read_only(cls, fields, text):
    record = build(cls, fields)
    with pytest.raises(AttributeError):
        setattr(record, fields[0][0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, fields[0][0]) is fields[0][1]


@records
def test_equal_records_hash_equal(cls, fields, text):
    a, b = build(cls, fields), build(cls, fields)
    assert a == b and a is not b
    if cls is CountTable:  # its cells are a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@records
def test_pickle_round_trip(cls, fields, text):
    record = build(cls, fields)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls
    assert back == record


@records
def test_a_record_is_the_tuple_of_its_values(cls, fields, text):
    record = build(cls, fields)
    values = tuple(value for _, value in fields)
    assert record == values
    assert tuple(record) == values
    assert record[0] is values[0]
