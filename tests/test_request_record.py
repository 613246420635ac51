"""`serving.engine.Request` is a hand-written frozen ``__slots__`` record;
these properties pin it to the frozen dataclass it replaced, kept here as
``RefRequest``: construction, validation messages, equality and hash,
``repr``, immutability, and pickle/copy round-trips."""

import copy
import dataclasses
import math
import pickle
from dataclasses import FrozenInstanceError, dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.engine import Request


@dataclass(frozen=True)
class RefRequest:
    """The frozen-dataclass ``Request`` as it was, the reference twin."""

    req_id: int
    model: str
    arrival_s: float
    slo_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0 <= self.arrival_s < math.inf:
            raise ValueError(
                f"arrival time must be finite and non-negative, got {self.arrival_s}"
            )
        if self.slo_s is not None and not 0 < self.slo_s < math.inf:
            raise ValueError(
                f"SLO must be positive and finite when given, got {self.slo_s}"
            )


def _build(cls, fields, how):
    """Construct ``cls`` from a 3- or 4-field tuple, positionally, by
    keyword, or mixed."""
    names = ("req_id", "model", "arrival_s", "slo_s")[: len(fields)]
    if how == "positional":
        return cls(*fields)
    if how == "keyword":
        return cls(**dict(zip(names, fields)))
    return cls(*fields[:2], **dict(zip(names[2:], fields[2:])))


def _outcome(cls, fields, how):
    try:
        return "ok", _build(cls, fields, how)
    except ValueError as exc:
        return "error", str(exc)


def _named_as_ref(r):
    """``repr`` of a ``Request`` with the twin's class name."""
    return repr(r).replace("Request(", "RefRequest(", 1)


# Wide draws for validation (NaN, ±inf, negatives, zero) ...
_any_float = st.floats(allow_nan=True, allow_infinity=True)
_wide = st.tuples(
    st.integers(-(2**70), 2**70),
    st.text(max_size=6),
    st.one_of(_any_float, st.sampled_from([0.0, -0.0, -1e-300, math.inf, -math.inf])),
) | st.tuples(
    st.integers(-5, 5),
    st.sampled_from(["BERT", "DLRM"]),
    st.floats(0.0, 1e6),
    st.one_of(st.none(), _any_float, st.sampled_from([0.0, -1.0, math.nan, math.inf])),
)
# ... and narrow ones, so two draws often differ in one field only.
_narrow = st.tuples(
    st.integers(0, 2),
    st.sampled_from(["BERT", "DLRM"]),
    st.sampled_from([0.0, 0.5, 1.0]),
) | st.tuples(
    st.integers(0, 2),
    st.sampled_from(["BERT", "DLRM"]),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([None, 0.25, 0.5]),
)
_how = st.sampled_from(["positional", "keyword", "mixed"])


@settings(max_examples=300, deadline=None)
@given(fields=_wide, how=_how)
def test_construction_and_validation_match_the_dataclass(fields, how):
    got, ref = _outcome(Request, fields, how), _outcome(RefRequest, fields, how)
    assert got[0] == ref[0]
    if got[0] == "error":
        assert got[1] == ref[1]
        return
    r, d = got[1], ref[1]
    assert type(r) is Request
    assert (r.req_id, r.model, r.arrival_s, r.slo_s) == dataclasses.astuple(d)
    assert _named_as_ref(r) == repr(d)
    assert hash(r) == hash(d)


@settings(max_examples=300, deadline=None)
@given(a=_narrow, b=_narrow, how_a=_how, how_b=_how)
def test_equality_and_hash_match_the_dataclass(a, b, how_a, how_b):
    ra, rb = _build(Request, a, how_a), _build(Request, b, how_b)
    da, db = _build(RefRequest, a, how_a), _build(RefRequest, b, how_b)
    assert (ra == rb) == (da == db)
    assert (ra != rb) == (da != db)
    if ra == rb:
        assert hash(ra) == hash(rb)
    # Across the two types (and against plain tuples) nothing is equal:
    # both compare by exact class, as dataclasses do.
    assert ra != da and da != ra
    assert ra != (ra.req_id, ra.model, ra.arrival_s, ra.slo_s)
    assert {ra, rb} == ({ra} if da == db else {ra, rb})


@settings(max_examples=100, deadline=None)
@given(fields=_narrow, how=_how)
def test_frozen_and_round_trips(fields, how):
    r = _build(Request, fields, how)
    for name in ("req_id", "model", "arrival_s", "slo_s", "extra"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(r, name, 1)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert not hasattr(r, "__dict__")
    for clone in (
        pickle.loads(pickle.dumps(r)),
        pickle.loads(pickle.dumps(r, protocol=0)),
        copy.copy(r),
        copy.deepcopy(r),
        copy.deepcopy([r, r])[1],
    ):
        assert type(clone) is Request
        assert clone == r and hash(clone) == hash(r) and repr(clone) == repr(r)


def test_field_order_defaults_and_match_args():
    names = tuple(f.name for f in dataclasses.fields(RefRequest))
    assert Request.__slots__ == names
    assert Request.__match_args__ == RefRequest.__match_args__
    assert Request(0, "BERT", 0.0).slo_s is None
    match Request(3, "DLRM", 1.5, 0.2):
        case Request(rid, model, t, slo):
            assert (rid, model, t, slo) == (3, "DLRM", 1.5, 0.2)
    # Not a dataclass: the dropped introspection, stated.
    assert not dataclasses.is_dataclass(Request)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((0, "BERT", math.nan), "arrival time must be finite and non-negative, got nan"),
        ((0, "BERT", math.inf), "arrival time must be finite and non-negative, got inf"),
        ((0, "BERT", -math.inf), "arrival time must be finite and non-negative, got -inf"),
        ((0, "BERT", -0.5), "arrival time must be finite and non-negative, got -0.5"),
        ((0, "BERT", 0.0, 0.0), "SLO must be positive and finite when given, got 0.0"),
        ((0, "BERT", 0.0, -1.0), "SLO must be positive and finite when given, got -1.0"),
        ((0, "BERT", 0.0, math.nan), "SLO must be positive and finite when given, got nan"),
        ((0, "BERT", 0.0, math.inf), "SLO must be positive and finite when given, got inf"),
    ],
)
def test_value_error_messages(fields, message):
    for cls in (Request, RefRequest):
        with pytest.raises(ValueError) as info:
            cls(*fields)
        assert str(info.value) == message
