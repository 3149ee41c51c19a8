"""Wire codec round-trip tests for the log record format."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from socsim.messages import (
    HeadMsg,
    MemberMsg,
    RequestMsg,
    ResponseMsg,
    decode_record,
    encode_record,
)
from socsim.opinions import Opinion

from conftest import opinions

ids = st.integers(min_value=0, max_value=2**64 - 1)
# ascending, unique pairs in ascending order: the pair index a member message carries
pair_indexes = st.dictionaries(
    st.tuples(ids, ids).filter(lambda p: p[0] < p[1]), opinions(), min_size=1, max_size=4
).map(lambda index: dict(sorted(index.items())))


def test_member_msg_line_shape():
    msg = MemberMsg(7, 5, {(1, 2): Opinion(0.5, 0.25, 0.25, 0.2)})
    line = encode_record(3.0, msg, 7, None)
    assert line == "3.0;cm;7;*;5|1:2:0.5,0.25,0.25,0.2"


def test_head_msg_line_sorts_members():
    msg = HeadMsg(3, frozenset({8, 3, 4}), frozenset({8, 3, 4, 9}))
    assert encode_record(1.0, msg, 3, None) == "1.0;ch;3;*;3|3,4,8|3,4,8,9"


def test_response_without_forward():
    msg = ResponseMsg(9, False)
    assert encode_record(2.0, msg, 9, 5) == "2.0;res;9;5;0|-|-"


@given(
    time=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    sender=ids,
    head=ids,
    index=pair_indexes,
)
def test_member_round_trip(time, sender, head, index):
    msg = MemberMsg(sender, head, index)
    decoded = decode_record(encode_record(time, msg, sender, None))
    assert decoded == (time, msg, sender, None)
    assert list(decoded[1].opinions) == list(index)


@given(time=st.floats(min_value=0, max_value=1e6, allow_nan=False), head=ids, members=st.frozensets(ids, min_size=1, max_size=6))
def test_request_round_trip(time, head, members):
    msg = RequestMsg(head, members)
    decoded = decode_record(encode_record(time, msg, head, 3))
    assert decoded == (time, msg, head, 3)


@given(
    head=ids,
    agent_members=st.frozensets(ids, min_size=1, max_size=5),
    extra=st.frozensets(ids, max_size=3),
)
def test_head_round_trip(head, agent_members, extra):
    msg = HeadMsg(head, agent_members, agent_members | extra)
    decoded = decode_record(encode_record(0.5, msg, head, None))
    assert decoded == (0.5, msg, head, None)


@given(
    responder=ids,
    accepted=st.booleans(),
    forward=st.none() | ids,
    fwd_members=st.none() | st.frozensets(ids, min_size=1, max_size=4),
)
def test_response_round_trip(responder, accepted, forward, fwd_members):
    msg = ResponseMsg(responder, accepted, forward, fwd_members)
    decoded = decode_record(encode_record(9.25, msg, responder, 1))
    assert decoded == (9.25, msg, responder, 1)


@pytest.mark.parametrize(
    "payload",
    ["5|2:1:0.5,0.25,0.25,0.2", "5|1:1:0.5,0.25,0.25,0.2", "5|1:2:0.5,0.25,0.25,0.2|1:2:0,0,1,0.2"],
)
def test_member_pair_not_ascending_or_repeated_rejected(payload):
    with pytest.raises(ValueError, match="not ascending or repeats"):
        decode_record(f"1.0;cm;7;*;{payload}")


def test_malformed_line_rejected():
    with pytest.raises(ValueError):
        decode_record("1.0;cm;7;*")
    with pytest.raises(ValueError):
        decode_record("1.0;zz;7;*;payload")
