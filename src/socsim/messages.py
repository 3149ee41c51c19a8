"""Wire message types and the line-oriented log encoding.

Four message kinds exist: member messages carry their sender's pair index
of opinions plus a keep-alive, head messages carry the agreed cluster
structure, request and response messages implement the merge agreement.
Log records are ``time;type;from;to|*;payload`` lines with opinions as
``lo:hi:b,d,u,a``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .opinions import Opinion, format_opinion, parse_opinion


# one report format from percept to wire: (lo, hi) -> opinion with lo < hi; a
# member message carries it in ascending pair order, read-only at every receiver
PairIndex = dict[tuple[int, int], Opinion]


class MemberMsg(NamedTuple):
    sender: int
    head: int
    opinions: PairIndex


class HeadMsg(NamedTuple):
    head: int
    agent_members: frozenset[int]
    human_members: frozenset[int]


class RequestMsg(NamedTuple):
    head: int
    members: frozenset[int]


class ResponseMsg(NamedTuple):
    responder: int
    accepted: bool
    forward_to: Optional[int] = None
    forward_members: Optional[frozenset[int]] = None


Message = Union[MemberMsg, HeadMsg, RequestMsg, ResponseMsg]

_TYPE_TAGS = {MemberMsg: "cm", HeadMsg: "ch", RequestMsg: "req", ResponseMsg: "res"}


def message_type(msg: Message) -> str:
    return _TYPE_TAGS[type(msg)]


def _ids(values) -> str:
    return ",".join(str(v) for v in sorted(values))


def _pair_field(pair: tuple[int, int], op: Opinion) -> str:
    return f"{pair[0]}:{pair[1]}:{format_opinion(op)}"


def encode_payload(msg: Message) -> str:
    if isinstance(msg, MemberMsg):
        fields = [str(msg.head)]
        fields.extend(_pair_field(pair, op) for pair, op in msg.opinions.items())
        return "|".join(fields)
    if isinstance(msg, HeadMsg):
        return f"{msg.head}|{_ids(msg.agent_members)}|{_ids(msg.human_members)}"
    if isinstance(msg, RequestMsg):
        return f"{msg.head}|{_ids(msg.members)}"
    if isinstance(msg, ResponseMsg):
        fwd = "-" if msg.forward_to is None else str(msg.forward_to)
        fwd_members = "-" if msg.forward_members is None else _ids(msg.forward_members)
        return f"{int(msg.accepted)}|{fwd}|{fwd_members}"
    raise TypeError(f"unknown message type: {msg!r}")


def _line(time: float, msg: Message, sender: int, target: Optional[int], payload: str) -> str:
    to = "*" if target is None else str(target)
    return f"{time!r};{message_type(msg)};{sender};{to};{payload}"


def encode_record(time: float, msg: Message, sender: int, target: Optional[int]) -> str:
    return _line(time, msg, sender, target, encode_payload(msg))


class LineEncoder:
    """``encode_record`` of one (time, message, sender, target) per call, with
    its newline. Over the encoder's life, each distinct head, request or
    response payload is encoded once, and a pair's ``lo:hi:b,d,u,a`` text is
    reused while its next opinion equals its last."""

    def __init__(self) -> None:
        self._payloads: dict[Message, str] = {}
        self._pair_fields: dict[tuple[int, int], tuple[Opinion, str]] = {}

    def __call__(self, time: float, msg: Message, sender: int, target: Optional[int]) -> str:
        if isinstance(msg, MemberMsg):
            pair_fields = self._pair_fields
            fields = [str(msg.head)]
            for pair, op in msg.opinions.items():
                last = pair_fields.get(pair)
                # equal floats print alike except 0.0 and -0.0, so an opinion
                # with a zero field is formatted again
                if last is None or last[0] != op or not all(op):
                    last = pair_fields[pair] = (op, _pair_field(pair, op))
                fields.append(last[1])
            payload = "|".join(fields)
        else:
            payload = self._payloads.get(msg)
            if payload is None:
                payload = self._payloads[msg] = encode_payload(msg)
        return _line(time, msg, sender, target, payload) + "\n"


def decode_record(line: str) -> tuple[float, Message, int, Optional[int]]:
    parts = line.rstrip("\n").split(";")
    if len(parts) != 5:
        raise ValueError(f"malformed log record: {line!r}")
    time_s, tag, sender_s, to_s, payload = parts
    time = float(time_s)
    sender = int(sender_s)
    target = None if to_s == "*" else int(to_s)
    fields = payload.split("|")
    if tag == "cm":
        opinions: PairIndex = {}
        for item in fields[1:]:
            i_s, j_s, op_s = item.split(":")
            pair = (int(i_s), int(j_s))
            if pair[0] >= pair[1] or pair in opinions:
                raise ValueError(f"pair {i_s}:{j_s} is not ascending or repeats in {line!r}")
            opinions[pair] = parse_opinion(op_s)
        msg: Message = MemberMsg(sender, int(fields[0]), opinions)
    elif tag == "ch":
        msg = HeadMsg(int(fields[0]), _parse_ids(fields[1]), _parse_ids(fields[2]))
    elif tag == "req":
        msg = RequestMsg(int(fields[0]), _parse_ids(fields[1]))
    elif tag == "res":
        fwd = None if fields[1] == "-" else int(fields[1])
        fwd_members = None if fields[2] == "-" else _parse_ids(fields[2])
        msg = ResponseMsg(sender, fields[0] == "1", fwd, fwd_members)
    else:
        raise ValueError(f"unknown message tag {tag!r} in {line!r}")
    return time, msg, sender, target


def _parse_ids(text: str) -> frozenset[int]:
    if not text:
        return frozenset()
    return frozenset(int(v) for v in text.split(","))
