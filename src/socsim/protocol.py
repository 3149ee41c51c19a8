"""Per-agent consensus state machine for social-situation clustering.

Every agent starts as the head of its own unary cluster. Members broadcast
pairwise opinions (and thereby keep-alives), heads aggregate them into
group opinions, grow their cluster through an explicit request/response
agreement, rebroadcast the agreed membership each period, and drop members
whose keep-alive or group opinion lapses. Heads falling silent for more
than one period break their cluster apart.

The state machine is strictly sequential per agent: one event in, one
(state mutation, emissions) out. All randomness and I/O live outside.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .messages import HeadMsg, MemberMsg, Message, RequestMsg, ResponseMsg
from .opinions import (
    Opinion,
    decide,
    expectation,
    floor_uncertainty,
    fuse_averaging_multi,
    vacuous,
)

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64 = 1 << 64


class Role(enum.Enum):
    CLUSTER_HEAD = "cluster_head"
    MEMBER = "member"


class AgentKind(enum.Enum):
    HUMAN_LINKED = "human_linked"
    OPINION_PROVIDER = "opinion_provider"
    HUMAN_WITHOUT_AGENT = "human_without_agent"


class ProtocolError(Exception):
    pass


class BusyPendingError(ProtocolError):
    """A second request was attempted while one is outstanding."""


class NoMembersError(ProtocolError):
    """Handover attempted on a unary cluster."""


@dataclass
class ProtocolConfig:
    """Tunable protocol parameters. TTLs default to small multiples of the
    period so the protocol stays parameter-sparse."""

    period: float = 1.0
    request_threshold: float = 0.5
    accept_threshold: float = 0.5
    social_distance: float = 10.0
    denial_ttl: Optional[float] = None
    head_knowledge_ttl: Optional[float] = None
    opinion_ttl: Optional[float] = None
    u_min: float = 0.0
    base_rate: float = 0.2
    detach_extension: bool = False
    stable_handover: bool = False
    direct_to_head_routing: bool = False

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        for name in ("request_threshold", "accept_threshold"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.social_distance <= 0:
            raise ValueError("social_distance must be positive")
        if not 0.0 <= self.u_min <= 1.0:
            raise ValueError("u_min must lie in [0, 1]")
        if not 0.0 <= self.base_rate <= 1.0:
            raise ValueError("base_rate must lie in [0, 1]")
        if self.denial_ttl is None:
            self.denial_ttl = 10.0 * self.period
        if self.head_knowledge_ttl is None:
            self.head_knowledge_ttl = 5.0 * self.period
        if self.opinion_ttl is None:
            self.opinion_ttl = 3.0 * self.period


# One emission is (message, unicast target or None for broadcast).
Emission = list[tuple[Message, Optional[int]]]


def sorted_pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) % _U64
    return h


def resolve_conflict(a: int, b: int) -> int:
    """Deterministic symmetric tie-break between two mutually requesting
    heads: the identifier closer (ring distance on the 64-bit space) to
    the FNV-1a hash of the sorted id pair wins; exact ties go to the
    smaller identifier."""
    if a == b:
        raise ValueError("conflict resolution needs two distinct ids")
    lo, hi = sorted_pair(a, b)
    h = fnv1a64(lo.to_bytes(8, "big") + hi.to_bytes(8, "big"))

    def ring_distance(x: int) -> int:
        d = (x - h) % _U64
        return min(d, _U64 - d)

    da, db = ring_distance(a), ring_distance(b)
    if da != db:
        return a if da < db else b
    return lo


@dataclass
class Agent:
    """Protocol state and handlers for one agent."""

    id: int
    config: ProtocolConfig
    kind: AgentKind = AgentKind.HUMAN_LINKED
    role: Role = Role.CLUSTER_HEAD
    head_id: int = -1
    members: set[int] = field(default_factory=set)
    human_members: set[int] = field(default_factory=set)
    # (lo, hi) pair -> reporting sender -> (opinion, stored_at)
    opinion_store: dict[tuple[int, int], dict[int, tuple[Opinion, float]]] = field(
        default_factory=dict
    )
    pending_request: Optional[tuple[int, float]] = None
    denial_cache: dict[int, float] = field(default_factory=dict)
    observed_heads: dict[int, tuple[int, float]] = field(default_factory=dict)
    last_ch_received: float = 0.0
    last_member_msgs: dict[int, float] = field(default_factory=dict)
    membership_since: dict[int, float] = field(default_factory=dict)
    inconsistent_members: set[int] = field(default_factory=set)
    neighbors: dict[int, tuple[AgentKind, float, float]] = field(default_factory=dict)
    next_candidate: Optional[int] = None
    next_request_time: float = 0.0
    last_head_emit: float = float("-inf")
    stale_responses: int = 0

    def __post_init__(self) -> None:
        if self.head_id < 0:
            self.head_id = self.id
        if not self.members:
            self.members = {self.id}
        if not self.human_members:
            self.human_members = set(self.members)
        self.membership_since.setdefault(self.id, 0.0)

    # ------------------------------------------------------------------
    # message dispatch

    def handle_message(self, msg: Message, sender: int, now: float) -> Emission:
        if isinstance(msg, MemberMsg):
            self.handle_member_msg(msg, now)
            return []
        if isinstance(msg, HeadMsg):
            return self.handle_head_msg(msg, sender, now)
        if isinstance(msg, RequestMsg):
            return self.handle_request(msg, now)
        if isinstance(msg, ResponseMsg):
            return self.handle_response(msg, now)
        raise TypeError(f"unknown message: {msg!r}")

    # ------------------------------------------------------------------
    # periodic behaviour

    def tick(self, now: float) -> Emission:
        """Once-per-period driver: evict stale state, enforce the head
        timeout, recompute membership, and emit this period's broadcast."""
        self._evict(now)
        if self.kind is AgentKind.OPINION_PROVIDER:
            return self._emit_member_msg(now, keep_alive_fallback=False)
        if self.role is Role.MEMBER and now - self.last_ch_received > self.config.period:
            self._become_singleton(now)
        if self.role is Role.CLUSTER_HEAD:
            self.recompute_membership(now)
            if now - self.last_head_emit >= self.config.period - 1e-9:
                self.last_head_emit = now
                return [(self._head_msg(), None)]
            return []
        return self._emit_member_msg(now, keep_alive_fallback=True)

    def _head_msg(self) -> HeadMsg:
        return HeadMsg(
            head=self.id,
            agent_members=frozenset(self.members),
            human_members=frozenset(self.human_members),
        )

    def _emit_member_msg(self, now: float, keep_alive_fallback: bool) -> Emission:
        in_range = {self.id}
        for nid, (_, dist, _) in self.neighbors.items():
            if dist <= self.config.social_distance:
                in_range.add(nid)
        opinions: list[tuple[int, int, Opinion]] = []
        for pair in sorted(self.opinion_store):
            entry = self.opinion_store[pair].get(self.id)
            if entry is None:
                continue
            if pair[0] in in_range or pair[1] in in_range:
                opinions.append((pair[0], pair[1], entry[0]))
        if not opinions:
            if not keep_alive_fallback:
                return []
            # No current evidence: send a vacuous opinion about the own
            # head tie so the keep-alive still reaches the head.
            i, j = sorted_pair(self.id, self.head_id)
            opinions = [(i, j, vacuous(self.config.base_rate))]
        return [(MemberMsg(self.id, self.head_id, tuple(opinions)), None)]

    def _evict(self, now: float) -> None:
        cfg = self.config
        for agent in [a for a, expiry in self.denial_cache.items() if expiry <= now]:
            del self.denial_cache[agent]
        for agent in [a for a, (_, expiry) in self.observed_heads.items() if expiry <= now]:
            del self.observed_heads[agent]
        cutoff = now - cfg.opinion_ttl
        empty_pairs = []
        for pair, by_sender in self.opinion_store.items():
            stale_senders = [s for s, (_, t) in by_sender.items() if t < cutoff]
            for s in stale_senders:
                del by_sender[s]
            if not by_sender:
                empty_pairs.append(pair)
        for pair in empty_pairs:
            del self.opinion_store[pair]
        stale_nb = [n for n, (_, _, t) in self.neighbors.items() if now - t > cfg.period]
        for n in stale_nb:
            del self.neighbors[n]
        if self.pending_request is not None and now - self.pending_request[1] > cfg.period:
            self.pending_request = None

    def _become_singleton(self, now: float) -> None:
        self.role = Role.CLUSTER_HEAD
        self.head_id = self.id
        self.members = {self.id}
        self.human_members = {self.id}
        self.pending_request = None
        self.last_member_msgs.clear()
        self.membership_since = {self.id: now}
        self.inconsistent_members.clear()

    # ------------------------------------------------------------------
    # opinion bookkeeping

    def apply_percept(
        self,
        opinions: Iterable[tuple[int, int, Opinion]],
        neighbors: Iterable[tuple[int, AgentKind, float]],
        now: float,
    ) -> None:
        for i, j, op in opinions:
            self._store_opinion(i, j, self.id, op, now)
        for nid, kind, dist in neighbors:
            if nid != self.id:
                self.neighbors[nid] = (kind, dist, now)

    def _store_opinion(self, i: int, j: int, sender: int, op: Opinion, now: float) -> None:
        if i == j:
            return
        pair = sorted_pair(i, j)
        self.opinion_store.setdefault(pair, {})[sender] = (op, now)

    def _pair_view(self, pair: tuple[int, int]) -> Optional[Opinion]:
        by_sender = self.opinion_store.get(pair)
        if not by_sender:
            return None
        u_min = self.config.u_min
        floored = [floor_uncertainty(op, u_min) for op, _ in by_sender.values()]
        return fuse_averaging_multi(floored)

    def group_opinion(
        self, left: Iterable[int], right: Iterable[int], fill_missing: bool
    ) -> Optional[Opinion]:
        """Fuse per-pair views over all cross pairs between the two id
        sets. Missing pairs contribute a vacuous opinion when
        ``fill_missing`` (aggregation happens before any thresholding)."""
        pairs = set()
        for x in left:
            for y in right:
                if x != y:
                    pairs.add(sorted_pair(x, y))
        views: list[Opinion] = []
        for pair in sorted(pairs):
            view = self._pair_view(pair)
            if view is not None:
                views.append(view)
            elif fill_missing:
                views.append(vacuous(self.config.base_rate))
        if not views:
            return None
        return fuse_averaging_multi(views)

    # ------------------------------------------------------------------
    # membership maintenance (heads)

    def recompute_membership(self, now: float) -> None:
        """Re-derive the member set before emitting a head message:
        a member is retained iff its keep-alive is fresh, it has not
        claimed a different head, and the group opinion about it still
        passes the acceptance threshold."""
        if self.role is not Role.CLUSTER_HEAD:
            return
        cfg = self.config
        keep = {self.id}
        for m in sorted(self.members):
            if m == self.id or m in self.inconsistent_members:
                continue
            seen = self.last_member_msgs.get(m)
            if seen is None or now - seen > cfg.period:
                continue
            group = self.group_opinion([m], keep_others(self.members, m), fill_missing=True)
            if group is not None and decide(group, cfg.accept_threshold):
                keep.add(m)
        self.members = keep
        self.inconsistent_members.clear()
        for gone in [m for m in self.membership_since if m not in keep]:
            del self.membership_since[gone]
        for gone in [m for m in self.last_member_msgs if m not in keep]:
            del self.last_member_msgs[gone]
        if cfg.detach_extension:
            humans = set(keep)
            for nid, (kind, _, _) in self.neighbors.items():
                if kind is not AgentKind.HUMAN_WITHOUT_AGENT or nid in humans:
                    continue
                group = self.group_opinion([nid], keep, fill_missing=True)
                if group is not None and decide(group, cfg.accept_threshold):
                    humans.add(nid)
            self.human_members = humans
        else:
            self.human_members = set(keep)

    # ------------------------------------------------------------------
    # request sending (cluster heads)

    def get_candidate(self, now: float) -> Optional[int]:
        """Pick the most promising agent (or, via referral and logged head
        messages, cluster head) to ask for a joint social situation."""
        if self.role is not Role.CLUSTER_HEAD or self.pending_request is not None:
            return None
        cfg = self.config
        if self.next_candidate is not None:
            target = self.next_candidate
            self.next_candidate = None
            if target != self.id and target not in self.members and not self._denied(target, now):
                return target
        best: Optional[int] = None
        best_exp = -1.0
        for nid in sorted(self.neighbors):
            kind, dist, _ = self.neighbors[nid]
            if (
                nid in self.members
                or kind is not AgentKind.HUMAN_LINKED
                or dist > cfg.social_distance
                or self._denied(nid, now)
            ):
                continue
            group = self.group_opinion(self.members, [nid], fill_missing=False)
            if group is None or not decide(group, cfg.request_threshold):
                continue
            exp = expectation(group)
            if exp > best_exp:
                best, best_exp = nid, exp
        if best is None:
            return None
        if cfg.direct_to_head_routing:
            known = self.observed_heads.get(best)
            if known is not None and known[1] > now and known[0] != best:
                head = known[0]
                if head != self.id and head not in self.members and not self._denied(head, now):
                    return head
        return best

    def _denied(self, agent: int, now: float) -> bool:
        expiry = self.denial_cache.get(agent)
        return expiry is not None and expiry > now

    def send_request(self, target: int, now: float) -> Emission:
        if self.pending_request is not None:
            raise BusyPendingError(f"agent {self.id} already awaits {self.pending_request[0]}")
        self.pending_request = (target, now)
        return [(RequestMsg(head=self.id, members=frozenset(self.members)), target)]

    # ------------------------------------------------------------------
    # request processing

    def check_for_social_situation(self, req: RequestMsg, now: float) -> bool:
        """Group opinion of the own cluster about being in a situation
        with the requesting cluster, discretized as late as possible."""
        others = (set(req.members) | {req.head}) - self.members
        if not others:
            return True
        group = self.group_opinion(self.members, others, fill_missing=True)
        return group is not None and decide(group, self.config.accept_threshold)

    def handle_request(self, req: RequestMsg, now: float) -> Emission:
        if self.kind is AgentKind.OPINION_PROVIDER:
            return []
        if self.pending_request is not None:
            if self.pending_request[0] == req.head:
                # Mutual simultaneous requests: only the designated head
                # may accept; the loser stays quiet and awaits the
                # winner's reply to its own in-flight request.
                winner = resolve_conflict(self.id, req.head)
                if winner != self.id:
                    return []
                self.pending_request = None
            else:
                # Awaiting a reply of our own: accepting now could merge
                # and demote in the same breath, orphaning members. Defer;
                # the requester retries after its request times out.
                return []
        if self.role is Role.MEMBER:
            return [
                (
                    ResponseMsg(
                        self.id,
                        accepted=False,
                        forward_to=self.head_id,
                        forward_members=frozenset(self.members),
                    ),
                    req.head,
                )
            ]
        if self.check_for_social_situation(req, now):
            newcomers = (set(req.members) | {req.head}) - self.members
            for m in newcomers:
                self.last_member_msgs.setdefault(m, now)
                self.membership_since.setdefault(m, now)
            self.members |= newcomers
            self.human_members |= newcomers
            return [(ResponseMsg(self.id, accepted=True), req.head)]
        return [(ResponseMsg(self.id, accepted=False), req.head)]

    # ------------------------------------------------------------------
    # response processing (requester side)

    def handle_response(self, res: ResponseMsg, now: float) -> Emission:
        if self.pending_request is None or self.pending_request[0] != res.responder:
            self.stale_responses += 1
            return []
        self.pending_request = None
        cfg = self.config
        if res.accepted:
            self.role = Role.MEMBER
            self.head_id = res.responder
            self.members.add(res.responder)
            self.human_members.add(res.responder)
            self.last_ch_received = now
            self.next_candidate = None
            self.last_member_msgs.clear()
            self.membership_since = {self.id: now}
            return []
        if res.forward_to is not None and res.forward_to != self.id:
            referred = set(res.forward_members or frozenset()) | {res.forward_to}
            referred -= self.members
            if referred and res.forward_to not in self.members:
                group = self.group_opinion(self.members, referred, fill_missing=True)
                if group is not None and decide(group, cfg.request_threshold):
                    self.next_candidate = res.forward_to
                    return []
        self.denial_cache[res.responder] = now + cfg.denial_ttl
        return []

    # ------------------------------------------------------------------
    # broadcast processing

    def handle_member_msg(self, msg: MemberMsg, now: float) -> None:
        for i, j, op in msg.opinions:
            self._store_opinion(i, j, msg.sender, op, now)
        self.observed_heads[msg.sender] = (msg.head, now + self.config.head_knowledge_ttl)
        if self.role is Role.CLUSTER_HEAD and msg.sender in self.members:
            if msg.head == self.id:
                self.last_member_msgs[msg.sender] = now
            else:
                self.inconsistent_members.add(msg.sender)

    def handle_head_msg(self, msg: HeadMsg, sender: int, now: float) -> Emission:
        expiry = now + self.config.head_knowledge_ttl
        self.observed_heads[msg.head] = (msg.head, expiry)
        for m in msg.agent_members:
            if m != msg.head:
                self.observed_heads[m] = (msg.head, expiry)
        if self.kind is AgentKind.OPINION_PROVIDER:
            return []
        if msg.head == self.id:
            if self.role is Role.MEMBER and sender == self.head_id:
                # Our departing head nominated us as its replacement.
                self._assume_headship(msg, now)
                self.last_head_emit = now
                return [(self._head_msg(), None)]
            return []
        if self.role is Role.MEMBER and msg.head == self.head_id:
            if self.id in msg.agent_members:
                self.last_ch_received = now
                self._adopt_view(msg)
            else:
                self._become_singleton(now)
            return []
        if self.id in msg.agent_members:
            if self.role is Role.MEMBER or self.members == {self.id}:
                # A foreign head lists us: either a merge we joined through
                # our former head or a handover relay. Adopt the agreed view.
                self.role = Role.MEMBER
                self.head_id = msg.head
                self.last_ch_received = now
                self.pending_request = None
                self.last_member_msgs.clear()
                self._adopt_view(msg)
        return []

    def _adopt_view(self, msg: HeadMsg) -> None:
        self.members = set(msg.agent_members)
        self.members.add(self.id)
        self.human_members = set(msg.human_members) | self.members

    def _assume_headship(self, msg: HeadMsg, now: float) -> None:
        self.role = Role.CLUSTER_HEAD
        self.head_id = self.id
        self.members = set(msg.agent_members)
        self.members.add(self.id)
        self.human_members = set(msg.human_members) | self.members
        self.pending_request = None
        for m in self.members:
            self.last_member_msgs.setdefault(m, now)
            self.membership_since.setdefault(m, now)

    # ------------------------------------------------------------------
    # departure handover (stable_handover extension)

    def handover_head(self, now: float) -> Emission:
        """Nominate the longest-standing member as replacement head when
        this head departs. No-op unless the extension is enabled."""
        if not self.config.stable_handover:
            return []
        if self.role is not Role.CLUSTER_HEAD:
            raise ProtocolError("only cluster heads can hand over")
        others = self.members - {self.id}
        if not others:
            raise NoMembersError("unary cluster has nobody to hand over to")
        replacement = min(
            sorted(others),
            key=lambda m: (-(now - self.membership_since.get(m, now)), m),
        )
        return [
            (
                HeadMsg(
                    head=replacement,
                    agent_members=frozenset(self.members - {self.id}),
                    human_members=frozenset(self.human_members - {self.id}),
                ),
                None,
            )
        ]


def keep_others(members: Iterable[int], excluded: int) -> list[int]:
    return [m for m in members if m != excluded]
