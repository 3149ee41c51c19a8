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
from typing import Iterable, NamedTuple, Optional

from .messages import HeadMsg, MemberMsg, Message, PairIndex, RequestMsg, ResponseMsg
from .opinions import (
    Opinion,
    decide,
    expectation,
    floor_uncertainty,
    fuse_averaging_multi,
    may_pass,
    vacuous,
)
from .percept import ObservedIndex
from .schema import OPEN_UNIT, POSITIVE, UNIT, check, ranged

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64 = 1 << 64
# slack for float times counted in periods: k * period + period may round
# away from (k + 1) * period
PERIOD_TOL = 1e-9


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
    period so the protocol stays parameter-sparse. Head knowledge, and so
    ``head_knowledge_ttl``, is kept only under ``direct_to_head_routing``,
    its one reader."""

    period: float = ranged(POSITIVE, 1.0)
    request_threshold: float = ranged(OPEN_UNIT, 0.5)
    accept_threshold: float = ranged(OPEN_UNIT, 0.5)
    social_distance: float = ranged(POSITIVE, 10.0)
    denial_ttl: Optional[float] = ranged(POSITIVE, None)
    head_knowledge_ttl: Optional[float] = ranged(POSITIVE, None)
    opinion_ttl: Optional[float] = ranged(POSITIVE, None)
    u_min: float = ranged(UNIT, 0.0)
    base_rate: float = ranged(UNIT, 0.2)
    detach_extension: bool = False
    stable_handover: bool = False
    direct_to_head_routing: bool = False

    def __post_init__(self) -> None:
        check(self)
        for name, periods in (("denial_ttl", 10), ("head_knowledge_ttl", 5), ("opinion_ttl", 3)):
            if getattr(self, name) is None:
                setattr(self, name, periods * self.period)


class StrongPairs(NamedTuple):
    """The pairs of one report whose opinion alone passes ``may_pass`` at
    ``request_threshold`` and ``u_min``, the settings it was made under."""

    request_threshold: float
    u_min: float
    pairs: tuple[tuple[int, int], ...]


# One emission is (message, unicast target or None for broadcast); a member
# message's also carries the StrongPairs of its index, which never goes on
# the wire.
Emission = list[tuple]
# (stored_at, {(lo, hi): opinion}, the strong pairs of that index); an own
# report's index is an ObservedIndex until the agent first reads its values
Report = tuple[float, PairIndex, tuple[tuple[int, int], ...]]


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
    """Protocol state and handlers for one agent. ``observed_heads`` (agent ->
    (its head, expiry)) is filled only under ``direct_to_head_routing``."""

    id: int
    config: ProtocolConfig
    kind: AgentKind = AgentKind.HUMAN_LINKED
    head_id: int = -1
    # Replaced, never changed in place: the messages an agent sends hold these
    # very sets. Equal sets share one object, so an unchanged cluster sends
    # the same set each period, and without ``detach_extension`` the two are
    # one object.
    members: frozenset[int] = frozenset()
    human_members: frozenset[int] = frozenset()
    # sender -> its retained reports, oldest first
    reports: dict[int, list[Report]] = field(default_factory=dict)
    pending_request: Optional[tuple[int, float]] = None
    denial_cache: dict[int, float] = field(default_factory=dict)
    observed_heads: dict[int, tuple[int, float]] = field(default_factory=dict)
    last_ch_received: float = 0.0
    last_member_msgs: dict[int, float] = field(default_factory=dict)
    membership_since: dict[int, float] = field(default_factory=dict)
    inconsistent_members: set[int] = field(default_factory=set)
    neighbors: dict[int, tuple[AgentKind, float, float]] = field(default_factory=dict)
    next_candidate: Optional[int] = None
    last_head_emit: float = float("-inf")
    stale_responses: int = 0

    def __post_init__(self) -> None:
        if self.head_id < 0:
            self.head_id = self.id
        self.members = frozenset(self.members or (self.id,))
        humans = frozenset(self.human_members)
        self.human_members = humans if humans and humans != self.members else self.members
        self.membership_since.setdefault(self.id, 0.0)

    @property
    def role(self) -> Role:
        """An agent heads a cluster exactly when it is its own head."""
        return Role.CLUSTER_HEAD if self.head_id == self.id else Role.MEMBER

    # ------------------------------------------------------------------
    # message dispatch

    def handle_message(
        self, msg: Message, sender: int, now: float, strong: Optional[StrongPairs] = None
    ) -> Emission:
        if isinstance(msg, HeadMsg):
            return self.handle_head_msg(msg, sender, now)
        if isinstance(msg, MemberMsg):
            self.handle_member_msg(msg, now, strong)
            return []
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
        if self.head_id != self.id and self._lapsed(self.last_ch_received, now):
            self._become_singleton(now)
        if self.head_id == self.id:
            self.recompute_membership(now)
            if not self._beyond(self.config.period, now - self.last_head_emit):
                self.last_head_emit = now
                return [(self._head_msg(), None)]
            return []
        return self._emit_member_msg(now, keep_alive_fallback=True)

    def _head_msg(self) -> HeadMsg:
        return HeadMsg(head=self.id, agent_members=self.members, human_members=self.human_members)

    def _emit_member_msg(self, now: float, keep_alive_fallback: bool) -> Emission:
        in_range = {self.id}
        for nid, (_, dist, _) in self.neighbors.items():
            if dist <= self.config.social_distance:
                in_range.add(nid)
        reports = self._own_reports()
        own: PairIndex = {}
        for _, index, _ in reports:
            own.update(index)
        opinions = {p: own[p] for p in sorted(own) if p[0] in in_range or p[1] in in_range}
        if opinions:
            # a pair is strong if the newest own report holding it says so
            newest = {p for _, index, pairs in reports for p in pairs if own[p] is index[p]}
            cfg = self.config
            pairs = tuple(sorted(newest.intersection(opinions)))
            strong = StrongPairs(cfg.request_threshold, cfg.u_min, pairs)
        elif keep_alive_fallback:
            # No current evidence: send a vacuous opinion about the own
            # head tie so the keep-alive still reaches the head.
            opinions = {sorted_pair(self.id, self.head_id): vacuous(self.config.base_rate)}
            strong = self.strong_pairs(opinions)
        else:
            return []
        return [(MemberMsg(self.id, self.head_id, opinions), None, strong)]

    def _evict(self, now: float) -> None:
        beyond, period, ttl = self._beyond, self.config.period, self.config.opinion_ttl
        for agent in [a for a, expiry in self.denial_cache.items() if not beyond(expiry, now)]:
            del self.denial_cache[agent]
        if self.config.direct_to_head_routing:
            for agent in [a for a, (_, exp) in self.observed_heads.items() if not beyond(exp, now)]:
                del self.observed_heads[agent]
        for sender in [s for s, r in self.reports.items() if beyond(now - r[-1][0], ttl)]:
            del self.reports[sender]
        for reports in self.reports.values():
            while beyond(now - reports[0][0], ttl):
                del reports[0]
        for n in [n for n, (_, _, t) in self.neighbors.items() if beyond(now - t, period)]:
            del self.neighbors[n]
        if self.pending_request is not None and self._lapsed(self.pending_request[1], now):
            self.pending_request = None

    def _lapsed(self, since: float, now: float) -> bool:
        """Whether more than one period has passed from ``since`` to ``now``."""
        return self._beyond(now - since, self.config.period)

    @staticmethod
    def _beyond(value: float, limit: float) -> bool:
        """Whether ``value`` exceeds ``limit`` by more than float rounding:
        every protocol time comparison goes through here."""
        return value > limit + PERIOD_TOL

    def _become_singleton(self, now: float) -> None:
        self.head_id = self.id
        self.members = self.human_members = frozenset((self.id,))
        self.pending_request = None
        self.last_member_msgs.clear()
        self.membership_since = {self.id: now}
        self.inconsistent_members.clear()

    # ------------------------------------------------------------------
    # opinion bookkeeping

    def apply_percept(
        self,
        index: PairIndex,
        neighbors: Iterable[tuple[int, AgentKind, float]],
        now: float,
        strong: Optional[StrongPairs] = None,
    ) -> None:
        self.store_report(self.id, index, now, strong)
        for nid, kind, dist in neighbors:
            if nid != self.id:
                self.neighbors[nid] = (kind, dist, now)

    def store_report(
        self, sender: int, index: PairIndex, now: float, strong: Optional[StrongPairs] = None
    ) -> None:
        """Retain ``index``, a report of ``sender``, as it is and read-only: every
        receiver of one broadcast holds the message's own index. Beside it go
        its strong pairs, those of ``strong`` if it was made under this agent's
        settings, else computed here."""
        if index:
            cfg = self.config
            if strong is None or strong[:2] != (cfg.request_threshold, cfg.u_min):
                strong = self.strong_pairs(index)
            reports = self.reports.setdefault(sender, [])
            # an older report whose pairs the new one all repeats is never read again
            while reports and reports[-1][1].keys() <= index.keys():
                reports.pop()
            reports.append((now, index, strong.pairs))

    def strong_pairs(self, index: PairIndex) -> StrongPairs:
        """The pairs of ``index`` whose opinion alone can carry a group
        opinion over ``request_threshold`` (see ``opinions.may_pass``)."""
        threshold, u_min = self.config.request_threshold, self.config.u_min
        pairs = tuple(p for p, op in index.items() if may_pass(op, threshold, u_min))
        return StrongPairs(threshold, u_min, pairs)

    def _own_reports(self, newest_only: bool = False) -> list[Report]:
        """This agent's retained reports, the index of each (or of the newest)
        a dict: an observed index is built here and the agent keeps the dict in
        its place, so that every later read is a dict read. An older report is
        read only for a pair that the newest lacks, and is otherwise left
        unbuilt."""
        reports = self.reports.get(self.id, [])
        for k in range(max(len(reports) - 1, 0) if newest_only else 0, len(reports)):
            stored_at, index, pairs = reports[k]
            if isinstance(index, ObservedIndex):
                reports[k] = (stored_at, index.as_dict(), pairs)
        return reports

    def _pair_view(self, pair: tuple[int, int]) -> Optional[Opinion]:
        """Fuse each sender's newest retained opinion of ``pair``."""
        u_min = self.config.u_min
        floored = []
        for reports in self.reports.values():
            for _, index, _ in reversed(reports):
                if pair in index:
                    floored.append(floor_uncertainty(index[pair], u_min))
                    break
        if len(floored) > 1:
            return fuse_averaging_multi(floored)
        return floored[0] if floored else None

    def group_opinion(
        self, left: Iterable[int], right: Iterable[int], fill_missing: bool
    ) -> Optional[Opinion]:
        """Fuse per-pair views over all cross pairs between the two id
        sets. Missing pairs contribute a vacuous opinion when
        ``fill_missing`` (aggregation happens before any thresholding)."""
        pairs = {(x, y) if x < y else (y, x) for x in left for y in right if x != y}
        self._own_reports(newest_only=True)
        views: list[Opinion] = []
        for pair in sorted(pairs):
            view = self._pair_view(pair)
            if view is not None:
                views.append(view)
            elif fill_missing:
                views.append(vacuous(self.config.base_rate))
        if len(views) > 1:
            return fuse_averaging_multi(views)
        return views[0] if views else None

    # ------------------------------------------------------------------
    # membership maintenance (heads)

    def recompute_membership(self, now: float) -> None:
        """Re-derive the member set before emitting a head message:
        a member is retained iff its keep-alive is fresh, it has not
        claimed a different head, and the group opinion about it still
        passes the acceptance threshold."""
        if self.head_id != self.id:
            return
        cfg = self.config
        keep = {self.id}
        for m in sorted(self.members):
            if m == self.id or m in self.inconsistent_members:
                continue
            seen = self.last_member_msgs.get(m)
            if seen is None or self._lapsed(seen, now):
                continue
            # the cross pairs leave out (m, m)
            group = self.group_opinion([m], self.members, fill_missing=True)
            if group is not None and decide(group, cfg.accept_threshold):
                keep.add(m)
        self.inconsistent_members.clear()
        for gone in [m for m in self.membership_since if m not in keep]:
            del self.membership_since[gone]
        for gone in [m for m in self.last_member_msgs if m not in keep]:
            del self.last_member_msgs[gone]
        members = humans = frozenset(keep)
        if cfg.detach_extension:
            for nid, (kind, _, _) in self.neighbors.items():
                if kind is not AgentKind.HUMAN_WITHOUT_AGENT or nid in members:
                    continue
                group = self.group_opinion([nid], keep, fill_missing=True)
                if group is not None and decide(group, cfg.accept_threshold):
                    humans = humans | {nid}
        self._set_members(members, humans)

    def _set_members(self, members: frozenset[int], humans: frozenset[int]) -> None:
        """Replace the member sets. A set equal to the one it replaces keeps
        the old object, and human members equal to the members are that object."""
        if members != self.members:
            self.members = members
        if humans == self.members:
            self.human_members = self.members
        elif humans != self.human_members:
            self.human_members = humans

    # ------------------------------------------------------------------
    # request sending (cluster heads)

    def get_candidate(self, now: float) -> Optional[int]:
        """Pick the most promising agent (or, via referral and logged head
        messages, cluster head) to ask for a joint social situation."""
        # opinion providers are heads with neighbours that never ask
        if self.kind is not AgentKind.HUMAN_LINKED:
            return None
        if self.head_id != self.id or self.pending_request is not None:
            return None
        cfg = self.config
        members = self.members
        if self.next_candidate is not None:
            target = self.next_candidate
            self.next_candidate = None
            if target != self.id and target not in members and not self._denied(target, now):
                return target
        # A group opinion of the members about an outsider fuses floored views
        # of their cross pairs, so it can pass only if a strong pair links the
        # outsider to a member; no other neighbour is evaluated.
        linked = set()
        for reports in self.reports.values():
            for _, _, pairs in reports:
                for lo, hi in pairs:
                    if lo in members:
                        if hi not in members:
                            linked.add(hi)
                    elif hi in members:
                        linked.add(lo)
        best: Optional[int] = None
        best_exp = -1.0
        for nid in sorted(linked):
            seen = self.neighbors.get(nid)
            if seen is None:
                continue
            kind, dist, _ = seen
            if (
                kind is not AgentKind.HUMAN_LINKED
                or dist > cfg.social_distance
                or self._denied(nid, now)
            ):
                continue
            group = self.group_opinion(members, [nid], fill_missing=False)
            if group is None or not decide(group, cfg.request_threshold):
                continue
            exp = expectation(group)
            if exp > best_exp:
                best, best_exp = nid, exp
        if best is None:
            return None
        if cfg.direct_to_head_routing:
            known = self.observed_heads.get(best)
            if known is not None and self._beyond(known[1], now) and known[0] != best:
                head = known[0]
                if head != self.id and head not in self.members and not self._denied(head, now):
                    return head
        return best

    def _denied(self, agent: int, now: float) -> bool:
        expiry = self.denial_cache.get(agent)
        return expiry is not None and self._beyond(expiry, now)

    def send_request(self, target: int, now: float) -> Emission:
        if self.pending_request is not None:
            raise BusyPendingError(f"agent {self.id} already awaits {self.pending_request[0]}")
        self.pending_request = (target, now)
        return [(RequestMsg(head=self.id, members=self.members), target)]

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
        if self.head_id != self.id:
            return [
                (
                    ResponseMsg(
                        self.id,
                        accepted=False,
                        forward_to=self.head_id,
                        forward_members=self.members,
                    ),
                    req.head,
                )
            ]
        if self.check_for_social_situation(req, now):
            newcomers = (set(req.members) | {req.head}) - self.members
            for m in newcomers:
                self.last_member_msgs.setdefault(m, now)
                self.membership_since.setdefault(m, now)
            self._set_members(self.members | newcomers, self.human_members | newcomers)
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
            self.head_id = res.responder
            joined = {res.responder}
            self._set_members(self.members | joined, self.human_members | joined)
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

    def handle_member_msg(
        self, msg: MemberMsg, now: float, strong: Optional[StrongPairs] = None
    ) -> None:
        """Store the sender's report with ``strong``, the StrongPairs its sender
        sent beside it (none for a message read back from a log)."""
        self.store_report(msg.sender, msg.opinions, now, strong)
        if self.config.direct_to_head_routing:
            self.observed_heads[msg.sender] = (msg.head, now + self.config.head_knowledge_ttl)
        if self.head_id == self.id and msg.sender in self.members:
            if msg.head == self.id:
                self.last_member_msgs[msg.sender] = now
            else:
                self.inconsistent_members.add(msg.sender)

    def handle_head_msg(self, msg: HeadMsg, sender: int, now: float) -> Emission:
        if self.config.direct_to_head_routing:
            known = (msg.head, now + self.config.head_knowledge_ttl)
            self.observed_heads.update(dict.fromkeys((msg.head, *msg.agent_members), known))
        if self.kind is AgentKind.OPINION_PROVIDER:
            return []
        if msg.head == self.id:
            if self.head_id != self.id and sender == self.head_id:
                # Our departing head nominated us as its replacement.
                self._assume_headship(msg, now)
                self.last_head_emit = now
                return [(self._head_msg(), None)]
            return []
        # not our own id, so the head we are a member of
        if msg.head == self.head_id:
            if self.id in msg.agent_members:
                self.last_ch_received = now
                self._adopt_view(msg)
            else:
                self._become_singleton(now)
            return []
        if self.id in msg.agent_members:
            if self.head_id != self.id or self.members == {self.id}:
                # A foreign head lists us: either a merge we joined through
                # our former head or a handover relay. Adopt the agreed view.
                self.head_id = msg.head
                self.last_ch_received = now
                self.pending_request = None
                self.last_member_msgs.clear()
                self._adopt_view(msg)
        return []

    def _adopt_view(self, msg: HeadMsg) -> None:
        """Take over the message's view, sharing its sets where they list this
        agent already."""
        members = msg.agent_members
        if self.id not in members:
            members = members | {self.id}
        humans = msg.human_members
        if not members <= humans:
            humans = humans | members
        self._set_members(members, humans)

    def _assume_headship(self, msg: HeadMsg, now: float) -> None:
        self.head_id = self.id
        self._adopt_view(msg)
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
                    agent_members=self.members - {self.id},
                    human_members=self.human_members - {self.id},
                ),
                None,
            )
        ]


def concerned_receivers(
    msg: HeadMsg, receivers: tuple[int, ...], agents: dict[int, Agent]
) -> tuple[int, ...]:
    """The receivers of ``msg`` for which ``Agent.handle_head_msg`` is not a
    no-op: its head, the agents it lists, the agents whose head it is, and
    every agent that keeps head knowledge (``direct_to_head_routing``). The
    third rule needs no exception for opinion providers: each heads itself.
    A handler changes only its own agent, so one test per emission, made
    when the emission is delivered, holds for all of its receivers."""
    head, listed = msg.head, msg.agent_members
    kept = []
    for r in receivers:
        agent = agents.get(r)
        if agent is not None and (
            agent.head_id == head
            or r == head
            or r in listed
            or agent.config.direct_to_head_routing
        ):
            kept.append(r)
    return tuple(kept)
