"""State machine tests: roles, merging, timeouts, conflicts, extensions."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socsim.messages import HeadMsg, MemberMsg, RequestMsg, ResponseMsg
from socsim.mobility import TraceFrame
from socsim.netsim import NetConfig, Network
from socsim.opinions import (
    Opinion,
    decide,
    expectation,
    floor_uncertainty,
    fuse_averaging_multi,
    vacuous,
)
from socsim.percept import ObservedIndex, PerceptConfig, observe_period
from socsim.protocol import (
    Agent,
    AgentKind,
    PERIOD_TOL,
    BusyPendingError,
    NoMembersError,
    ProtocolConfig,
    Role,
    StrongPairs,
    concerned_receivers,
    fnv1a64,
    resolve_conflict,
)

from conftest import opinions, range_table

STRONG = Opinion(0.9, 0.05, 0.05, 0.2)
WEAK = Opinion(0.05, 0.9, 0.05, 0.2)


def make_agent(aid=1, kind=AgentKind.HUMAN_LINKED, **cfg_kwargs) -> Agent:
    return Agent(id=aid, config=ProtocolConfig(**cfg_kwargs), kind=kind)


def seed_neighbor(agent, nid, dist=1.0, kind=AgentKind.HUMAN_LINKED, now=0.0, opinion=STRONG):
    index = {(min(agent.id, nid), max(agent.id, nid)): opinion} if opinion else {}
    agent.apply_percept(index, ((nid, kind, dist),), now)


class TestTick:
    def test_fresh_agent_broadcasts_unary_cluster(self):
        agent = make_agent(5)
        emissions = agent.tick(0.0)
        assert emissions == [(HeadMsg(5, frozenset({5}), frozenset({5})), None)]

    def test_member_reverts_after_silent_head(self):
        agent = make_agent(2)
        agent.head_id = 9
        agent.members = frozenset({2, 9})
        agent.last_ch_received = 0.0
        agent.tick(1.0)
        assert agent.role is Role.MEMBER  # exactly one period: still fine
        agent.tick(2.0)
        assert agent.role is Role.CLUSTER_HEAD
        assert agent.members == {2}

    def test_member_emits_stored_in_range_pairs(self):
        agent = make_agent(1)
        agent.head_id = 4
        agent.members = frozenset({1, 4})
        agent.last_ch_received = 0.0
        agent.apply_percept(
            {(1, 4): STRONG, (1, 2): STRONG, (2, 4): WEAK},
            ((4, AgentKind.HUMAN_LINKED, 1.0), (2, AgentKind.HUMAN_LINKED, 2.0)),
            0.0,
        )
        emissions = agent.tick(0.5)
        [(msg, target, strong)] = emissions
        assert target is None
        assert isinstance(msg, MemberMsg)
        assert msg.head == 4
        assert sorted(msg.opinions) == [(1, 2), (1, 4), (2, 4)]
        assert strong == StrongPairs(0.5, 0.0, ((1, 2), (1, 4)))

    def test_member_with_empty_store_sends_vacuous_keep_alive(self):
        agent = make_agent(1)
        agent.head_id = 4
        agent.members = frozenset({1, 4})
        agent.last_ch_received = 0.0
        [(msg, _, _)] = agent.tick(0.5)
        assert isinstance(msg, MemberMsg)
        assert msg.opinions == {(1, 4): vacuous(agent.config.base_rate)}

    def test_opinion_store_eviction(self):
        agent = make_agent(1, opinion_ttl=3.0)
        agent.apply_percept({(1, 2): STRONG}, ((2, AgentKind.HUMAN_LINKED, 1.0),), 0.0)
        agent.tick(2.0)
        assert agent._pair_view((1, 2)) == STRONG
        agent.tick(4.0)
        assert agent._pair_view((1, 2)) is None
        assert agent.reports == {}

    def test_head_emits_at_most_once_per_period(self):
        agent = make_agent(1)
        assert agent.tick(0.0)
        assert agent.tick(0.0) == []
        assert agent.tick(1.0)


class TestShortPeriodTimeouts:
    """At period 0.1, k * 0.1 + 0.1 can round above (k + 1) * 0.1; every
    one-period timeout must still allow exactly one period."""

    STEPS = range(1, 100)

    def test_pending_request_lasts_one_period(self):
        for k in self.STEPS:
            agent = make_agent(1, period=0.1)
            agent.send_request(2, k * 0.1)
            agent.tick((k + 1) * 0.1)
            assert agent.pending_request == (2, k * 0.1), k
            agent.tick((k + 2) * 0.1)
            assert agent.pending_request is None, k

    def test_member_keeps_head_for_one_period(self):
        for k in self.STEPS:
            agent = make_agent(2, period=0.1)
            agent.head_id = 9
            agent.members = frozenset({2, 9})
            agent.last_ch_received = k * 0.1
            agent.tick((k + 1) * 0.1)
            assert agent.role is Role.MEMBER, k

    def test_neighbor_kept_for_one_period(self):
        for k in self.STEPS:
            agent = make_agent(1, period=0.1)
            seed_neighbor(agent, 2, now=k * 0.1)
            agent.tick((k + 1) * 0.1)
            assert 2 in agent.neighbors, k

    def test_keep_alive_fresh_for_one_period(self):
        for k in self.STEPS:
            agent = make_agent(5, period=0.1)
            agent.members = frozenset({5, 7})
            agent.last_member_msgs[7] = k * 0.1
            agent.store_report(5, {(5, 7): STRONG}, k * 0.1)
            agent.recompute_membership((k + 1) * 0.1)
            assert agent.members == {5, 7}, k


class TestShortPeriodTtls:
    """At period 0.1 the default TTLs last exactly 10 (denial), 5 (head
    knowledge) and 3 (opinion) periods from every start time k * 0.1."""

    STEPS = range(1, 100)

    @staticmethod
    def first_gone(agent, k, held):
        """Periods after k until the first tick after which ``held`` fails."""
        for j in range(1, 20):
            now = (k + j) * 0.1
            agent.tick(now)
            if not held(now):
                return j
        return None

    def test_denial_lasts_ten_periods(self):
        for k in self.STEPS:
            agent = make_agent(1, period=0.1)
            agent.send_request(9, k * 0.1)
            agent.handle_response(ResponseMsg(9, False), k * 0.1)
            assert agent._denied(9, (k + 9) * 0.1) and not agent._denied(9, (k + 10) * 0.1), k

            def held(now):
                assert agent._denied(9, now) == (9 in agent.denial_cache)
                return 9 in agent.denial_cache

            assert self.first_gone(agent, k, held) == 10, k

    def test_head_knowledge_lasts_five_periods(self):
        for k in self.STEPS:
            agent = make_agent(1, period=0.1, direct_to_head_routing=True)
            listed = frozenset({7, 8})
            agent.handle_head_msg(HeadMsg(7, listed, listed), 7, k * 0.1)

            def held(now):
                return 7 in agent.observed_heads and 8 in agent.observed_heads

            assert self.first_gone(agent, k, held) == 5, k

    def test_opinion_read_for_three_periods(self):
        for k in self.STEPS:
            agent = make_agent(1, period=0.1)
            agent.store_report(2, {(2, 3): STRONG}, k * 0.1)

            def held(now):
                return agent._pair_view((2, 3)) == STRONG

            # still read three periods after it was stored, gone at four
            assert self.first_gone(agent, k, held) == 4, k


class TestGetCandidate:
    def test_no_neighbors_no_candidate(self):
        agent = make_agent(1)
        assert agent.get_candidate(0.0) is None

    def test_single_strong_candidate(self):
        agent = make_agent(1)
        seed_neighbor(agent, 9)
        assert agent.get_candidate(0.0) == 9

    def test_denied_candidate_skipped(self):
        agent = make_agent(1)
        seed_neighbor(agent, 9)
        agent.denial_cache[9] = 5.0
        assert agent.get_candidate(0.0) is None
        # after expiry the candidate qualifies again
        assert agent.get_candidate(6.0) == 9

    def test_below_threshold_skipped(self):
        agent = make_agent(1)
        seed_neighbor(agent, 9, opinion=WEAK)
        assert agent.get_candidate(0.0) is None

    def test_out_of_social_range_skipped(self):
        agent = make_agent(1, social_distance=10.0)
        seed_neighbor(agent, 9, dist=11.0)
        assert agent.get_candidate(0.0) is None

    def test_best_expectation_wins_ties_to_smaller_id(self):
        agent = make_agent(1)
        seed_neighbor(agent, 9, opinion=Opinion(0.7, 0.2, 0.1, 0.2))
        seed_neighbor(agent, 4, opinion=STRONG)
        assert agent.get_candidate(0.0) == 4
        agent2 = make_agent(1)
        seed_neighbor(agent2, 9, opinion=STRONG)
        seed_neighbor(agent2, 4, opinion=STRONG)
        assert agent2.get_candidate(0.0) == 4

    def test_non_human_kinds_never_candidates(self):
        agent = make_agent(1)
        seed_neighbor(agent, 8, kind=AgentKind.OPINION_PROVIDER)
        seed_neighbor(agent, 9, kind=AgentKind.HUMAN_WITHOUT_AGENT)
        assert agent.get_candidate(0.0) is None

    def test_opinion_provider_never_asks(self):
        agent = make_agent(5, kind=AgentKind.OPINION_PROVIDER)
        seed_neighbor(agent, 9)
        agent.next_candidate = 9
        assert agent.get_candidate(0.0) is None
        # the referral stays untouched, as if the provider were never asked
        assert agent.next_candidate == 9

    def test_direct_to_head_routing(self):
        agent = make_agent(1, direct_to_head_routing=True)
        seed_neighbor(agent, 9)
        agent.handle_head_msg(HeadMsg(3, frozenset({3, 9}), frozenset({3, 9})), 3, 0.0)
        assert agent.get_candidate(0.0) == 3

    def test_routing_off_requests_member_directly(self):
        agent = make_agent(1, direct_to_head_routing=False)
        seed_neighbor(agent, 9)
        agent.handle_head_msg(HeadMsg(3, frozenset({3, 9}), frozenset({3, 9})), 3, 0.0)
        assert agent.get_candidate(0.0) == 9


class TestSendRequest:
    def test_unary_request_carries_own_cluster(self):
        agent = make_agent(5)
        [(msg, target)] = agent.send_request(9, 0.0)
        assert target == 9
        assert msg == RequestMsg(5, frozenset({5}))
        assert agent.pending_request == (9, 0.0)

    def test_request_carries_all_members(self):
        agent = make_agent(5)
        agent.members = frozenset({5, 7})
        [(msg, _)] = agent.send_request(9, 0.0)
        assert msg.members == frozenset({5, 7})

    def test_second_request_rejected_while_pending(self):
        agent = make_agent(5)
        agent.send_request(9, 0.0)
        with pytest.raises(BusyPendingError):
            agent.send_request(3, 0.1)


class TestHandleRequest:
    def test_member_forwards_to_head(self):
        agent = make_agent(7)
        agent.head_id = 5
        agent.members = frozenset({5, 7})
        [(msg, target)] = agent.handle_request(RequestMsg(2, frozenset({2})), 0.0)
        assert target == 2
        assert msg == ResponseMsg(7, False, forward_to=5, forward_members=frozenset({5, 7}))

    def test_head_accepts_and_merges(self):
        agent = make_agent(5)
        seed_neighbor(agent, 9)
        [(msg, _)] = agent.handle_request(RequestMsg(9, frozenset({9})), 0.0)
        assert msg == ResponseMsg(5, True)
        assert agent.members == {5, 9}
        assert agent.role is Role.CLUSTER_HEAD

    def test_head_declines_low_group_opinion(self):
        agent = make_agent(5)
        seed_neighbor(agent, 9, opinion=WEAK)
        [(msg, _)] = agent.handle_request(RequestMsg(9, frozenset({9})), 0.0)
        assert msg == ResponseMsg(5, False)
        assert agent.members == {5}

    def test_opinion_provider_never_responds(self):
        agent = make_agent(5, kind=AgentKind.OPINION_PROVIDER)
        assert agent.handle_request(RequestMsg(9, frozenset({9})), 0.0) == []


class TestCheckForSocialSituation:
    def test_vacuous_low_base_rate_declines(self):
        agent = make_agent(5, base_rate=0.1, accept_threshold=0.5)
        assert not agent.check_for_social_situation(RequestMsg(9, frozenset({9})), 0.0)

    def test_four_strong_outvote_one_weak(self):
        # aggregation precedes the threshold: one mild dissent among four
        # confident supporters does not block the situation
        agent = make_agent(1, accept_threshold=0.5)
        agent.members = frozenset({1, 2, 3, 4})
        strong = Opinion(0.9, 0.05, 0.05, 0.2)
        dissent = Opinion(0.2, 0.7, 0.1, 0.2)
        for m in (1, 2, 3, 4):
            agent.store_report(m, {(m, 9): strong if m != 4 else dissent}, 0.0)
        # direct n-ary fusion oracle over the same opinions
        fused = fuse_averaging_multi([strong, strong, strong, dissent])
        assert decide(fused, 0.5)
        assert agent.check_for_social_situation(RequestMsg(9, frozenset({9})), 0.0)

    def test_majority_vote_would_disagree(self):
        # late-discretization fixture: individually thresholded votes say
        # no (3 of 4 against), the fused opinion says yes
        agent = make_agent(1, accept_threshold=0.5, base_rate=0.5)
        confident_yes = Opinion(0.9, 0.05, 0.05, 0.5)
        hesitant_no = Opinion(0.15, 0.25, 0.6, 0.5)
        votes = [confident_yes, hesitant_no, hesitant_no, hesitant_no]
        yes_votes = sum(decide(op, 0.5) for op in votes)
        assert yes_votes * 2 < len(votes)  # majority against
        for sender, op in enumerate(votes):
            agent.store_report(sender + 10, {(1, 9): op}, 0.0)
        assert agent.check_for_social_situation(RequestMsg(9, frozenset({9})), 0.0)

    def test_singleton_equals_single_decide(self):
        agent = make_agent(5, accept_threshold=0.5)
        op = Opinion(0.55, 0.25, 0.2, 0.2)
        agent.store_report(5, {(5, 9): op}, 0.0)
        assert agent.check_for_social_situation(
            RequestMsg(9, frozenset({9})), 0.0
        ) == decide(op, 0.5)

    def test_u_min_floor_weakens_confident_opinions(self):
        # with a floor, a near-dogmatic yes cannot single-handedly
        # dominate two moderate dissenters
        dominant = Opinion(0.99, 0.01, 0.0, 0.5)
        dissent = Opinion(0.1, 0.6, 0.3, 0.5)
        without_floor = make_agent(1, base_rate=0.5, u_min=0.0)
        with_floor = make_agent(1, base_rate=0.5, u_min=0.3)
        for agent in (without_floor, with_floor):
            agent.store_report(11, {(1, 9): dominant}, 0.0)
            agent.store_report(12, {(1, 9): dissent}, 0.0)
            agent.store_report(13, {(1, 9): dissent}, 0.0)
        req = RequestMsg(9, frozenset({9}))
        assert without_floor.check_for_social_situation(req, 0.0)
        assert not with_floor.check_for_social_situation(req, 0.0)


class TestHandleResponse:
    def test_accept_demotes_requester(self):
        agent = make_agent(5)
        agent.send_request(9, 0.0)
        agent.handle_response(ResponseMsg(9, True), 0.1)
        assert agent.role is Role.MEMBER
        assert agent.head_id == 9
        assert agent.pending_request is None

    def test_forward_with_feasible_merge_sets_next_candidate(self):
        agent = make_agent(5)
        agent.store_report(5, {(3, 5): STRONG}, 0.0)
        agent.store_report(5, {(5, 9): STRONG}, 0.0)
        agent.send_request(9, 0.0)
        agent.handle_response(
            ResponseMsg(9, False, forward_to=3, forward_members=frozenset({3, 9})), 0.1
        )
        assert agent.next_candidate == 3
        assert 9 not in agent.denial_cache
        assert agent.get_candidate(0.2) == 3

    def test_forward_with_infeasible_merge_denies(self):
        agent = make_agent(5, base_rate=0.1)
        agent.send_request(9, 0.0)
        agent.handle_response(
            ResponseMsg(9, False, forward_to=3, forward_members=frozenset({3, 9})), 0.1
        )
        assert agent.next_candidate is None
        assert 9 in agent.denial_cache

    def test_flat_decline_populates_denial_cache(self):
        agent = make_agent(5, denial_ttl=10.0)
        agent.send_request(9, 0.0)
        agent.handle_response(ResponseMsg(9, False), 0.5)
        assert agent.denial_cache[9] == pytest.approx(10.5)

    def test_stale_response_ignored(self):
        agent = make_agent(5)
        before = agent.stale_responses
        agent.handle_response(ResponseMsg(9, True), 0.0)
        assert agent.role is Role.CLUSTER_HEAD
        assert agent.stale_responses == before + 1


class TestHandleMemberMsg:
    def test_keep_alive_refresh(self):
        agent = make_agent(5)
        agent.members = frozenset({5, 7})
        agent.last_member_msgs[7] = 0.0
        agent.handle_member_msg(MemberMsg(7, 5, {(5, 7): STRONG}), 3.0)
        assert agent.last_member_msgs[7] == 3.0

    def test_false_head_claim_marks_inconsistent(self):
        agent = make_agent(5)
        agent.members = frozenset({5, 7})
        agent.last_member_msgs[7] = 0.0
        agent.handle_member_msg(MemberMsg(7, 4, {(5, 7): STRONG}), 0.5)
        assert 7 in agent.inconsistent_members
        agent.recompute_membership(1.0)
        assert agent.members == {5}

    def test_provider_opinion_stored_but_never_member(self):
        agent = make_agent(5)
        agent.handle_member_msg(MemberMsg(100, 100, {(2, 3): STRONG}), 0.0)
        assert agent.reports[100] == [(0.0, {(2, 3): STRONG}, ((2, 3),))]
        assert 100 not in agent.members

    @pytest.mark.parametrize("threshold,u_min", [(0.5, 0.0), (0.9, 0.0), (0.5, 0.6)])
    def test_strong_pairs_trusted_only_under_equal_settings(self, threshold, u_min):
        sender = make_agent(7)
        sender.head_id, sender.members = 5, {5, 7}
        sender.last_ch_received = 0.0
        near = [(n, AgentKind.HUMAN_LINKED, 1.0) for n in (5, 8, 9)]
        index = {(5, 7): STRONG, (7, 8): Opinion(0.6, 0.3, 0.1, 0.2), (7, 9): WEAK}
        sender.apply_percept(index, near, 0.0)
        [(msg, _, strong)] = sender.tick(0.5)
        assert strong == StrongPairs(0.5, 0.0, ((5, 7), (7, 8)))
        receiver = make_agent(5, request_threshold=threshold, u_min=u_min)
        receiver.handle_message(msg, 7, 0.5, strong)
        [(_, index, pairs)] = receiver.reports[7]
        assert index is msg.opinions
        assert pairs == receiver.strong_pairs(index).pairs
        assert pairs == {(0.5, 0.0): ((5, 7), (7, 8)), (0.9, 0.0): ((5, 7),), (0.5, 0.6): ()}[
            threshold, u_min
        ]

    def test_observed_heads_updated(self):
        agent = make_agent(5, direct_to_head_routing=True)
        agent.handle_member_msg(MemberMsg(7, 4, {(2, 3): STRONG}), 0.0)
        assert agent.observed_heads[7][0] == 4


class TestRecomputeMembership:
    def make_head_with_member(self, opinion=STRONG):
        agent = make_agent(5)
        agent.members = frozenset({5, 7})
        agent.last_member_msgs[7] = 0.0
        agent.membership_since[7] = 0.0
        agent.store_report(5, {(5, 7): opinion}, 0.0)
        return agent

    def test_fresh_positive_member_retained(self):
        agent = self.make_head_with_member()
        agent.recompute_membership(1.0)
        assert agent.members == {5, 7}

    def test_silent_member_excluded(self):
        agent = self.make_head_with_member()
        agent.recompute_membership(1.5)
        assert agent.members == {5}

    def test_negative_opinion_member_excluded(self):
        agent = self.make_head_with_member(opinion=Opinion(0.2, 0.7, 0.1, 0.2))
        agent.recompute_membership(1.0)
        assert agent.members == {5}

    def test_detach_extension_adds_agentless_humans(self):
        agent = make_agent(5, detach_extension=True)
        agent.members = frozenset({5, 7})
        agent.last_member_msgs[7] = 0.0
        agent.store_report(5, {(5, 7): STRONG}, 0.0)
        seed_neighbor(agent, 30, kind=AgentKind.HUMAN_WITHOUT_AGENT, opinion=None)
        agent.store_report(5, {(5, 30): STRONG}, 0.0)
        agent.store_report(7, {(7, 30): STRONG}, 0.0)
        agent.recompute_membership(0.5)
        assert agent.members == {5, 7}
        assert agent.human_members == {5, 7, 30}


class TestHandleHeadMsg:
    def make_member(self):
        agent = make_agent(7)
        agent.head_id = 5
        agent.members = frozenset({5, 7})
        agent.last_ch_received = 0.0
        return agent

    def test_own_head_refreshes_and_adopts(self):
        agent = self.make_member()
        agent.handle_head_msg(HeadMsg(5, frozenset({5, 7, 8}), frozenset({5, 7, 8})), 5, 2.0)
        assert agent.last_ch_received == 2.0
        assert agent.members == {5, 7, 8}

    def test_exclusion_reverts_to_singleton(self):
        agent = self.make_member()
        agent.handle_head_msg(HeadMsg(5, frozenset({5, 8}), frozenset({5, 8})), 5, 2.0)
        assert agent.role is Role.CLUSTER_HEAD
        assert agent.members == {7}

    def test_foreign_head_recorded(self):
        agent = make_agent(1, direct_to_head_routing=True)
        agent.handle_head_msg(HeadMsg(3, frozenset({3, 4, 8}), frozenset({3, 4, 8})), 3, 0.0)
        assert agent.observed_heads[4][0] == 3
        assert agent.observed_heads[8][0] == 3

    @pytest.mark.parametrize("kind", ["head", "member", "provider"])
    def test_unconcerned_head_msg_changes_nothing_without_routing(self, kind):
        # neither from the own head nor listing the receiver: with routing
        # off nothing reads such a message
        if kind == "member":
            agent = self.make_member()
        elif kind == "head":
            agent = make_agent(7)
            agent.members = frozenset({7, 8})
        else:
            agent = make_agent(7, kind=AgentKind.OPINION_PROVIDER)
        seed_neighbor(agent, 3)
        before = repr(vars(agent))
        msg = HeadMsg(3, frozenset({3, 4}), frozenset({3, 4}))
        assert agent.handle_message(msg, 3, 0.5) == []
        assert repr(vars(agent)) == before

    def test_merge_adoption_when_listed_by_foreign_head(self):
        agent = self.make_member()
        agent.handle_head_msg(HeadMsg(2, frozenset({2, 5, 7}), frozenset({2, 5, 7})), 2, 1.0)
        assert agent.head_id == 2
        assert agent.members == {2, 5, 7}

    def test_multi_member_head_ignores_foreign_claim(self):
        agent = make_agent(5)
        agent.members = frozenset({5, 7})
        agent.handle_head_msg(HeadMsg(2, frozenset({2, 5}), frozenset({2, 5})), 2, 1.0)
        assert agent.role is Role.CLUSTER_HEAD
        assert agent.head_id == 5

    def test_replacement_assumes_headship_and_emits(self):
        agent = self.make_member()
        emissions = agent.handle_head_msg(
            HeadMsg(7, frozenset({7, 8}), frozenset({7, 8})), 5, 1.0
        )
        assert agent.role is Role.CLUSTER_HEAD
        assert agent.head_id == 7
        [(msg, target)] = emissions
        assert isinstance(msg, HeadMsg) and msg.head == 7 and target is None


class TestResolveConflict:
    def test_symmetry(self):
        assert resolve_conflict(5, 9) == resolve_conflict(9, 5)

    def test_closure_over_random_pairs(self):
        rng = random.Random(1)
        for _ in range(1000):
            a, b = rng.randrange(2**64), rng.randrange(2**64)
            if a == b:
                continue
            assert resolve_conflict(a, b) in (a, b)

    def test_fnv1a_reference_vector(self):
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_golden_winner(self):
        # pinned regression value for the documented hash construction
        assert resolve_conflict(5, 9) == 5

    def test_same_id_rejected(self):
        with pytest.raises(ValueError):
            resolve_conflict(4, 4)


class TestMutualRequestConflict:
    def run_both_orders(self, first_receiver):
        cfg = ProtocolConfig()
        a, b = make_agent(1), make_agent(2)
        for agent, other in ((a, 2), (b, 1)):
            seed_neighbor(agent, other)
        req_a = a.send_request(2, 0.0)[0][0]
        req_b = b.send_request(1, 0.0)[0][0]
        responses = []
        if first_receiver == 2:
            responses += [(2, m) for m, _ in b.handle_request(req_a, 0.0)]
            responses += [(1, m) for m, _ in a.handle_request(req_b, 0.0)]
        else:
            responses += [(1, m) for m, _ in a.handle_request(req_b, 0.0)]
            responses += [(2, m) for m, _ in b.handle_request(req_a, 0.0)]
        for sender, msg in responses:
            target = a if sender == 2 else b
            target.handle_response(msg, 0.0)
        return a, b

    @pytest.mark.parametrize("first_receiver", [1, 2])
    def test_exactly_one_merged_head(self, first_receiver):
        a, b = self.run_both_orders(first_receiver)
        heads = [x for x in (a, b) if x.role is Role.CLUSTER_HEAD]
        members = [x for x in (a, b) if x.role is Role.MEMBER]
        assert len(heads) == 1 and len(members) == 1
        assert heads[0].members == {1, 2}
        assert members[0].head_id == heads[0].id


class TestHandover:
    def make_cluster_head(self, stable=True):
        agent = make_agent(1, stable_handover=stable)
        agent.members = frozenset({1, 2, 3})
        agent.human_members = frozenset({1, 2, 3})
        agent.membership_since.update({2: 0.0, 3: 5.0})
        return agent

    def test_longest_member_nominated(self):
        agent = self.make_cluster_head()
        [(msg, target)] = agent.handover_head(10.0)
        assert target is None
        assert msg == HeadMsg(2, frozenset({2, 3}), frozenset({2, 3}))

    def test_tie_breaks_to_smaller_id(self):
        agent = self.make_cluster_head()
        agent.membership_since.update({2: 0.0, 3: 0.0})
        [(msg, _)] = agent.handover_head(10.0)
        assert msg.head == 2

    def test_unary_cluster_has_nobody(self):
        agent = make_agent(1, stable_handover=True)
        with pytest.raises(NoMembersError):
            agent.handover_head(1.0)

    def test_disabled_flag_is_noop(self):
        agent = self.make_cluster_head(stable=False)
        assert agent.handover_head(10.0) == []


class TestConfig:
    @pytest.mark.parametrize("name", ["denial_ttl", "head_knowledge_ttl", "opinion_ttl"])
    @pytest.mark.parametrize("value", [0.0, -5.0, math.nan, math.inf])
    def test_ttl_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            ProtocolConfig(**{name: value})

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_social_distance_must_be_positive(self, value):
        with pytest.raises(ValueError, match="social_distance must be positive"):
            ProtocolConfig(social_distance=value)


class TestInvariants:
    def test_role_head_coherence_under_random_events(self):
        rng = random.Random(0)
        cfg = ProtocolConfig()
        agent = Agent(id=1, config=cfg)
        ops = [STRONG, WEAK, vacuous(cfg.base_rate)]
        for step in range(400):
            now = step * 0.5
            action = rng.randrange(6)
            if action == 0:
                agent.tick(now)
            elif action == 1:
                seed_neighbor(agent, rng.randrange(2, 8), now=now, opinion=rng.choice(ops))
            elif action == 2:
                agent.handle_request(
                    RequestMsg(rng.randrange(2, 8), frozenset({rng.randrange(2, 8)})), now
                )
            elif action == 3:
                agent.handle_response(
                    ResponseMsg(rng.randrange(2, 8), rng.random() < 0.5), now
                )
            elif action == 4:
                h = rng.randrange(2, 8)
                listed = frozenset({h} | ({1} if rng.random() < 0.5 else set()))
                agent.handle_head_msg(HeadMsg(h, listed, listed), h, now)
            else:
                agent.handle_member_msg(
                    MemberMsg(rng.randrange(2, 8), rng.randrange(2, 8), {(2, 3): STRONG}),
                    now,
                )
            assert (agent.role is Role.CLUSTER_HEAD) == (agent.head_id == agent.id)
            assert agent.id in agent.members
            assert agent.members <= agent.human_members or not cfg.detach_extension

    def test_role_cannot_be_assigned(self):
        agent = make_agent(1)
        with pytest.raises(AttributeError):
            agent.role = Role.MEMBER
        agent.head_id = 4
        assert agent.role is Role.MEMBER

    def test_determinism_identical_event_sequences(self):
        def run_once():
            agent = make_agent(1)
            outputs = []
            for step in range(50):
                now = float(step)
                seed_neighbor(agent, 2 + step % 3, now=now)
                outputs.append(agent.tick(now))
                outputs.append(
                    agent.handle_request(RequestMsg(9, frozenset({9})), now)
                )
            return outputs, agent.members, agent.role

        first, second = run_once(), run_once()
        assert first == second

    def test_bounded_state_million_tick_run(self):
        # TTL eviction must keep every cache plateaued over a 1e6-tick run;
        # routing keeps head knowledge, so its bound binds
        agent = make_agent(1, direct_to_head_routing=True)
        peak = [0, 0, 0, 0]
        late_peak = [0, 0, 0, 0]
        horizon = 1_000_000
        for step in range(horizon):
            now = float(step)
            if step % 5 == 0:
                seed_neighbor(agent, 2 + step % 12, now=now)
                agent.handle_member_msg(
                    MemberMsg(3 + step % 7, 3, {(2 + step % 12, 20 + step % 12): STRONG}),
                    now,
                )
            agent.tick(now)
            sizes = (
                sum(len(reports) for reports in agent.reports.values()),
                len(agent.denial_cache),
                len(agent.observed_heads),
                len(agent.neighbors),
            )
            target = peak if step < horizon // 10 else late_peak
            for k, value in enumerate(sizes):
                target[k] = max(target[k], value)
        # no monotone growth: the late peak never exceeds the early one
        assert late_peak <= peak
        # retained reports: at most ttl / period + 1 per distinct sender,
        # the agent itself and member senders 3..9
        senders = 1 + 7
        cfg = agent.config
        assert peak[0] <= senders * (cfg.opinion_ttl / cfg.period + 1)
        assert peak[1] <= 24 and peak[2] <= 24 and peak[3] <= 24


class PairIndexedAgent(Agent):
    """Scalar reference for the opinion store: one entry per (pair, sender),
    (lo, hi) -> sender -> (opinion, stored_at), overwritten on every
    report and scanned entry by entry on eviction."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.by_pair: dict[tuple[int, int], dict[int, tuple[Opinion, float]]] = {}

    def store_report(self, sender, index, now, strong=None):
        for pair, op in index.items():
            self.by_pair.setdefault(pair, {})[sender] = (op, now)

    def _pair_view(self, pair):
        by_sender = self.by_pair.get(pair)
        if not by_sender:
            return None
        u_min = self.config.u_min
        return fuse_averaging_multi([floor_uncertainty(op, u_min) for op, _ in by_sender.values()])

    def _evict(self, now):
        super()._evict(now)
        limit = self.config.opinion_ttl + PERIOD_TOL
        for pair, by_sender in list(self.by_pair.items()):
            for sender in [s for s, (_, t) in by_sender.items() if now - t > limit]:
                del by_sender[sender]
            if not by_sender:
                del self.by_pair[pair]

    def _emit_member_msg(self, now, keep_alive_fallback):
        in_range = {self.id}
        for nid, (_, dist, _) in self.neighbors.items():
            if dist <= self.config.social_distance:
                in_range.add(nid)
        out = {}
        for pair in sorted(self.by_pair):
            entry = self.by_pair[pair].get(self.id)
            if entry is not None and (pair[0] in in_range or pair[1] in in_range):
                out[pair] = entry[0]
        if not out:
            if not keep_alive_fallback:
                return []
            pair = (min(self.id, self.head_id), max(self.id, self.head_id))
            out = {pair: vacuous(self.config.base_rate)}
        return [(MemberMsg(self.id, self.head_id, out), None, self.strong_pairs(out))]


STORE_IDS = range(5)
# a report is a pair index: ascending, unique pairs, each with its opinion
reports_st = st.dictionaries(
    st.sampled_from([(lo, hi) for lo in STORE_IDS for hi in STORE_IDS if lo < hi]),
    opinions(base_rate=0.2),
    max_size=6,
)
# time advances in steps below, at and above the period and the TTLs;
# reads between ticks see stores a later tick would evict
gaps_st = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.5])
actions_st = st.one_of(
    st.tuples(st.just("tick"), gaps_st),
    st.tuples(
        st.just("percept"),
        gaps_st,
        reports_st,
        st.lists(st.tuples(st.sampled_from(STORE_IDS), st.sampled_from([1.0, 20.0])), max_size=3),
    ),
    st.tuples(
        st.just("member"),
        gaps_st,
        st.sampled_from([*STORE_IDS, 100]),
        st.sampled_from(STORE_IDS),
        reports_st,
    ),
    st.tuples(st.just("head"), gaps_st, st.sampled_from([0, 2, 3])),
    st.tuples(st.just("request"), gaps_st, st.sampled_from([0, 2, 3])),
)


class TestSenderIndexedStore:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from([AgentKind.HUMAN_LINKED, AgentKind.OPINION_PROVIDER]),
        u_min=st.sampled_from([0.0, 0.2, 0.6]),
        opinion_ttl=st.sampled_from([0.5, 1.0, 3.0]),
        actions=st.lists(actions_st, max_size=40),
    )
    def test_matches_pair_indexed_reference(self, kind, u_min, opinion_ttl, actions):
        cfg = dict(u_min=u_min, opinion_ttl=opinion_ttl)
        agent = Agent(id=1, config=ProtocolConfig(**cfg), kind=kind)
        ref = PairIndexedAgent(id=1, config=ProtocolConfig(**cfg), kind=kind)
        now = 0.0
        for action in actions:
            name, gap, *args = action
            now += gap
            outputs = []
            for a in (agent, ref):
                if name == "tick":
                    outputs.append(a.tick(now))
                elif name == "percept":
                    report, near = args
                    a.apply_percept(report, [(n, AgentKind.HUMAN_LINKED, d) for n, d in near], now)
                elif name == "member":
                    sender, head, report = args
                    a.handle_member_msg(MemberMsg(sender, head, report), now)
                elif name == "head":
                    (head,) = args
                    listed = frozenset({head, 1})
                    outputs.append(a.handle_head_msg(HeadMsg(head, listed, listed), head, now))
                else:
                    (head,) = args
                    outputs.append(a.handle_request(RequestMsg(head, frozenset({head, 4})), now))
            # repr is exact for floats and tells -0.0 from 0.0: bit for bit
            if outputs:
                assert repr(outputs[0]) == repr(outputs[1]), action
            for lo in STORE_IDS:
                for hi in STORE_IDS[lo + 1 :]:
                    assert repr(agent._pair_view((lo, hi))) == repr(ref._pair_view((lo, hi)))

    def test_broadcast_receivers_hold_the_message_index(self):
        # no receiver copies or rebuilds a report: each holds the message's own dict
        agents = {aid: make_agent(aid) for aid in (1, 2, 3, 4)}
        positions = {aid: (float(aid), 0.0) for aid in agents}
        member = agents[1]
        member.head_id, member.members = 2, {1, 2}
        seed_neighbor(member, 2)
        net = Network(NetConfig())
        net.step(0.0, range_table(positions, agents, net.config.comm_range), agents)
        [entry] = [e for e in net.log.entries if isinstance(e.message, MemberMsg)]
        assert entry.delivered_to == (2, 3, 4)
        # the log decodes its entries, so the receivers are checked against each other
        held = [agents[r].reports[1][-1][1] for r in entry.delivered_to]
        assert all(index is held[0] for index in held)
        assert held[0] == entry.message.opinions


class TestLazyOwnReports:
    def test_lone_head_builds_none_of_its_reports(self):
        # 1 and 2 face each other 0.8 m apart and merge; 3 stands 4 m away,
        # sees them both, and no pair of its own is strong
        frame = TraceFrame(
            0.0,
            (1, 2, 3),
            np.array([[0.0, 0.0], [0.8, 0.0], [0.4, 4.0]]),
            np.array([0.0, math.pi, 0.0]),
        )
        agents = {aid: make_agent(aid) for aid in frame.ids}
        positions = {aid: tuple(p) for aid, p in zip(frame.ids, frame.pos.tolist())}
        net = Network(NetConfig())
        rng = np.random.default_rng(0)
        lone = []
        for k in range(8):
            now = float(k)
            observed = observe_period(frame, sorted(agents), PerceptConfig(), rng)
            for aid, (index, near, strong) in observed.items():
                neighbours = [(n, AgentKind.HUMAN_LINKED, d) for n, d in near]
                agents[aid].apply_percept(index, neighbours, now, StrongPairs(0.5, 0.0, strong))
            lone.append(observed[3][0])
            net.step(now, range_table(positions, agents, net.config.comm_range), agents)
        assert agents[1].members == agents[2].members == {1, 2}
        assert agents[3].members == {3} and agents[3].head_id == 3
        assert observed[3][2] == ((1, 2),)
        assert all(index and not index.is_built for index in lone)
        # the member broadcasts its index, so its newest report is a dict now
        member = agents[1] if agents[1].head_id == 2 else agents[2]
        [(_, index, _)] = member.reports[member.id]
        assert isinstance(index, dict) and not isinstance(index, ObservedIndex)


def generic_group_opinion(agent, left, right, fill_missing):
    """``group_opinion`` in its generic form: sorted unique cross pairs, every
    view fused, a lone one too, and a vacuous fill for missing pairs."""
    views = []
    for pair in sorted({(min(x, y), max(x, y)) for x in left for y in right if x != y}):
        view = agent._pair_view(pair)
        if view is not None:
            views.append(view)
        elif fill_missing:
            views.append(vacuous(agent.config.base_rate))
    return fuse_averaging_multi(views) if views else None


id_sets_st = st.frozensets(st.sampled_from(STORE_IDS), max_size=3)


class TestGroupOpinion:
    @settings(max_examples=300, deadline=None)
    @given(
        u_min=st.sampled_from([0.0, 0.2, 0.6]),
        fill_missing=st.booleans(),
        stores=st.lists(st.tuples(st.sampled_from([*STORE_IDS, 100]), reports_st), max_size=8),
        left=id_sets_st,
        right=st.one_of(id_sets_st, st.just(None)),
    )
    def test_matches_generic_form(self, u_min, fill_missing, stores, left, right):
        # right None draws the equal set; the reference fuses every view
        right = left if right is None else right
        agent = make_agent(1, u_min=u_min)
        ref = PairIndexedAgent(id=1, config=ProtocolConfig(u_min=u_min))
        for sender, report in stores:
            for a in (agent, ref):
                a.store_report(sender, report, 0.0)
        assert repr(agent.group_opinion(left, right, fill_missing)) == repr(
            generic_group_opinion(ref, left, right, fill_missing)
        )


def unpruned_candidate(agent, now):
    """The request phase's search without pruning: every eligible neighbour
    in ascending id order, each with its group opinion fused in full."""
    cfg = agent.config
    best, best_exp = None, -1.0
    for nid in sorted(agent.neighbors):
        kind, dist, _ = agent.neighbors[nid]
        if (
            nid in agent.members
            or kind is not AgentKind.HUMAN_LINKED
            or dist > cfg.social_distance
            or agent._denied(nid, now)
        ):
            continue
        group = agent.group_opinion(agent.members, [nid], fill_missing=False)
        if group is None or not decide(group, cfg.request_threshold):
            continue
        if expectation(group) > best_exp:
            best, best_exp = nid, expectation(group)
    return best


CANDIDATE_IDS = range(7)


@st.composite
def bound_opinions(draw, threshold):
    """One base rate throughout: generic and dogmatic opinions, and opinions
    whose expectation b + 0.5 u is exactly ``threshold``."""
    exact = [Opinion(threshold, 1.0 - threshold, 0.0, 0.5)]
    for u in (0.2, 0.5):
        b = threshold - 0.5 * u
        assert b + 0.5 * u == threshold
        exact.append(Opinion(b, 1.0 - b - u, u, 0.5))
    return draw(
        st.one_of(
            opinions(base_rate=0.5),
            st.floats(0.0, 1.0).map(lambda b: Opinion(b, 1.0 - b, 0.0, 0.5)),
            st.sampled_from(exact),
        )
    )


@st.composite
def candidate_stores(draw, threshold):
    pairs = [(lo, hi) for lo in CANDIDATE_IDS for hi in CANDIDATE_IDS if lo < hi]
    report = st.dictionaries(st.sampled_from(pairs), bound_opinions(threshold), max_size=8)
    return draw(st.lists(st.tuples(st.sampled_from([*CANDIDATE_IDS, 100]), report), max_size=8))


class TestCandidateSearch:
    @settings(max_examples=400, deadline=None)
    @given(
        threshold=st.sampled_from([0.3, 0.5, 0.7]),
        u_min=st.sampled_from([0.0, 0.2, 0.6]),
        data=st.data(),
    )
    def test_matches_unpruned_search(self, threshold, u_min, data):
        agent = make_agent(1, request_threshold=threshold, u_min=u_min)
        agent.members = data.draw(st.frozensets(st.sampled_from(CANDIDATE_IDS), max_size=3)) | {1}
        # mostly eligible neighbours, so that most searches have a choice to make
        kinds = st.sampled_from([AgentKind.HUMAN_LINKED] * 4 + list(AgentKind))
        near = data.draw(
            st.dictionaries(
                st.sampled_from([n for n in CANDIDATE_IDS if n != 1]),
                st.tuples(kinds, st.sampled_from([1.0, 1.0, 10.0, 20.0])),
            )
        )
        agent.apply_percept({}, [(n, kind, dist) for n, (kind, dist) in near.items()], 0.0)
        for sender, report in data.draw(candidate_stores(threshold)):
            agent.store_report(sender, report, 0.0)
        for denied in data.draw(st.frozensets(st.sampled_from(CANDIDATE_IDS), max_size=2)):
            agent.denial_cache[denied] = 5.0
        expected = unpruned_candidate(agent, 0.5)
        assert agent.get_candidate(0.5) == expected


class TestConcernedReceivers:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_dropped_receivers_are_left_unchanged(self, data):
        ids = st.sampled_from(range(1, 7))
        agents = {}
        for aid in (1, 2, 3, 4):
            kinds = [AgentKind.HUMAN_LINKED] * 2 + [AgentKind.OPINION_PROVIDER]
            kind = data.draw(st.sampled_from(kinds))
            routing = data.draw(st.sampled_from([False, False, True]))
            agent = Agent(id=aid, config=ProtocolConfig(direct_to_head_routing=routing), kind=kind)
            if kind is AgentKind.HUMAN_LINKED:
                agent.head_id = data.draw(ids)
            agent.members = data.draw(st.frozensets(ids)) | {aid, agent.head_id}
            agent.human_members = agent.members | data.draw(st.frozensets(ids))
            agent.pending_request = data.draw(st.one_of(st.none(), st.tuples(ids, st.just(0.0))))
            agent.last_member_msgs = dict.fromkeys(data.draw(st.frozensets(ids)), 0.5)
            seed_neighbor(agent, data.draw(ids.filter(lambda n: n != aid)))
            agents[aid] = agent
        listed = data.draw(st.frozensets(ids))
        msg = HeadMsg(data.draw(ids), listed, listed | data.draw(st.frozensets(ids)))
        sender = data.draw(ids)
        receivers = (1, 2, 3, 4, 9)  # 9 is no agent
        kept = concerned_receivers(msg, receivers, agents)
        assert kept == tuple(r for r in receivers if r in kept)
        assert 9 not in kept
        for r, agent in agents.items():
            if agent.config.direct_to_head_routing:
                assert r in kept
            if r in kept:
                continue
            before = repr(vars(agent))
            assert agent.handle_head_msg(msg, sender, 1.0) == []
            assert repr(vars(agent)) == before


def member_sets(msg):
    """Each member set a message carries, as a sorted tuple."""
    names = ("agent_members", "human_members", "members", "forward_members")
    return {n: tuple(sorted(getattr(msg, n))) for n in names if getattr(msg, n, None) is not None}


class TestMembershipAliasing:
    @settings(max_examples=300, deadline=None)
    @given(
        detach=st.booleans(),
        handover=st.booleans(),
        steps=st.lists(
            st.tuples(
                st.integers(0, 7),
                st.sampled_from(range(2, 7)),
                st.sampled_from(range(2, 7)),
                st.frozensets(st.sampled_from(range(1, 7)), max_size=3),
                st.booleans(),
            ),
            max_size=40,
        ),
    )
    def test_sent_sets_never_change(self, detach, handover, steps):
        # Members and messages share frozen sets: whatever the agent does
        # afterwards, a set it sent or received keeps its value.
        agent = make_agent(1, detach_extension=detach, stable_handover=handover)
        seen = []

        def record(msgs):
            seen.extend((msg, member_sets(msg)) for msg in msgs)

        for k, (action, a, b, ids, flag) in enumerate(steps):
            now = k * 0.5
            if action == 0:
                record(msg for msg, *_ in agent.tick(now))
            elif action == 1:
                kind = AgentKind.HUMAN_WITHOUT_AGENT if flag else AgentKind.HUMAN_LINKED
                seed_neighbor(agent, a, kind=kind, now=now, opinion=STRONG if b > 2 else WEAK)
            elif action == 2:
                req = RequestMsg(a, ids | {a})
                record([req])
                record(msg for msg, _ in agent.handle_request(req, now))
            elif action == 3:
                pending = agent.pending_request
                responder = pending[0] if flag and pending else a
                res = ResponseMsg(responder, b > 3, None if b > 3 else b, ids or None)
                record([res])
                agent.handle_response(res, now)
            elif action == 4:
                # from the agent's head, naming it as the new head when flag
                head = agent.id if flag else a
                msg = HeadMsg(head, ids | {head}, ids | {head, b})
                record([msg])
                record(out for out, _ in agent.handle_head_msg(msg, agent.head_id, now))
            elif action == 5:
                agent.handle_member_msg(MemberMsg(a, agent.id if flag else b, {(1, a): STRONG}), now)
            elif action == 6:
                candidate = agent.get_candidate(now)
                if candidate is not None:
                    record(msg for msg, _ in agent.send_request(candidate, now))
            elif agent.head_id == agent.id and len(agent.members) > 1:
                record(msg for msg, _ in agent.handover_head(now))
            assert type(agent.members) is frozenset
            assert type(agent.human_members) is frozenset
            assert agent.id in agent.members
        for msg, snapshot in seen:
            assert member_sets(msg) == snapshot
