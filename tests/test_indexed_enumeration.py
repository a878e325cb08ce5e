"""Indexed enumeration ≡ the dict path on the random social-graph family.

The indexed frozenset enumeration (``use_index=True``) is an execution
strategy, never a semantics switch: answers, node matches, isomorphism
streams (in emission order) and every ``WorkCounter`` field equal those of
the ``use_index=False`` dict path.  This suite pins that on dense random
person/product graphs — anchored and limited streams, hand-seeded candidate
pools that a caller got wrong, nodes whose ``str`` forms collide, d-hop balls
and the locality pools cut from them, the signature-filtered label seeds,
the metrics the matchers publish, and the parallel and service paths.
"""

from __future__ import annotations

import pytest

from repro.graph.digraph import PropertyGraph
from repro.graph.traversal import nodes_within_hops
from repro.index.snapshot import GraphIndex
from repro.matching import DMatchOptions, QMatch, build_candidate_index
from repro.matching.dmatch import _local_candidate_pools, dmatch
from repro.matching.enumerate import evaluate_positive_by_enumeration
from repro.matching.generic import MatchContext, find_isomorphisms
from repro.obs.metrics import active_metrics
from repro.parallel import PQMatch
from repro.patterns import CountingQuantifier, QuantifiedGraphPattern
from repro.plan import compile_plan
from repro.service import QueryService
from repro.service.patterns import canonicalize
from repro.utils import WorkCounter
from repro.utils.errors import NodeNotFoundError

from fixtures import counter_fields, quantified_patterns, social_graph

MATCH_COUNTERS = (
    "match.queries",
    "match.verifications",
    "match.extensions",
    "match.quantifier_checks",
    "match.candidates_pruned",
)


def equal_str_graph() -> PropertyGraph:
    """Two distinct person nodes, ``1`` and ``"1"``, with one ``str`` form."""
    graph = PropertyGraph()
    graph.add_node(1, label="person")
    graph.add_node("1", label="person")
    graph.add_node("p", label="product")
    graph.add_edge(1, "p", label="like")
    graph.add_edge("1", "p", label="like")
    return graph


def likes_pattern() -> QuantifiedGraphPattern:
    pattern = QuantifiedGraphPattern(name="likes")
    pattern.add_node("x", "person")
    pattern.add_node("y", "product")
    pattern.add_edge("x", "y", "like", CountingQuantifier.existential())
    pattern.set_focus("x")
    return pattern


# ---------------------------------------------------------------------------
# find_isomorphisms / MatchContext stream identity
# ---------------------------------------------------------------------------


class TestIsomorphismByteIdentity:
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_streams_identical(self, seed):
        graph = social_graph(seed)
        for pattern in quantified_patterns():
            stratified = pattern.stratified()
            indexed = list(find_isomorphisms(stratified, graph, use_index=True))
            plain = list(find_isomorphisms(stratified, graph, use_index=False))
            assert indexed == plain  # same matches, same emission order

    def test_full_stream_counters_identical(self):
        graph = social_graph(6)
        for pattern in quantified_patterns():
            stratified = pattern.stratified()
            counters = []
            for use_index in (True, False):
                counter = WorkCounter()
                context = MatchContext(stratified, graph, use_index=use_index)
                list(context.isomorphisms(counter=counter))
                counters.append(counter_fields(counter))
            assert counters[0] == counters[1], pattern.name
            assert counters[0][1] > 0, pattern.name

    def test_anchored_and_limited_identical(self):
        graph = social_graph(6)
        pattern = quantified_patterns()[0].stratified()
        indexed_context = MatchContext(pattern, graph, use_index=True)
        plain_context = MatchContext(pattern, graph, use_index=False)
        focus_pool = sorted(plain_context.candidates["x"])
        assert focus_pool
        for candidate in focus_pool[:10]:
            anchor = {"x": candidate}
            indexed_counter, plain_counter = WorkCounter(), WorkCounter()
            indexed = list(
                indexed_context.isomorphisms(anchor=anchor, counter=indexed_counter)
            )
            plain = list(
                plain_context.isomorphisms(anchor=anchor, counter=plain_counter)
            )
            assert indexed == plain
            assert all(match["x"] == candidate for match in indexed)
            assert counter_fields(indexed_counter) == counter_fields(plain_counter)
            assert list(indexed_context.isomorphisms(anchor=anchor, limit=2)) == list(
                plain_context.isomorphisms(anchor=anchor, limit=2)
            )

    def test_limited_stream_is_prefix_of_full_stream(self):
        graph = social_graph(7)
        pattern = quantified_patterns()[0].stratified()
        for use_index in (True, False):
            full = list(find_isomorphisms(pattern, graph, use_index=use_index))
            assert len(full) > 5
            for limit in (1, 2, 5):
                limited = list(
                    find_isomorphisms(pattern, graph, limit=limit, use_index=use_index)
                )
                assert limited == full[:limit]


# ---------------------------------------------------------------------------
# Candidate pools the enumeration cannot trust, and colliding str forms
# ---------------------------------------------------------------------------


class TestCandidatePoolGuards:
    def _seeded_pools(self, graph, pattern, extra):
        context = MatchContext(pattern, graph)
        pools = {node: set(pool) for node, pool in context.candidates.items()}
        pools["x"].add(extra)
        return pools

    def test_ghost_candidate_raises_on_both_paths(self):
        graph = social_graph(8)
        pattern = quantified_patterns()[1].stratified()
        for use_index in (True, False):
            pools = self._seeded_pools(graph, pattern, "ghost-node")
            with pytest.raises(NodeNotFoundError):
                list(
                    find_isomorphisms(
                        pattern, graph, candidates=pools, use_index=use_index
                    )
                )

    def test_mislabeled_candidate_served_identically(self):
        graph = social_graph(8)
        pattern = quantified_patterns()[1].stratified()
        product = sorted(graph.nodes_with_label("product"))[0]
        streams = [
            list(
                find_isomorphisms(
                    pattern,
                    graph,
                    candidates=self._seeded_pools(graph, pattern, product),
                    use_index=use_index,
                )
            )
            for use_index in (True, False)
        ]
        assert streams[0] == streams[1]

    def test_equal_str_forms_enumerated_identically(self):
        graph = equal_str_graph()
        stratified = likes_pattern().stratified()
        indexed = list(find_isomorphisms(stratified, graph, use_index=True))
        plain = list(find_isomorphisms(stratified, graph, use_index=False))
        assert indexed == plain
        assert [match["x"] for match in indexed] == [1, "1"]

    def test_equal_str_forms_match_oracle_on_every_engine(self):
        graph = equal_str_graph()
        pattern = likes_pattern()
        oracle, _ = evaluate_positive_by_enumeration(pattern, graph)
        assert oracle == {1, "1"}
        form = canonicalize(pattern)
        plan = compile_plan(pattern, fingerprint=form.fingerprint, form=form)
        for use_index in (True, False):
            engine = QMatch(options=DMatchOptions(use_index=use_index))
            assert engine.evaluate_answer(pattern, graph) == oracle
            planned = engine.evaluate(
                pattern, graph, plan=plan, plan_binding=form.order
            )
            assert planned.answer == oracle


# ---------------------------------------------------------------------------
# d-hop balls and the locality pools cut from them
# ---------------------------------------------------------------------------


class TestSnapshotBalls:
    def test_ball_matches_traversal(self):
        graph = social_graph(12)
        snapshot = GraphIndex.for_graph(graph)
        for node in sorted(graph.nodes())[:15]:
            for hops in (0, 1, 2):
                assert snapshot.nodes_within_hops(node, hops) == nodes_within_hops(
                    graph, node, hops
                )

    def test_local_pools_are_label_members_within_the_ball(self):
        graph = social_graph(12)
        snapshot = GraphIndex.for_graph(graph)
        pattern = quantified_patterns()[0].stratified()
        index = build_candidate_index(pattern, graph)
        label_members = {}
        for node in pattern.nodes():
            label = pattern.node_label(node)
            members = graph.nodes_with_label(label)
            label_members[label] = (members, len(members))
        for source in sorted(graph.nodes())[:10]:
            ball = snapshot.nodes_within_hops(source, 2)
            pools = _local_candidate_pools(pattern, index, ball, label_members)
            for node in pattern.nodes():
                label_local = snapshot.nodes_with_label(pattern.node_label(node)) & ball
                assert pools[node] == index.candidate_set(node) & ball
                assert pools[node] <= label_local

    def test_unknown_node_ball_raises(self):
        snapshot = GraphIndex.for_graph(social_graph(12))
        with pytest.raises(NodeNotFoundError):
            snapshot.nodes_within_hops("ghost-node", 1)


# ---------------------------------------------------------------------------
# The signature-filtered label seeds
# ---------------------------------------------------------------------------


class TestLabelCandidates:
    def test_label_candidates_cover_every_isomorphic_image(self):
        graph = social_graph(9)
        snapshot = GraphIndex.for_graph(graph)
        for pattern in quantified_patterns():
            stratified = pattern.stratified()
            seeds = {
                node: snapshot.to_nodes(ids)
                for node, ids in snapshot.label_candidates_ids(stratified.graph).items()
            }
            matches = list(find_isomorphisms(stratified, graph))
            assert matches, pattern.name
            for match in matches:
                for node, image in match.items():
                    assert image in seeds[node], (pattern.name, node, image)

    def test_label_candidates_are_label_consistent(self):
        graph = social_graph(9)
        snapshot = GraphIndex.for_graph(graph)
        for pattern in quantified_patterns():
            stratified = pattern.stratified()
            for node, ids in snapshot.label_candidates_ids(stratified.graph).items():
                members = graph.nodes_with_label(stratified.node_label(node))
                assert snapshot.to_nodes(ids) <= members


# ---------------------------------------------------------------------------
# Match metrics
# ---------------------------------------------------------------------------


class TestMatchObservability:
    def test_match_counters_move_when_enabled(self):
        graph = social_graph(14)
        pattern = quantified_patterns()[0]
        with active_metrics() as registry:
            result = QMatch().evaluate(pattern, graph)
            assert registry.counter("match.queries").value == 1
            assert (
                registry.counter("match.verifications").value
                == result.counter.verifications
            )
            assert registry.counter("match.extensions").value > 0

    def test_indexed_and_dict_paths_record_identical_counters(self):
        graph = social_graph(14)
        recorded = []
        for use_index in (True, False):
            engine = QMatch(options=DMatchOptions(use_index=use_index))
            with active_metrics() as registry:
                for pattern in quantified_patterns():
                    engine.evaluate(pattern, graph)
                recorded.append(
                    [registry.counter(name).value for name in MATCH_COUNTERS]
                )
        assert recorded[0] == recorded[1]
        assert recorded[0][0] == len(quantified_patterns())

    def test_nothing_recorded_outside_the_active_scope(self):
        graph = social_graph(14)
        pattern = quantified_patterns()[0]
        with active_metrics() as registry:
            QMatch().evaluate(pattern, graph)
        before = [registry.counter(name).value for name in MATCH_COUNTERS]
        QMatch().evaluate(pattern, graph)
        assert [registry.counter(name).value for name in MATCH_COUNTERS] == before


# ---------------------------------------------------------------------------
# Focus restriction
# ---------------------------------------------------------------------------


class TestFocusRestriction:
    def test_focus_restriction_identical_on_dict_path(self):
        graph = social_graph(11)
        pattern = quantified_patterns()[0]
        unrestricted = dmatch(pattern, graph).answer
        some = sorted(unrestricted)[: max(1, len(unrestricted) // 2)]
        for use_index in (True, False):
            options = DMatchOptions(use_index=use_index)
            outcome = dmatch(pattern, graph, options=options, focus_restriction=some)
            assert outcome.answer == unrestricted & set(some)

    def test_empty_focus_restriction_answers_nothing(self):
        graph = social_graph(11)
        pattern = quantified_patterns()[0]
        assert dmatch(pattern, graph).answer
        for use_index in (True, False):
            options = DMatchOptions(use_index=use_index)
            outcome = dmatch(pattern, graph, options=options, focus_restriction=())
            assert outcome.answer == set()


# ---------------------------------------------------------------------------
# The parallel and service paths
# ---------------------------------------------------------------------------


class TestLocalityAndDistribution:
    def test_pqmatch_serial_and_process_identical(self):
        from repro.datasets import benchmark_graph

        graph = benchmark_graph("pokec", scale=0.2, seed=31)
        baseline = PQMatch(num_workers=2, d=2, engine=QMatch())
        with PQMatch(num_workers=2, d=2, executor="process", engine=QMatch()) as process:
            for pattern in quantified_patterns():
                expected = QMatch().evaluate_answer(pattern, graph)
                assert baseline.evaluate_answer(pattern, graph) == expected
                assert process.evaluate_answer(pattern, graph) == expected
            # Workers answer from their cached fragment snapshots: no rebuilds.
            assert process.executor.last_worker_rebuilds == 0

    def test_pqmatch_dict_path_engine_identical(self):
        from repro.datasets import benchmark_graph

        graph = benchmark_graph("pokec", scale=0.2, seed=31)
        indexed = PQMatch(num_workers=2, d=2, engine=QMatch())
        plain = PQMatch(
            num_workers=2,
            d=2,
            engine=QMatch(options=DMatchOptions(use_index=False)),
        )
        for pattern in quantified_patterns():
            assert indexed.evaluate_answer(pattern, graph) == plain.evaluate_answer(
                pattern, graph
            )

    def test_service_plans_identical(self):
        from repro.datasets import benchmark_graph

        graph = benchmark_graph("pokec", scale=0.2, seed=37)

        def service_for(options, use_plans):
            return QueryService(
                graph,
                PQMatch(num_workers=1, d=2, engine=QMatch(options=options)),
                name=f"svc-{options.use_index}-{use_plans}",
                use_plans=use_plans,
            )

        services = [
            service_for(DMatchOptions(use_locality=True), True),
            service_for(DMatchOptions(use_locality=True), False),
            service_for(DMatchOptions(use_locality=True, use_index=False), True),
        ]
        for pattern in quantified_patterns():
            expected = QMatch().evaluate_answer(pattern, graph)
            for service in services:
                assert set(service.evaluate(pattern).answer) == expected
                service.cache.clear()
