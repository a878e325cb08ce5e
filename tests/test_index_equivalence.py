"""Index/matcher equivalence: the compiled path must be a pure accelerator.

Every consumer of :mod:`repro.index` keeps a dict-backed fallback
(``use_index=False``); these tests assert, on the paper's example graphs and
on seeded generator graphs, that switching the index on changes *nothing*
observable — answers, candidate sets, upper bounds, simulation relations and
``WorkCounter`` prune counts are all identical.
"""

from __future__ import annotations

import pytest

from repro.datasets import benchmark_graph, paper_pattern, workload_patterns
from repro.graph import PropertyGraph, nodes_within_hops
from repro.graph.simulation import (
    dual_simulation_relation,
    refine_candidates,
    simulation_relation,
)
from repro.index import GraphIndex
from repro.matching import DMatchOptions, QMatch, build_candidate_index, dmatch
from repro.matching.generic import find_isomorphisms
from repro.patterns import PatternBuilder
from repro.parallel.partition import DPar, base_partition
from repro.utils import WorkCounter

from fixtures import build_paper_g1, build_paper_g2, build_q2, build_q3, build_q4


def _cases():
    """(name, graph, pattern) triples covering paper examples and generators."""
    g1, g2 = build_paper_g1(), build_paper_g2()
    cases = [
        ("g1-q2", g1, build_q2()),
        ("g1-q3p2", g1, build_q3(p=2)),
        ("g1-q3p4", g1, build_q3(p=4)),
        ("g2-q4", g2, build_q4(p=2)),
    ]
    for dataset, queries in (("pokec", ("Q1", "Q2", "Q3")), ("yago2", ("Q4", "Q5"))):
        graph = benchmark_graph(dataset, scale=0.4, seed=5)
        for query in queries:
            pattern = paper_pattern(query, p=2) if query in ("Q3", "Q4") else paper_pattern(query)
            cases.append((f"{dataset}-{query}", graph, pattern))
    generated = benchmark_graph("synthetic", scale=0.3, seed=7)
    for position, pattern in enumerate(
        workload_patterns(generated, count=3, num_nodes=4, num_edges=5,
                          ratio_percent=30.0, num_negated=1, seed=13)
    ):
        cases.append((f"synthetic-w{position}", generated, pattern))
    return cases


CASES = _cases()
CASE_IDS = [name for name, _, _ in CASES]


@pytest.mark.parametrize("name,graph,pattern", CASES, ids=CASE_IDS)
class TestMatcherEquivalence:
    def test_qmatch_answers_and_prune_counts_identical(self, name, graph, pattern):
        indexed = QMatch(options=DMatchOptions(use_index=True)).evaluate(pattern, graph)
        fallback = QMatch(options=DMatchOptions(use_index=False)).evaluate(pattern, graph)
        assert indexed.answer == fallback.answer
        assert indexed.positive_answer == fallback.positive_answer
        assert indexed.counter.candidates_pruned == fallback.counter.candidates_pruned

    def test_enumeration_work_counts_identical_across_all_modes(self, name, graph, pattern):
        """Indexed enumeration is byte-identical: answers AND work counters.

        The deterministic candidate ordering shared by both enumeration paths
        makes even the early-exit extension counts match exactly, so this
        asserts the full counter tuple — not just the answer — across the
        fully indexed engine and the dict fallback.
        """
        outcomes = {}
        for mode, options in (
            ("indexed", DMatchOptions()),
            ("fallback", DMatchOptions(use_index=False)),
        ):
            result = QMatch(options=options).evaluate(pattern, graph)
            outcomes[mode] = (
                result.answer,
                result.positive_answer,
                result.counter.extensions,
                result.counter.verifications,
                result.counter.quantifier_checks,
                result.counter.candidates_pruned,
            )
        assert outcomes["indexed"] == outcomes["fallback"]

    def test_isomorphism_streams_identical_in_order(self, name, graph, pattern):
        """The two enumeration paths yield the same assignments in the same order."""
        skeleton = pattern.pi().stratified()
        indexed = list(find_isomorphisms(skeleton, graph, limit=200, use_index=True))
        fallback = list(find_isomorphisms(skeleton, graph, limit=200, use_index=False))
        assert indexed == fallback

    def test_qmatch_without_simulation_identical(self, name, graph, pattern):
        options_on = DMatchOptions(use_simulation=False, use_index=True)
        options_off = DMatchOptions(use_simulation=False, use_index=False)
        indexed = QMatch(options=options_on).evaluate(pattern, graph)
        fallback = QMatch(options=options_off).evaluate(pattern, graph)
        assert indexed.answer == fallback.answer
        assert indexed.counter.candidates_pruned == fallback.counter.candidates_pruned

    def test_dmatch_on_positive_part_identical(self, name, graph, pattern):
        positive = pattern.pi()
        indexed = dmatch(positive, graph, options=DMatchOptions(use_index=True))
        fallback = dmatch(positive, graph, options=DMatchOptions(use_index=False))
        assert indexed.answer == fallback.answer

    def test_candidate_index_identical(self, name, graph, pattern):
        positive = pattern.pi()
        for use_simulation in (True, False):
            counter_indexed, counter_fallback = WorkCounter(), WorkCounter()
            indexed = build_candidate_index(
                positive, graph, use_simulation=use_simulation,
                counter=counter_indexed, use_index=True,
            )
            fallback = build_candidate_index(
                positive, graph, use_simulation=use_simulation,
                counter=counter_fallback, use_index=False,
            )
            assert indexed.candidates == fallback.candidates
            assert indexed.upper_bounds == fallback.upper_bounds
            assert indexed.pruned == fallback.pruned
            assert counter_indexed.candidates_pruned == counter_fallback.candidates_pruned

    def test_simulation_relations_identical(self, name, graph, pattern):
        skeleton = pattern.pi().stratified().graph
        assert simulation_relation(skeleton, graph, use_index=True) == \
            simulation_relation(skeleton, graph, use_index=False)
        assert dual_simulation_relation(skeleton, graph, use_index=True) == \
            dual_simulation_relation(skeleton, graph, use_index=False)

    def test_refine_candidates_identical_from_seeded_pools(self, name, graph, pattern):
        skeleton = pattern.pi().stratified().graph
        seeds = dual_simulation_relation(skeleton, graph, use_index=False)
        refined_indexed = refine_candidates(skeleton, graph, seeds, use_index=True)
        refined_fallback = refine_candidates(skeleton, graph, seeds, use_index=False)
        assert refined_indexed == refined_fallback


class TestPartitionDegreeStrategy:
    def test_degree_blocks_cover_all_nodes_once(self, small_pokec):
        blocks = base_partition(small_pokec, 4, seed=3, strategy="degree")
        seen = set()
        for block in blocks:
            assert seen.isdisjoint(block)
            seen |= block
        assert seen == set(small_pokec.nodes())

    def test_degree_strategy_balances_degree_weight(self, small_pokec):
        blocks = base_partition(small_pokec, 4, seed=3, strategy="degree")

        def load(block):
            return sum(
                1 + small_pokec.out_degree(n) + small_pokec.in_degree(n) for n in block
            )

        loads = sorted(load(block) for block in blocks)
        assert loads[0] > 0
        # LPT keeps the spread tight: max load within 25% of min load.
        assert loads[-1] <= loads[0] * 1.25

    def test_degree_strategy_matches_dict_fallback(self, small_pokec):
        indexed = base_partition(small_pokec, 3, seed=11, strategy="degree", use_index=True)
        fallback = base_partition(small_pokec, 3, seed=11, strategy="degree", use_index=False)
        assert indexed == fallback

    def test_dpar_with_degree_strategy_is_complete_and_covering(self, small_pokec):
        partition = DPar(d=1, seed=2, strategy="degree").partition(small_pokec, 3)
        assert partition.is_complete()
        assert partition.is_covering()

    def test_parallel_answer_unchanged_by_degree_strategy(self):
        from repro.parallel import PQMatch

        graph = build_paper_g1()
        pattern = build_q3(p=2)
        sequential = QMatch().evaluate_answer(pattern, graph)
        parallel = PQMatch(num_workers=2, d=2, seed=0, strategy="degree")
        assert parallel.evaluate_answer(pattern, graph) == sequential


class TestPartitionBfsEquivalence:
    """The CSR d-hop BFS must build byte-identical partitions."""

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_dpar_identical_with_and_without_index(self, small_pokec, d):
        indexed = DPar(d=d, seed=9, use_index=True).partition(small_pokec, 3)
        fallback = DPar(d=d, seed=9, use_index=False).partition(small_pokec, 3)
        for built, reference in zip(indexed.fragments, fallback.fragments):
            assert built.fragment_id == reference.fragment_id
            assert built.owned_nodes == reference.owned_nodes
            assert built.node_set == reference.node_set
            assert built.border_nodes == reference.border_nodes

    def test_extend_identical_with_and_without_index(self, small_pokec):
        indexed = DPar(d=1, seed=4, use_index=True)
        fallback = DPar(d=1, seed=4, use_index=False)
        extended_indexed = indexed.extend(indexed.partition(small_pokec, 3), 2)
        extended_fallback = fallback.extend(fallback.partition(small_pokec, 3), 2)
        assert [f.node_set for f in extended_indexed.fragments] == [
            f.node_set for f in extended_fallback.fragments
        ]
        assert extended_indexed.is_covering() and extended_indexed.is_complete()

    def test_csr_bfs_matches_dict_bfs_on_benchmark_graph(self, small_pokec):
        snapshot = GraphIndex.for_graph(small_pokec)
        merged = snapshot.neighborhoods()
        scratch = bytearray(snapshot.num_nodes)
        for node in small_pokec.nodes():
            for hops in (0, 1, 2):
                reached = merged.nodes_within_hops_ids(
                    snapshot.node_id(node), hops, visited=scratch
                )
                assert snapshot.to_nodes(reached) == nodes_within_hops(
                    small_pokec, node, hops
                )


class TestStaleGraphSafety:
    def test_mutating_the_graph_between_queries_stays_correct(self):
        """for_graph must transparently rebuild after mutations."""
        graph = build_paper_g1()
        pattern = build_q3(p=2)
        first = QMatch().evaluate_answer(pattern, graph)
        assert first == {"x2"}  # Example 3 of the paper: x3 is negated away.
        # x3's follow-edge to the bad-rating reviewer disappears, so x3 no
        # longer touches the negated branch and joins the answer.
        graph.remove_edge("x3", "v4", "follow")
        second_indexed = QMatch(options=DMatchOptions(use_index=True)).evaluate_answer(
            pattern, graph
        )
        second_fallback = QMatch(options=DMatchOptions(use_index=False)).evaluate_answer(
            pattern, graph
        )
        assert second_indexed == second_fallback == {"x2", "x3"}

    def test_match_context_recompiles_after_mutation(self):
        """An index-aware context must not enumerate from stale rows."""
        from repro.matching.generic import MatchContext

        graph = build_paper_g1()
        pattern = build_q3(p=2).pi().stratified()
        context = MatchContext(pattern, graph, use_index=True)
        before = list(context.isomorphisms())
        assert before  # sanity: the pattern matches the example graph
        graph.remove_edge("x3", "v4", "follow")
        after = list(context.isomorphisms())
        fresh = list(
            MatchContext(pattern, graph, use_index=False).isomorphisms()
        )
        assert after == fresh

    def test_empty_label_pattern(self):
        graph = build_paper_g1()
        pattern = (
            PatternBuilder()
            .focus("x", "person")
            .node("m", "missing_label")
            .edge("x", "m", "follow")
            .build()
        )
        for use_index in (True, False):
            index = build_candidate_index(
                pattern, graph, use_simulation=False, use_index=use_index
            )
            assert index.is_empty()


class TestRefineCandidatesSeededPools:
    """`refine_candidates` must honour caller-supplied pools verbatim.

    Unlike the label-derived seeds of the full simulation entry points, the
    pools here may disagree with the pattern's node labels or contain nodes
    the graph has never seen; the indexed path must reproduce the dict path's
    behaviour for both (regression tests for the PR-1 review findings).
    """

    def test_label_inconsistent_pools_are_refined_identically(self):
        graph = PropertyGraph("g")
        graph.add_node("a", "A")
        graph.add_node("b", "B")
        graph.add_edge("a", "b", "e")
        pattern = PropertyGraph("p")
        pattern.add_node("u", "A")
        pattern.add_node("w", "C")  # label absent from the graph
        pattern.add_edge("u", "w", "e")
        pools = {"u": {"a"}, "w": {"b"}}
        for dual in (False, True):
            fallback = refine_candidates(
                pattern, graph, {k: set(v) for k, v in pools.items()},
                dual=dual, use_index=False,
            )
            indexed = refine_candidates(
                pattern, graph, {k: set(v) for k, v in pools.items()},
                dual=dual, use_index=True,
            )
            # Support is membership in the supplied pool, not label agreement:
            # "b" supports "a" even though its label B is not the pattern's C.
            assert indexed == fallback == {"u": {"a"}, "w": {"b"}}

    def test_unknown_members_of_requirement_free_nodes_survive(self):
        graph = PropertyGraph("g")
        graph.add_node("a", "A")
        pattern = PropertyGraph("p")
        pattern.add_node("u", "A")  # no pattern edges: never probed
        pools = {"u": {"a", "ghost"}}
        for dual in (False, True):
            fallback = refine_candidates(
                pattern, graph, {k: set(v) for k, v in pools.items()},
                dual=dual, use_index=False,
            )
            indexed = refine_candidates(
                pattern, graph, {k: set(v) for k, v in pools.items()},
                dual=dual, use_index=True,
            )
            assert indexed == fallback == {"u": {"a", "ghost"}}

    def test_unknown_members_of_constrained_nodes_raise_on_both_paths(self):
        from repro.utils.errors import NodeNotFoundError

        graph = PropertyGraph("g")
        graph.add_node("a", "A")
        graph.add_node("b", "B")
        graph.add_edge("a", "b", "e")
        pattern = PropertyGraph("p")
        pattern.add_node("u", "A")
        pattern.add_node("w", "B")
        pattern.add_edge("u", "w", "e")
        pools = {"u": {"a", "ghost"}, "w": {"b"}}
        for use_index in (False, True):
            with pytest.raises(NodeNotFoundError):
                refine_candidates(
                    pattern, graph, {k: set(v) for k, v in pools.items()},
                    dual=True, use_index=use_index,
                )
