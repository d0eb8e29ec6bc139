"""Parity colorings, the strategy audit, cross-part matchings, certificates."""

import random

import numpy as np
import pytest

from matchgame.coloring import (
    Graph,
    audit_strategy,
    bob_edge_graph,
    components,
    count_colorings,
    cross_component_matching,
    distance,
    edge_parities_from_string,
    format_parity_graph,
    impossibility_certificate,
    parse_parity_graph,
    strings_from_colorings,
)
from matchgame.errors import FormatError, ValidationError
from matchgame.game import BitString, Edge, GameInstance
from matchgame.matchings import PerfectMatching, enumerate_matchings
from matchgame.strategies import DeterministicStrategy, known_winning_strategy
from oracles import (
    bounded_partitions,
    brute_color_count,
    brute_color_strings,
    exists_all_cross_matching,
)


def graph(n, *pairs):
    return Graph.from_pairs(n, pairs)


def random_graph_and_parity(rng, max_vertices=6):
    n = rng.randint(1, max_vertices)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [Edge(i, j) for i, j in pairs if rng.random() < 0.5]
    g = Graph(n, frozenset(edges))
    h = {e: rng.randint(0, 1) for e in edges}
    return g, h


class TestGraphBasics:
    def test_edge_range_checked(self):
        with pytest.raises(ValidationError):
            graph(3, (0, 3))
        with pytest.raises(ValidationError):
            Graph(0, frozenset())

    def test_members_must_be_edges(self):
        message = r"expected an Edge, got tuple \(0, 1\); Graph.from_pairs takes pairs"
        with pytest.raises(ValidationError, match=message):
            Graph(4, frozenset({(0, 1)}))
        assert Graph.from_pairs(4, [(0, 1)]) == Graph(4, frozenset({Edge(0, 1)}))

    def test_vertex_count_must_be_an_integer(self):
        g = Graph(np.int64(4), frozenset())
        assert type(g.vertex_count) is int and g == Graph(4, frozenset())
        with pytest.raises(ValidationError, match="vertex count must be an integer"):
            Graph(4.0, frozenset())

    def test_components_examples(self):
        assert components(graph(4)) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        ]
        assert components(graph(4, (0, 1), (0, 2), (1, 2))) == [
            frozenset({0, 1, 2}),
            frozenset({3}),
        ]
        assert components(graph(4, (0, 1), (2, 3))) == [
            frozenset({0, 1}),
            frozenset({2, 3}),
        ]

    def test_components_agree_with_reachability(self):
        rng = random.Random(5)
        for _ in range(200):
            g, _ = random_graph_and_parity(rng, max_vertices=7)
            comps = components(g)
            assert [min(c) for c in comps] == sorted(min(c) for c in comps)
            label = {v: k for k, c in enumerate(comps) for v in c}
            assert sorted(label) == list(range(g.vertex_count))
            for u in range(g.vertex_count):
                for v in range(g.vertex_count):
                    assert (label[u] == label[v]) == (distance(g, u, v) is not None)

    def test_distance(self):
        g = graph(4, (0, 1), (1, 2))
        assert distance(g, 0, 0) == 0
        assert distance(g, 0, 2) == 2
        assert distance(g, 0, 3) is None
        assert distance(graph(4, (0, 1)), 2, 3) is None
        with pytest.raises(ValidationError):
            distance(g, 0, 4)


class TestCountColorings:
    def test_single_edge_with_flip(self):
        g = graph(2, (0, 1))
        assert count_colorings(g, {Edge(0, 1): 1}) == 2

    def test_single_edge_with_isolated_vertices(self):
        g = graph(4, (0, 1))
        assert count_colorings(g, {Edge(0, 1): 1}) == 8

    def test_odd_triangle_has_none(self):
        g = graph(3, (0, 1), (1, 2), (0, 2))
        h = {e: 1 for e in g.edges}
        assert brute_color_count(g, h) == 0
        assert count_colorings(g, h) == 0

    def test_edgeless(self):
        assert count_colorings(graph(3), {}) == 8

    def test_domain_mismatch_rejected(self):
        g = graph(3, (0, 1))
        with pytest.raises(ValidationError):
            count_colorings(g, {})
        with pytest.raises(ValidationError):
            count_colorings(g, {Edge(0, 1): 0, Edge(1, 2): 0})
        with pytest.raises(ValidationError, match="parity of 0-1 must be 0 or 1, got 2"):
            count_colorings(g, {Edge(0, 1): 2})

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(20240817)
        zeros = 0
        for _ in range(300):
            g, h = random_graph_and_parity(rng)
            expected = brute_color_count(g, h)
            assert count_colorings(g, h) == expected
            zeros += expected == 0
        assert zeros > 10


class TestStringsFromColorings:
    def test_edgeless_two_vertices(self):
        got = strings_from_colorings(graph(2), {})
        assert {str(b) for b in got} == {"00", "01", "10", "11"}

    def test_single_even_edge(self):
        got = strings_from_colorings(graph(2, (0, 1)), {Edge(0, 1): 0})
        assert {str(b) for b in got} == {"00", "11"}

    def test_triangle_from_representative(self):
        g = graph(3, (0, 1), (1, 2), (0, 2))
        r = BitString.parse("011")
        h = edge_parities_from_string(r, g)
        got = strings_from_colorings(g, h)
        assert got == brute_color_strings(g, h)
        assert {str(b) for b in got} == {"011", "100"}

    def test_round_trip_and_sizes_on_random_instances(self):
        rng = random.Random(77)
        for _ in range(200):
            g, h = random_graph_and_parity(rng)
            got = strings_from_colorings(g, h)
            assert len(got) == count_colorings(g, h)
            assert got == brute_color_strings(g, h)

    def test_representative_is_always_recovered(self):
        rng = random.Random(13)
        for _ in range(200):
            g, _ = random_graph_and_parity(rng)
            r = BitString(rng.randrange(1 << g.vertex_count), g.vertex_count)
            h = edge_parities_from_string(r, g)
            got = strings_from_colorings(g, h)
            assert r in got
            assert len(got) == count_colorings(g, h)

    def test_closed_under_component_complement(self):
        rng = random.Random(99)
        for _ in range(50):
            g, _ = random_graph_and_parity(rng)
            r = BitString(rng.randrange(1 << g.vertex_count), g.vertex_count)
            h = edge_parities_from_string(r, g)
            got = strings_from_colorings(g, h)
            top = g.vertex_count - 1
            for comp in components(g):
                mask = sum(1 << (top - v) for v in comp)
                for s in got:
                    assert BitString(s.value ^ mask, s.length) in got


class TestEdgeParities:
    def test_examples(self):
        g = graph(4, (0, 1))
        assert edge_parities_from_string(BitString.parse("0000"), g) == {Edge(0, 1): 0}
        assert edge_parities_from_string(BitString.parse("0110"), g) == {Edge(0, 1): 1}
        g3 = graph(3, (0, 1), (1, 2), (0, 2))
        h = edge_parities_from_string(BitString.parse("011"), g3)
        assert h == {Edge(0, 1): 1, Edge(1, 2): 0, Edge(0, 2): 1}

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            edge_parities_from_string(BitString.parse("01"), graph(3))


def first_edge_bob_strategy(m, alice_bit_width, alice_rule):
    inst = GameInstance(m)
    alice = {
        BitString(v, m): BitString(alice_rule(v), alice_bit_width) for v in range(1 << m)
    }
    bob = {y: (y.edges[0], BitString(0, inst.n)) for y in enumerate_matchings(inst)}
    return DeterministicStrategy(m, alice, bob)


class TestBobEdgeGraph:
    def test_known_table_m4(self):
        g = bob_edge_graph(known_winning_strategy(4), GameInstance(4))
        assert g.edges == {Edge(0, 1), Edge(0, 2), Edge(1, 2)}

    def test_first_edge_bob_m4(self):
        s = first_edge_bob_strategy(4, 2, lambda v: 0)
        g = bob_edge_graph(s, GameInstance(4))
        assert g.edges == {Edge(0, 1), Edge(0, 2), Edge(0, 3)}

    def test_known_table_m6(self):
        g = bob_edge_graph(known_winning_strategy(6), GameInstance(6))
        assert g.edges == {
            Edge(0, 1),
            Edge(0, 2),
            Edge(0, 4),
            Edge(1, 2),
            Edge(1, 4),
            Edge(2, 4),
        }


class TestAuditStrategy:
    def test_known_table_m4(self):
        report = audit_strategy(known_winning_strategy(4), GameInstance(4))
        assert report.output_class_size == 4
        assert report.required_size == 4
        assert report.max_component_size == 3
        assert report.parity_consistent

    def test_known_table_m6(self):
        report = audit_strategy(known_winning_strategy(6), GameInstance(6))
        assert report.output_class_size == 8
        assert report.required_size == 8
        assert report.max_component_size == 4
        assert report.parity_consistent

    def test_constant_alice_breaks_parity(self):
        s = first_edge_bob_strategy(4, 2, lambda v: 0)
        report = audit_strategy(s, GameInstance(4))
        assert report.output_class_size == 16
        assert not report.parity_consistent

    def test_one_inconsistent_edge_breaks_parity(self):
        # Answering 0-3 on one matching adds the only Bob edge whose parity
        # varies on the class Alice answers 000; the other six stay constant.
        known = known_winning_strategy(6)
        y = PerfectMatching.parse("0-3,1-2,4-5")
        bob = {**known.bob, y: (Edge(0, 3), known.bob[y][1])}
        s = DeterministicStrategy(6, known.alice, bob)
        report = audit_strategy(s, GameInstance(6))
        assert report.output_class_size == 8
        assert report.max_component_size == 5
        assert not report.parity_consistent

    def test_every_winning_strategy_passes_all_three_conditions(self):
        # Winning forces the three audit conditions; checked across a family
        # of winning strategies of different origins at m = 2, 4, 6.
        from matchgame.game import Edge as E
        from matchgame.search import exact_optimum, hill_climb
        from matchgame.strategies import anchor_strategy, verify_winning

        family = []
        alice_m2 = {
            BitString(v, 2): BitString((v >> 1) ^ (v & 1), 1) for v in range(4)
        }
        bob_m2 = {PerfectMatching.parse("0-1"): (E(0, 1), BitString(0, 1))}
        family.append((2, DeterministicStrategy(2, alice_m2, bob_m2)))
        for m in (4, 6):
            family.append((m, known_winning_strategy(m)))
            family.append((m, anchor_strategy(GameInstance(m))))
        family.append((2, exact_optimum(GameInstance(2))[1]))
        family.append((4, exact_optimum(GameInstance(4))[1]))
        for seed in (0, 1):
            family.append((4, hill_climb(GameInstance(4), seed, 512)[0]))
        for m, s in family:
            inst = GameInstance(m)
            assert verify_winning(s, inst)
            report = audit_strategy(s, inst)
            assert report.output_class_size >= report.required_size
            assert report.max_component_size > m // 2
            assert report.parity_consistent


class TestCrossComponentMatching:
    def test_two_singletons(self):
        assert str(cross_component_matching([{0}, {1}])) == "0-1"

    def test_two_pairs(self):
        assert str(cross_component_matching([{0, 1}, {2, 3}])) == "0-2,1-3"

    def test_reassignment_case(self):
        y = cross_component_matching([{0, 1, 2, 3}, {4, 5}, {6, 7}])
        assert str(y) == "0-6,1-4,2-7,3-5"

    def test_oversized_part_rejected(self):
        with pytest.raises(ValidationError, match="more than half"):
            cross_component_matching([{0, 1, 2}, {3}])

    def test_bad_partitions_rejected(self):
        with pytest.raises(ValidationError, match="disjoint"):
            cross_component_matching([{0, 1}, {1, 2}])
        with pytest.raises(ValidationError, match="cover"):
            cross_component_matching([{0, 1}, {3, 4}])
        with pytest.raises(ValidationError, match="even"):
            cross_component_matching([{0}, {1, 2}])
        with pytest.raises(ValidationError, match="at least one part"):
            cross_component_matching([])

    def test_empty_part_rejected(self):
        with pytest.raises(ValidationError, match="parts must be non-empty"):
            cross_component_matching([{0, 1}, set()])

    def test_exhaustive_shapes_up_to_m8(self):
        for m in (2, 4, 6, 8):
            for shape in bounded_partitions(m, m // 2):
                parts = []
                vertex = 0
                for size in shape:
                    parts.append(set(range(vertex, vertex + size)))
                    vertex += size
                labels = [0] * m
                for idx, part in enumerate(parts):
                    for v in part:
                        labels[v] = idx
                assert exists_all_cross_matching(labels)
                y = cross_component_matching(parts)
                assert y.m == m
                for e in y:
                    assert labels[e.i] != labels[e.j]

    def test_interleaved_parts(self):
        # Part membership need not be contiguous in vertex order.
        parts = [{0, 3, 5}, {1, 4}, {2, 6}, {7}]
        y = cross_component_matching(parts)
        label = {v: k for k, p in enumerate(parts) for v in p}
        assert y.m == 8
        for e in y:
            assert label[e.i] != label[e.j]


class TestImpossibilityCertificate:
    def test_m8_excluded(self):
        cert = impossibility_certificate(8)
        assert cert.excluded
        assert cert.components_needed == 5
        assert cert.components_possible == 4

    def test_m6_not_excluded(self):
        cert = impossibility_certificate(6)
        assert not cert.excluded
        assert (cert.components_needed, cert.components_possible) == (3, 3)

    def test_m64(self):
        cert = impossibility_certificate(64)
        assert cert.excluded
        assert (cert.components_needed, cert.components_possible) == (58, 32)

    def test_threshold_is_exactly_m8(self):
        for m in range(2, 66, 2):
            assert impossibility_certificate(m).excluded == (m >= 8)

    def test_odd_rejected(self):
        with pytest.raises(ValidationError):
            impossibility_certificate(7)


class TestParityGraphFormat:
    def test_round_trip(self):
        g = graph(4, (0, 1), (1, 2), (0, 2))
        h = {Edge(0, 1): 1, Edge(1, 2): 0, Edge(0, 2): 1}
        text = format_parity_graph(g, h)
        assert text == "graph n=4\nedge 0-1 h=1\nedge 0-2 h=1\nedge 1-2 h=0\n"
        g2, h2 = parse_parity_graph(text)
        assert g2 == g
        assert h2 == h

    def test_parse_errors_carry_positions(self):
        with pytest.raises(FormatError) as exc:
            parse_parity_graph("graph n=3\nedge 0-5 h=1\n")
        assert (exc.value.line, exc.value.column) == (2, 6)
        with pytest.raises(FormatError) as exc:
            parse_parity_graph("edge 0-1 h=1\n")
        assert exc.value.line == 1
        with pytest.raises(FormatError) as exc:
            parse_parity_graph("graph n=3\nedge 0-1 h=2\n")
        assert (exc.value.line, exc.value.column) == (2, 10)

    @pytest.mark.parametrize(
        "text,line,column,message",
        [
            ("graph n=3\ngraph n=3\n", 2, 1, "duplicate graph header"),
            ("graph n=3 x\n", 1, 1, "expected 'graph n=<count>'"),
            ("graph n=3\nedge 0-1\n", 2, 1, "expected 'edge i-j h=<0|1>'"),
            ("graph n=3\nedge 0-1 h=1\nedge 0-1 h=0\n", 3, 6, "duplicate edge 0-1"),
            ("graph n=3\n  vertex 2\n", 2, 3, "unknown directive 'vertex'"),
            ("", 1, 1, "empty graph file: missing 'graph' header"),
            ("\n  \n", 1, 1, "empty graph file: missing 'graph' header"),
        ],
    )
    def test_each_parse_error_is_positioned(self, text, line, column, message):
        with pytest.raises(FormatError) as exc:
            parse_parity_graph(text)
        assert str(exc.value) == f"line {line}, column {column}: {message}"

    def test_overlong_header_count_is_refused_by_its_digit_count(self):
        with pytest.raises(FormatError) as exc:
            parse_parity_graph("graph n=" + "7" * 5000)
        assert str(exc.value) == "line 1, column 7: n of 5000 digits (at most 39)"
        assert len(parse_parity_graph("graph n=00" + "7" * 39)[0].edges) == 0

    def test_header_count_takes_ascii_digits_only(self):
        with pytest.raises(FormatError) as exc:
            parse_parity_graph("graph n=\u0663\n")
        assert str(exc.value) == "line 1, column 7: expected n=<positive integer>"

    def test_overlong_edge_endpoint_is_refused_by_its_digit_count(self):
        with pytest.raises(FormatError) as exc:
            parse_parity_graph("graph n=3\nedge 0-" + "9" * 5000 + " h=1\n")
        assert str(exc.value) == (
            "line 2, column 6: edge endpoint of 5000 digits (at most 39)"
        )
