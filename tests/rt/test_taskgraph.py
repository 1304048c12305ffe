"""Unit tests for the DAG task graph."""

import pytest

from repro.rt import ConstantExecTime, GraphError, TaskGraph, TaskKind, TaskSpec


def spec(name, priority=1, deadline=0.1, rate=None, rate_range=None):
    return TaskSpec(
        name=name,
        priority=priority,
        relative_deadline=deadline,
        exec_model=ConstantExecTime(0.001),
        rate=rate,
        rate_range=rate_range,
    )


def linear_graph():
    g = TaskGraph()
    g.add_task(spec("a", rate=10.0))
    g.add_task(spec("b"))
    g.add_task(spec("c"))
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    return g


class TestConstruction:
    def test_add_and_lookup(self):
        g = linear_graph()
        assert len(g) == 3
        assert "a" in g and "z" not in g
        assert g.task("b").name == "b"

    def test_duplicate_name_rejected(self):
        g = TaskGraph()
        g.add_task(spec("a", rate=1.0))
        with pytest.raises(GraphError, match="duplicate"):
            g.add_task(spec("a"))

    def test_edge_unknown_task_rejected(self):
        g = TaskGraph()
        g.add_task(spec("a", rate=1.0))
        with pytest.raises(GraphError, match="unknown"):
            g.add_edge("a", "zzz")
        with pytest.raises(GraphError, match="unknown"):
            g.add_edge("zzz", "a")

    def test_self_loop_rejected(self):
        g = TaskGraph()
        g.add_task(spec("a", rate=1.0))
        with pytest.raises(GraphError, match="self-loop"):
            g.add_edge("a", "a")

    def test_unknown_lookup_raises(self):
        with pytest.raises(GraphError, match="unknown"):
            TaskGraph().task("nope")

    def test_iteration_order_is_insertion_order(self):
        g = linear_graph()
        assert [t.name for t in g] == ["a", "b", "c"]


class TestStructure:
    def test_sources_and_sinks(self):
        g = linear_graph()
        assert [t.name for t in g.sources()] == ["a"]
        assert [t.name for t in g.sinks()] == ["c"]

    def test_kind(self):
        g = linear_graph()
        assert g.kind("a") is TaskKind.SOURCE
        assert g.kind("b") is TaskKind.INTERMEDIATE
        assert g.kind("c") is TaskKind.SINK

    def test_ipred_isucc(self):
        g = linear_graph()
        assert [t.name for t in g.ipred("b")] == ["a"]
        assert [t.name for t in g.isucc("b")] == ["c"]
        assert g.ipred("a") == []
        assert g.isucc("c") == []

    def test_edges_listing(self):
        g = linear_graph()
        assert g.edges() == [("a", "b"), ("b", "c")]

    def test_topological_order_linear(self):
        g = linear_graph()
        assert [t.name for t in g.topological_order()] == ["a", "b", "c"]

    def test_topological_order_detects_cycle(self):
        g = linear_graph()
        g.add_edge("c", "b")  # creates a cycle b -> c -> b
        with pytest.raises(GraphError, match="cycle"):
            g.topological_order()

    def test_ancestors_descendants(self):
        g = linear_graph()
        assert g.ancestors("c") == {"a", "b"}
        assert g.ancestors("a") == set()
        # Descendants, read through the ancestor relation.
        assert {n for n in "abc" if "a" in g.ancestors(n)} == {"b", "c"}
        assert {n for n in "abc" if "c" in g.ancestors(n)} == set()

    def test_chains_enumerates_all_paths(self):
        g = TaskGraph()
        g.add_task(spec("s", rate=1.0))
        g.add_task(spec("l"))
        g.add_task(spec("r"))
        g.add_task(spec("k"))
        g.add_edge("s", "l")
        g.add_edge("s", "r")
        g.add_edge("l", "k")
        g.add_edge("r", "k")
        chains = g.chains()
        assert ["s", "l", "k"] in chains
        assert ["s", "r", "k"] in chains
        assert len(chains) == 2

    def test_critical_path_length(self):
        g = linear_graph()
        length = g.critical_path_length({"a": 0.01, "b": 0.02, "c": 0.03})
        assert length == pytest.approx(0.06)

    def test_critical_path_takes_longest_branch(self):
        g = TaskGraph()
        g.add_task(spec("s", rate=1.0))
        g.add_task(spec("fast"))
        g.add_task(spec("slow"))
        g.add_task(spec("k"))
        g.add_edge("s", "fast")
        g.add_edge("s", "slow")
        g.add_edge("fast", "k")
        g.add_edge("slow", "k")
        length = g.critical_path_length({"s": 0.01, "fast": 0.01, "slow": 0.1, "k": 0.01})
        assert length == pytest.approx(0.12)


class TestValidation:
    def test_valid_graph_passes(self):
        linear_graph().validate()

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError, match="empty"):
            TaskGraph().validate()

    def test_source_without_rate_rejected(self):
        g = TaskGraph()
        g.add_task(spec("a"))  # source but no rate
        with pytest.raises(GraphError, match="no rate"):
            g.validate()

    def test_non_source_with_rate_rejected(self):
        g = TaskGraph()
        g.add_task(spec("a", rate=10.0))
        g.add_task(spec("b", rate=10.0))
        g.add_edge("a", "b")
        with pytest.raises(GraphError, match="must not have a rate"):
            g.validate()

    def test_no_sink_rejected(self):
        # Build a cycle-free graph where every task has successors is
        # impossible in a DAG, so "no sink" can only mean a cycle; the
        # cycle error fires first.
        g = linear_graph()
        g.add_edge("c", "b")
        with pytest.raises(GraphError):
            g.validate()


class TestRendering:
    def test_summary_lists_all_tasks(self):
        text = linear_graph().summary()
        for name in ("a", "b", "c"):
            assert name in text
        assert "kind=source" in text
        assert "kind=sink" in text
