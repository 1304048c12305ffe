"""Property-based structural tests over drawn layered task graphs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rt import ConstantExecTime, TaskGraph, TaskSpec
from repro.workloads.profiles import effective_rates


@st.composite
def layered_graphs(draw):
    """A layered DAG: sources -> intermediate layers -> one ``control`` sink.

    Layer widths, source rates and the edges between adjacent layers are
    drawn.  Each task reads from at least one task of the layer before it,
    and each task of a layer feeds at least one of the next, so ``control``
    is the only sink.
    """
    widths = draw(st.lists(st.integers(min_value=1, max_value=5), max_size=4))
    n_sources = draw(st.integers(min_value=1, max_value=4))
    g = TaskGraph()
    previous = []
    for i in range(n_sources):
        name = f"source_{i}"
        g.add_task(TaskSpec(name, priority=len(widths) + 2, relative_deadline=0.1,
                            exec_model=ConstantExecTime(0.001),
                            rate=draw(st.sampled_from([10.0, 20.0, 40.0]))))
        previous.append(name)
    for layer, width in enumerate(widths):
        current = [f"layer{layer}_task{j}" for j in range(width)]
        for name in current:
            g.add_task(TaskSpec(name, priority=len(widths) + 1 - layer, relative_deadline=0.1,
                                exec_model=ConstantExecTime(0.002)))
            preds = draw(st.lists(st.sampled_from(previous), min_size=1, unique=True))
            for pred in preds:
                g.add_edge(pred, name)
        for pred in previous:
            if not g.isucc(pred):
                g.add_edge(pred, draw(st.sampled_from(current)))
        previous = current
    g.add_task(TaskSpec("control", priority=1, relative_deadline=0.1,
                        exec_model=ConstantExecTime(0.001)))
    for pred in previous:
        g.add_edge(pred, "control")
    g.validate()
    return g


@given(g=layered_graphs())
@settings(max_examples=40, deadline=None)
def test_generated_graphs_are_well_formed(g):
    order = [t.name for t in g.topological_order()]
    position = {name: i for i, name in enumerate(order)}
    # Every edge goes forward in topological order.
    for src, dst in g.edges():
        assert position[src] < position[dst]

    # Every ancestor precedes its descendant in topological order.
    for t in g:
        for anc in g.ancestors(t.name):
            assert position[anc] < position[t.name]

    # Exactly one sink named control; the sources are the rated tasks.
    assert [t.name for t in g.sinks()] == ["control"]
    assert {t.name for t in g.sources()} == {t.name for t in g if t.rate is not None}

    # Effective rates: AND-activation can only slow tasks down.
    eff = effective_rates(g)
    max_source_rate = max(eff[s.name] for s in g.sources())
    for t in g:
        assert 0.0 < eff[t.name] <= max_source_rate + 1e-9

    # Every chain starts at a source and ends at the control sink.
    for chain in g.chains():
        assert chain[0].startswith("source_")
        assert chain[-1] == "control"


@given(g=layered_graphs())
@settings(max_examples=20, deadline=None)
def test_summary_renders_for_any_graph(g):
    summary = g.summary()
    assert all(t.name in summary for t in g)
