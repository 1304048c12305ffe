"""Property-based structural tests over generated task graphs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generator import GeneratorConfig, generate_graph
from repro.workloads.profiles import effective_rates


@st.composite
def configs(draw):
    return GeneratorConfig(
        n_sources=draw(st.integers(min_value=1, max_value=4)),
        n_layers=draw(st.integers(min_value=0, max_value=4)),
        tasks_per_layer=draw(st.integers(min_value=1, max_value=5)),
        edge_density=draw(st.floats(min_value=0.0, max_value=1.0)),
        seed=draw(st.integers(min_value=0, max_value=500)),
    )


@given(cfg=configs())
@settings(max_examples=40, deadline=None)
def test_generated_graphs_are_well_formed(cfg):
    g = generate_graph(cfg)
    g.validate()

    order = [t.name for t in g.topological_order()]
    position = {name: i for i, name in enumerate(order)}
    # Every edge goes forward in topological order.
    for src, dst in g.edges():
        assert position[src] < position[dst]

    # Every ancestor precedes its descendant in topological order.
    for t in g:
        for anc in g.ancestors(t.name):
            assert position[anc] < position[t.name]

    # Exactly one sink named control; sources match config.
    assert [t.name for t in g.sinks()] == ["control"]
    assert len(g.sources()) == cfg.n_sources

    # Effective rates: AND-activation can only slow tasks down.
    eff = effective_rates(g)
    max_source_rate = max(eff[s.name] for s in g.sources())
    for t in g:
        assert 0.0 < eff[t.name] <= max_source_rate + 1e-9

    # Every chain starts at a source and ends at the control sink.
    for chain in g.chains():
        assert chain[0].startswith("source_")
        assert chain[-1] == "control"


@given(cfg=configs())
@settings(max_examples=20, deadline=None)
def test_summary_renders_for_any_graph(cfg):
    g = generate_graph(cfg)
    summary = g.summary()
    assert all(t.name in summary for t in g)
