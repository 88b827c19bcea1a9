"""The trace's packed tables: per-block ticks and per-node view entries read
as the dicts they replace, and cost a bounded number of bytes per block."""

import tracemalloc

import pytest

from bbca_chain.blocks import GENESIS_REF, make_data
from bbca_chain.simnet import Scenario, Simulator
from bbca_chain.trace import Trace

from test_golden_digests import SHAPES
from test_simnet import run_kept


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_packed_tables_equal_the_tables_the_records_give(name):
    trace = run_kept(SHAPES[name][0]).trace
    trace.flush()
    commits, entries = {}, {}  # digest prefix -> {node: tick}; the old shape
    for record in trace.kept:
        if record[0] == "commit":
            _, tick, node, _view, prefixes = record
            for prefix in prefixes.split(","):
                commits.setdefault(prefix, {})[node] = tick
        elif record[0] == "view":
            _, tick, node, view, cause = record
            entries.setdefault(node, {})[view] = (tick, cause)
    assert commits and entries
    by_prefix = {ref.hex()[:12]: ticks
                 for ref, ticks in trace.commit_ticks.items()}
    assert by_prefix == commits
    for ref, _ in trace.commit_ticks.items():
        assert trace.commit_ticks.get(ref) == commits[ref.hex()[:12]]
    assert trace.commit_ticks.get(bytes(32)) is None
    assert {node: dict(log.items())
            for node, log in trace.view_entries.items()} == entries
    for node, log in trace.view_entries.items():
        for view, entry in entries[node].items():
            assert log[view] == log.get(view) == entry
        assert log.get(max(entries[node]) + 1) is None


def test_a_block_committed_before_it_is_sent_has_no_send_tick_till_then():
    trace = Trace(4)
    block = make_data(0, 1, [GENESIS_REF], b"late")
    trace.committed(2, 30, 1, (block,))
    assert trace.commit_ticks.get(block.digest) == {2: 30}
    assert block.digest not in trace.send_ticks
    with pytest.raises(KeyError):
        trace.send_ticks[block.digest]
    trace.sent([block], 35)
    trace.sent([block], 50)  # only the first send counts
    assert trace.send_ticks[block.digest] == 35
    assert trace.commit_ticks.get(block.digest) == {2: 30}
    assert trace.records == [("commit", 30, 2, 1, block.digest.hex()[:12])]


def test_a_view_log_answers_between_appends():
    # A lookup releases its view of the packed views, so the log still grows.
    trace, expected = Trace(4), {}
    for view, tick, cause in ((1, 0, "init"), (3, 40, "noadopt_quorum"),
                              (4, 55, "complete_recv")):
        trace.entered(3, tick, view, cause)
        log = trace.view_entries[3]
        expected[view] = (tick, cause)
        assert dict(log.items()) == expected
        assert log[view] == (tick, cause) and log.get(2) is None
    assert list(log.view_ticks()) == [(1, 0), (3, 40), (4, 55)]
    assert trace.records == [("view", tick, 3, view, cause)
                             for view, (tick, cause) in expected.items()]


# Traced bytes the packed tables hold per committed block: about 100-111 at
# horizons 20 and 80 (n=4, Python 3.11); the per-block dicts they replaced
# held 330-360.
BYTES_PER_BLOCK = 160


@pytest.mark.parametrize("horizon", [20, 80])
def test_trace_tables_cost_a_bounded_number_of_bytes_per_block(horizon):
    injections = tuple((tick, tick % 4)
                       for tick in range(3, 10 * horizon, 20))
    scenario = Scenario(n=4, seed=21, delta_post=5, delay_mode="random",
                        horizon=horizon, injections=injections)
    tracemalloc.start()
    try:
        result = Simulator(scenario).run()
        before = tracemalloc.get_traced_memory()[0]
        result.trace.block_ticks.clear()
        result.trace.view_entries.clear()
        held = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    blocks = len(result.nodes[0].committed_log)
    assert blocks > 4 * horizon
    assert held / blocks < BYTES_PER_BLOCK, (held, blocks)
