"""The run's memo: every entry is the value its key names, and what the
memo and the module caches hold stays flat with run length and run count.

A memo table maps ``(fn, *args)`` to ``fn(*args)``.  An entry stored under
the wrong key would move a digest only on the schedule that reads it;
recomputing every entry reports it directly.
"""

import pytest

from bbca_chain import explore as ex
from bbca_chain.simnet import Scenario, Simulator, Strategy
from conftest import filled_module_caches
from test_golden_digests import SHAPES


def wrong_entries(memo) -> list[tuple]:
    """The keys of ``memo`` whose stored value differs from a
    recomputation with the plain functions."""
    return [key for table in memo.values()
            for key, value in table.items() if key[0](*key[1:]) != value]


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_every_memo_entry_of_a_golden_run_is_its_keys_value(
        monkeypatch, name):
    wrong, sizes = [], []
    trim = Simulator._trim_memo

    def checking(sim):
        # Every entry is checked before a trim drops its table.
        wrong.extend(wrong_entries(sim.memo))
        sizes.append(sum(map(len, sim.memo.values())))
        trim(sim)

    monkeypatch.setattr(Simulator, "_trim_memo", checking)
    sim = Simulator(SHAPES[name][0])
    sim.run()
    assert wrong == [] and wrong_entries(sim.memo) == []
    assert max(sizes) > 0


def test_every_memo_entry_of_a_chain_exploration_is_its_keys_value():
    world = ex.chain_two_views()
    memo = world.memo
    assert ex.explore(world, depth=2).leaves == 88
    assert sum(map(len, memo.values())) > 0
    assert wrong_entries(memo) == []


def memo_views_at_end(horizon: int) -> tuple[list[int], list[int]]:
    sim = Simulator(Scenario(n=4, seed=21, delay_mode="random",
                             delta_post=5, horizon=horizon))
    sim.run()
    return sorted(sim.memo), [node.view for node in sim.nodes.values()]


def test_the_memo_holds_the_same_views_whatever_the_run_length():
    short, long = memo_views_at_end(20), memo_views_at_end(80)
    assert len(short) == len(long)
    for horizon, (views, node_views) in ((20, short), (80, long)):
        # Every node stands one view past the horizon, which it entered
        # without a ``ViewEntered``: the last trim kept the views from the
        # horizon - 2 on.
        assert node_views == [horizon + 1] * 4
        assert views and min(views) >= horizon - 2
        assert max(views) <= horizon + 1


def test_a_serial_sweep_leaves_no_module_cache_filled():
    for seed in range(20):
        sim = Simulator(Scenario(n=7, seed=seed, delay_mode="random",
                                 delta_post=5, horizon=8,
                                 strategies={1: Strategy("replay")}))
        assert not sim.run().failed
    assert filled_module_caches() == {}
