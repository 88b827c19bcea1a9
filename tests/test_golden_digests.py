"""Pinned behaviour oracle: trace digests and explorer verdicts that must not
drift across commits.

The trace digest is the SHA-256 of every exported trace line, so any change
to scheduling, message contents, node decisions or the trace's text format
shows up here.  Criterion 7 only proves that repeated runs in one process
agree; these values prove stability across code changes.  A change that is
meant to alter behaviour must say so and re-pin the values it changes.
"""

import pytest

from bbca_chain import explore as ex
from bbca_chain.simnet import STRATEGIES, PreGstPolicy, Scenario, Strategy, run

SHAPES = {
    "n4-uniform": (
        Scenario(n=4, seed=1, delta_post=10, horizon=3),
        "463df12dc0f946ae1358ee47df89bb9b3223c076c8c829ab358e2259acca5384"),
    "n4-random-adversarial-pre-gst": (
        Scenario(n=4, seed=9, delta_post=6, delay_mode="random", gst=30,
                 pre_gst=PreGstPolicy("adversarial", 25), horizon=4),
        "71f0ff7d3ae3e81a1e7c3ff1b012b72d87d022dbed2fe51260c50e92893948aa"),
    "n4-drop-pre-gst-payloads": (
        Scenario(n=4, seed=3, delta_post=5, delay_mode="random", gst=25,
                 pre_gst=PreGstPolicy("drop"), horizon=4,
                 injections=((5, 1), (30, 2))),
        "c05e11569daed7e1709d7f0ffc5b0521fc0cc892ac90f5a965c88ad4306adf64"),
    "n4-payloads-audit": (
        Scenario(n=4, seed=2, delta_post=10, horizon=3,
                 injections=((20, 0), (25, 3)), audit_probe=True),
        "99d79ea97e48ed6c9eac814313f048f303ffe78cc0c34d0ef6ab97ca9ac20461"),
    "n4-equivocate-init-audit": (
        Scenario(n=4, seed=5, delta_post=5, delay_mode="random", horizon=4,
                 strategies={1: Strategy("equivocate_init")},
                 audit_probe=True),
        "636d9a1bd1010ea8fac178d704e69a650942dbaf8e734912e99f0551e517e423"),
    "n7-silent": (
        Scenario(n=7, seed=11, delta_post=5, delay_mode="random", horizon=4,
                 strategies={1: Strategy("silent")}),
        "3ca5677aeb2ffc984bce25712bd84dce69d55c6e28f464d8df95bd903884edc2"),
    "n7-withhold-ready": (
        Scenario(n=7, seed=12, delta_post=5, delay_mode="random", gst=40,
                 pre_gst=PreGstPolicy("adversarial", 30), t_max=25,
                 horizon=6, stop_after_committed=2,
                 strategies={1: Strategy("withhold_ready"),
                             4: Strategy("withhold_ready")}),
        "2ef832a10ec53e88becaae418b896429679cde59c70dab256224afee6756f1c2"),
    "n7-equivocate-init": (
        Scenario(n=7, seed=13, delta_post=5, delay_mode="random", horizon=4,
                 strategies={1: Strategy("equivocate_init")}),
        "7fc387b07b759587bc53f6613ce2d3e863117598b748190e104c1937d53736a6"),
    "n7-equivocate-data-payloads": (
        Scenario(n=7, seed=14, delta_post=5, delay_mode="random", horizon=4,
                 strategies={2: Strategy("equivocate_data")},
                 injections=((10, 2), (12, 0))),
        "bbbb2a954a1c27fa856e295882394e67bd8796368cf378d13ac287b52629d132"),
    "n7-replay-audit": (
        Scenario(n=7, seed=15, delta_post=5, delay_mode="random", horizon=3,
                 strategies={3: Strategy("replay")}, audit_probe=True),
        "7d227d4d2675951a7a94200523e920c803d2c7159608b044997ffc2f79217d6a"),
    "n7-delay-own": (
        Scenario(n=7, seed=16, delta_post=5, delay_mode="random", gst=20,
                 pre_gst=PreGstPolicy("drop"), t_max=30, horizon=4,
                 strategies={1: Strategy("delay_own", max_delay=10)}),
        "ee75aa5ce2fb92c680aa81d540c6efbf2c51ab6eb9f7b6a0e3baa05f62984e57"),
    "n7-uniform-payloads": (
        Scenario(n=7, seed=17, delta_post=10, horizon=3,
                 injections=((20, 4),)),
        "7adc794a41b72e0fe23e65c46cc56115ece75d50edb112053cb7a6976bc64d70"),
}

# (leaves, violations, partial) of each explorer case at a small depth.
EXPLORE_CASES = {
    "bbca_correct_sender": (ex.bbca_correct_sender, 2, (68, 0, False)),
    "bbca_equivocating_sender": (ex.bbca_equivocating_sender, 2,
                                 (39, 0, False)),
    "bbca_crashed": (ex.bbca_crashed, 3, (222, 0, False)),
    "bbca_replay_with_probes": (ex.bbca_replay_with_probes, 2, (106, 0, False)),
    "chain_two_views": (ex.chain_two_views, 2, (88, 0, False)),
}


def test_shapes_cover_every_strategy():
    used = {strategy.name for scenario, _ in SHAPES.values()
            for strategy in scenario.strategies.values()}
    assert used == set(STRATEGIES)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_trace_digest_is_pinned(name):
    scenario, expected = SHAPES[name]
    assert run(scenario).trace.digest() == expected


@pytest.mark.parametrize("name", sorted(EXPLORE_CASES))
def test_explore_verdict_is_pinned(name):
    builder, depth, expected = EXPLORE_CASES[name]
    result = ex.explore(builder(), depth)
    assert (result.leaves, len(result.violations), result.partial) == expected
