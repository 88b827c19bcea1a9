"""Scenario configuration: JSON in, validated harness config out.

Configs are strict: unknown keys and wrong types are rejected with the
offending field path.  ``f`` is always derived from ``n``, never supplied.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .identity import ConfigError
from .invariants import ALL_CHECKS, UNCONDITIONAL
from .simnet import PreGstPolicy, Scenario, Strategy


class ExploreSpec(NamedTuple):
    case: str
    max_leaves: int = 200_000
    check_validity: bool = False
    timeout_node: int | None = None  # chain_two_views only


@dataclass
class HarnessConfig:
    """A validated config.  Campaigns and the benchmark vary its scenario
    with ``dataclasses.replace``."""

    name: str
    scenario: Scenario
    invariants: list[str]
    expect_noop_views: list[int] = field(default_factory=list)
    expect_trips: dict | None = None
    censorship_cutoff: int | None = None
    explore: ExploreSpec | None = None

    def selected_checks(self):
        seen = dict.fromkeys(self.invariants)
        return [(name, ALL_CHECKS[name]) for name in seen]


class _Fields:
    """Typed, path-aware accessor over one dict level."""

    def __init__(self, raw: dict, path: str):
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected an object")
        self.raw = dict(raw)
        self.path = path

    def take(self, key, kind, default=None, required=False):
        if key not in self.raw:
            if required:
                raise ConfigError(f"{self.path}.{key}: required field missing")
            return default
        value = self.raw.pop(key)
        if kind is int and isinstance(value, bool):
            raise ConfigError(f"{self.path}.{key}: expected an integer")
        if not isinstance(value, kind):
            raise ConfigError(
                f"{self.path}.{key}: expected {kind.__name__}, "
                f"got {type(value).__name__}")
        return value

    def finish(self):
        if self.raw:
            stray = sorted(self.raw)[0]
            raise ConfigError(f"{self.path}.{stray}: unknown field")


def _parse_adversary(raw: dict, path: str) -> dict[int, Strategy]:
    strategies = {}
    for key, value in raw.items():
        # Canonical ids only: "01" or " 1" would silently replace node 1.
        node = int(key) if str(key).isdecimal() else None
        if key != str(node):
            raise ConfigError(f"{path}.{key}: node ids are canonical integers")
        entry = _Fields(value, f"{path}.{key}")
        name = entry.take("strategy", str, required=True)
        max_delay = entry.take("max_delay", int, default=0)
        entry.finish()
        try:
            strategies[node] = Strategy(name, max_delay)
        except ConfigError as exc:
            raise ConfigError(f"{path}.{key}: {exc}") from None
    return strategies


def parse_config(raw: dict, path: str = "config") -> HarnessConfig:
    fields = _Fields(raw, path)
    name = fields.take("name", str, default="scenario")
    n = fields.take("n", int, required=True)
    seed = fields.take("seed", int, default=0)
    gst = fields.take("gst", int, default=0)
    delta_post = fields.take("delta_post", int, default=10)
    delay_mode = fields.take("delay", str, default="uniform")
    t_max = fields.take("t_max", int, default=None)
    horizon = fields.take("horizon", int, default=8)
    stop_after = fields.take("stop_after_committed", int, default=None)
    max_ticks = fields.take("max_ticks", int, default=1_000_000)

    pre_raw = fields.take("pre_gst", dict, default=None)
    pre = None
    if pre_raw is not None:
        sub = _Fields(pre_raw, f"{path}.pre_gst")
        policy = sub.take("policy", str, required=True)
        max_delay = sub.take("max_delay", int, default=0)
        sub.finish()
        try:
            pre = PreGstPolicy(policy, max_delay)
        except ConfigError as exc:
            raise ConfigError(f"{path}.pre_gst: {exc}") from None

    adversary_raw = fields.take("adversary", dict, default={})
    strategies = _parse_adversary(adversary_raw, f"{path}.adversary")

    payloads_raw = fields.take("payloads", list, default=[])
    injections = []
    for index, item in enumerate(payloads_raw):
        sub = _Fields(item, f"{path}.payloads[{index}]")
        node = sub.take("node", int, required=True)
        tick = sub.take("tick", int, required=True)
        sub.finish()
        injections.append((tick, node))

    invariants_raw = fields.take("invariants", (str, list), default="all")
    expect_raw = fields.take("expect", dict, default={})
    explore_raw = fields.take("explore", dict, default=None)
    fields.finish()

    try:
        scenario = Scenario(
            n=n, seed=seed, gst=gst, delta_post=delta_post,
            delay_mode=delay_mode, pre_gst=pre, t_max=t_max, horizon=horizon,
            stop_after_committed=stop_after, max_ticks=max_ticks,
            strategies=strategies, injections=tuple(injections))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    expect = _Fields(expect_raw, f"{path}.expect")
    noop_views = expect.take("noop_views", list, default=[])
    trips = expect.take("trips", dict, default=None)
    liveness = expect.take("liveness", bool, default=False)
    growth = expect.take("growth", bool, default=False)
    cutoff = expect.take("censorship_cutoff", int, default=None)
    log_identical = expect.take("log_identical", bool, default=False)
    expect.finish()
    if trips is not None:
        allowed = {"views", "backbone", "data"}
        if set(trips) - allowed:
            stray = sorted(set(trips) - allowed)[0]
            raise ConfigError(f"{path}.expect.trips.{stray}: unknown field")

    if invariants_raw == "all":
        invariants = list(UNCONDITIONAL)
    elif isinstance(invariants_raw, str):
        raise ConfigError(f"{path}.invariants: a string must be \"all\"")
    else:
        invariants = list(invariants_raw)
        for index, inv in enumerate(invariants):
            if not isinstance(inv, str) or inv not in ALL_CHECKS:
                raise ConfigError(
                    f"{path}.invariants[{index}]: unknown check {inv!r}")
    if noop_views:
        invariants.append("noop_views")
    if trips is not None:
        invariants.append("trips")
    if liveness:
        invariants.append("liveness")
    if growth:
        invariants.append("growth")
    if cutoff is not None:
        invariants.append("censorship")
    if log_identical:
        invariants.append("log_identical")

    explore = None
    if explore_raw is not None:
        # Here: a simulator config skips a 3.7-5.8 ms import (-X importtime).
        from .explore import CASE_PARAMS, CASES
        sub = _Fields(explore_raw, f"{path}.explore")
        case = sub.take("case", str, required=True)
        max_leaves = sub.take("max_leaves", int, default=200_000)
        check_validity = sub.take("check_validity", bool, default=False)
        timeout_node = sub.take("timeout_node", int, default=None)
        sub.finish()
        if case not in CASES:
            raise ConfigError(f"{path}.explore.case: unknown case {case!r}")
        if n != CASE_PARAMS.n:
            raise ConfigError(
                f"{path}.n: exploration requires n={CASE_PARAMS.n}")
        if max_leaves < 1:
            raise ConfigError(f"{path}.explore.max_leaves: must be at least 1")
        if timeout_node is not None and case != "chain_two_views":
            raise ConfigError(
                f"{path}.explore.timeout_node: chain_two_views only")
        if timeout_node is not None and not 0 <= timeout_node < n:
            raise ConfigError(
                f"{path}.explore.timeout_node: out of range for n={n}")
        explore = ExploreSpec(case, max_leaves, check_validity, timeout_node)

    return HarnessConfig(
        name=name, scenario=scenario, invariants=invariants,
        expect_noop_views=list(noop_views), expect_trips=trips,
        censorship_cutoff=cutoff, explore=explore)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` for every object: ``json`` would keep the last
    of two equal keys without a word."""
    raw = {}
    for key, value in pairs:
        if key in raw:
            raise ConfigError(f"repeated key {key!r}")
        raw[key] = value
    return raw


def load_config(path: str) -> HarnessConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return parse_config(raw)
