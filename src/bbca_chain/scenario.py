"""Scenario configuration: JSON in, validated harness config out.

Configs are strict: unknown keys and wrong types are rejected with the
offending field path.  ``f`` is always derived from ``n``, never supplied.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .identity import ConfigError
from .invariants import ALL_CHECKS, UNCONDITIONAL
from .simnet import PreGstPolicy, Scenario, Strategy


class ExploreSpec(NamedTuple):
    case: str
    max_leaves: int
    check_validity: bool
    timeout_node: int | None  # chain_two_views only


@dataclass
class HarnessConfig:
    """A validated config.  Campaigns and the benchmark vary its scenario
    with ``dataclasses.replace``."""

    name: str
    scenario: Scenario
    invariants: list[str]  # each name once, in report order
    expect_noop_views: list[int]
    expect_trips: dict | None
    censorship_cutoff: int | None
    explore: ExploreSpec | None


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
        # A bool is an int to isinstance, and is never a count.
        if not isinstance(value, kind) or (isinstance(value, bool)
                                           and kind is not bool):
            kinds = kind if isinstance(kind, tuple) else (kind,)
            raise ConfigError(f"{self.path}.{key}: expected "
                              f"{' or '.join(k.__name__ for k in kinds)}, "
                              f"got {type(value).__name__}")
        return value

    def present(self, kinds: dict) -> dict:
        """The keys of ``kinds`` this level sets, each taken as its kind:
        a record's own defaults fill the rest."""
        return {key: self.take(key, kind) for key, kind in kinds.items()
                if key in self.raw}

    def finish(self):
        if self.raw:
            stray = sorted(self.raw)[0]
            raise ConfigError(f"{self.path}.{stray}: unknown field")


def _parse_delay_record(kind, raw: dict, path: str, key: str):
    """A ``Strategy`` or ``PreGstPolicy``: its name under ``key``, and the
    ``max_delay`` it validates when the config sets one."""
    fields = _Fields(raw, path)
    name = fields.take(key, str, required=True)
    max_delay = fields.present({"max_delay": int})
    fields.finish()
    try:
        return kind(name, **max_delay)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_adversary(raw: dict, path: str) -> dict[int, Strategy]:
    strategies = {}
    for key, value in raw.items():
        # Canonical ids only: "01" or " 1" would silently replace node 1.
        node = int(key) if str(key).isdecimal() else None
        if key != str(node):
            raise ConfigError(f"{path}.{key}: node ids are canonical integers")
        strategies[node] = _parse_delay_record(
            Strategy, value, f"{path}.{key}", "strategy")
    return strategies


def _check_views(views: list, path: str) -> list:
    for index, view in enumerate(views):
        if isinstance(view, bool) or not isinstance(view, int) or view < 1:
            raise ConfigError(f"{path}[{index}]: expected a view number of "
                              f"at least 1, got {view!r}")
    return views


def _parse_trips(raw: dict, path: str) -> dict:
    """``expect.trips``: the views whose backbones are timed, and the trips
    expected of a backbone and of a data block, each an integer or a
    string that ``Fraction`` parses."""
    fields = _Fields(raw, path)
    trips = fields.present({"views": list, "backbone": (int, str),
                            "data": (int, str)})
    fields.finish()
    views = _check_views(trips.get("views", []), f"{path}.views")
    if views and "backbone" not in trips:
        raise ConfigError(f"{path}.backbone: required when views is not empty")
    for key in ("backbone", "data"):
        try:
            Fraction(trips.get(key, 0))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(
                f"{path}.{key}: {trips[key]!r} is not a number") from None
    return trips


def parse_config(raw: dict, path: str = "config") -> HarnessConfig:
    fields = _Fields(raw, path)
    name = fields.take("name", str, default="scenario")
    n = fields.take("n", int, required=True)
    settings = fields.present({
        "seed": int, "gst": int, "delta_post": int, "delay": str,
        "t_max": int, "horizon": int, "stop_after_committed": int,
        "max_ticks": int})
    if "delay" in settings:
        settings["delay_mode"] = settings.pop("delay")

    pre_raw = fields.take("pre_gst", dict, default=None)
    pre = None if pre_raw is None else _parse_delay_record(
        PreGstPolicy, pre_raw, f"{path}.pre_gst", "policy")

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
        scenario = Scenario(n=n, pre_gst=pre, strategies=strategies,
                            injections=tuple(injections), **settings)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    expect = _Fields(expect_raw, f"{path}.expect")
    noop_views = _check_views(expect.take("noop_views", list, default=[]),
                              f"{path}.expect.noop_views")
    trips = expect.take("trips", dict, default=None)
    if trips is not None:
        trips = _parse_trips(trips, f"{path}.expect.trips")
    liveness = expect.take("liveness", bool, default=False)
    growth = expect.take("growth", bool, default=False)
    cutoff = expect.take("censorship_cutoff", int, default=None)
    log_identical = expect.take("log_identical", bool, default=False)
    expect.finish()
    # Each scenario-scoped check: the expect key that selects it, and
    # whether this config sets it.
    scoped = {"noop_views": ("noop_views", bool(noop_views)),
              "trips": ("trips", trips is not None),
              "liveness": ("liveness", liveness),
              "growth": ("growth", growth),
              "censorship": ("censorship_cutoff", cutoff is not None),
              "log_identical": ("log_identical", log_identical)}

    if invariants_raw == "all":
        invariants = list(UNCONDITIONAL)
    elif isinstance(invariants_raw, str):
        raise ConfigError(f"{path}.invariants: a string must be \"all\"")
    else:
        for index, inv in enumerate(invariants_raw):
            where = f"{path}.invariants[{index}]"
            if not isinstance(inv, str) or inv not in ALL_CHECKS:
                raise ConfigError(f"{where}: unknown check {inv!r}")
            if inv in scoped:
                raise ConfigError(
                    f"{where}: {inv!r} is selected only by "
                    f"{path}.expect.{scoped[inv][0]}")
        invariants = list(dict.fromkeys(invariants_raw))
    invariants += [check for check, (_key, on) in scoped.items() if on]

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
