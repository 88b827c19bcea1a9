"""One measured repetition of one workload, in a fresh process.

Reads a JSON spec on stdin (written by ``run.py``) and prints one JSON
result line on stdout.  A fresh process per repetition starts with cold
process-global caches (``decode_block`` and the ``validate_*`` validators
are ``lru_cache``s), as a command-line user does, and gives each
repetition its own set-up time and peak RSS.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads


def peak_rss_mb() -> float:
    """Peak resident set size of this process image, in MiB.

    Linux carries the pre-exec image's peak across ``execve`` into
    ``ru_maxrss``, so a worker started by a large parent would report the
    parent's peak; ``VmHWM`` starts afresh with the new image.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class LayerProbe:
    """Per-layer numbers of the traced run, read around each operation."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.msgs = 0
        self.bytes = 0
        self.dispatch_mark = 0
        self.late_over_early: list[float] = []
        self.held = {"dag.blocks_held_end": 0, "chain.instances_held_end": 0,
                     "chain.nvb_held_end": 0}
        self.trace_records = 0
        self.family: dict[str, dict] = {}

    def install(self) -> None:
        """Count delivered messages and bytes at the per-event boundary."""
        from bbca_chain import simnet
        dispatch = vars(simnet.Simulator).get("_dispatch")
        if dispatch is None:
            return

        def counting(sim, event):
            msg = getattr(event, "msg", None)
            if msg is not None:
                self.msgs += 1
                block = getattr(msg, "block", None)
                self.bytes += len(block.encoded if block is not None
                                  else getattr(msg, "message", b""))
            return dispatch(sim, event)

        simnet.Simulator._dispatch = counting

    @contextlib.contextmanager
    def around(self, label: str):
        family = "bbca" if label.startswith("bbca") else "chain"
        tracer = self.tracer
        before = list(tracer.self_s)
        started = time.perf_counter()
        yield
        took = time.perf_counter() - started
        entry = self.family.setdefault(family, {"seconds": 0.0, "self": {}})
        entry["seconds"] += took
        for idx, value in enumerate(tracer.self_s):
            gained = value - (before[idx] if idx < len(before) else 0.0)
            key = (tracer.layers[idx], tracer.names[idx])
            entry["self"][key] = entry["self"].get(key, 0.0) + gained

    def after(self, result) -> None:
        durations = self.tracer.durations.get("simnet.dispatch", [])
        events = durations[self.dispatch_mark:]
        self.dispatch_mark = len(durations)
        tenth = max(1, len(events) // 10)
        if len(events) >= 2:
            early = statistics.fmean(events[:tenth])
            late = statistics.fmean(events[-tenth:])
            self.late_over_early.append(late / early)
        self.trace_records += len(result.trace.records)
        nodes = result.nodes.values()
        held = {
            "dag.blocks_held_end": sum(
                len(getattr(n.dag, "delivered", ())) +
                len(getattr(n.dag, "pending", ())) for n in nodes),
            "chain.instances_held_end": sum(
                len(getattr(n, "instances", ())) for n in nodes),
            "chain.nvb_held_end": sum(
                sum(len(per_view) for per_view in
                    getattr(n, "new_view_blocks", {}).values())
                for n in nodes),
        }
        for key, value in held.items():
            self.held[key] = max(self.held[key], value)

    def metrics(self, wall_s: float, top_level_s: float) -> dict:
        t = self.tracer
        layer = t.snapshot()
        order = [d * 1e6 for d in t.durations.get("dag.order_under", [])]
        calls = t.calls_of
        counts = t.counts

        def ratio(part, whole):
            return part / whole if whole else 0.0

        def family_share(family, layers=(), names=()):
            entry = self.family.get(family)
            if not entry or not entry["seconds"]:
                return 0.0
            part = sum(v for (lay, name), v in entry["self"].items()
                       if lay in layers or name in names)
            return part / entry["seconds"]

        out = {
            "dag.insert.calls": calls("dag.insert"),
            "dag.insert.self_s": t.self_of("dag.insert"),
            "dag.tips.calls": calls("dag.tips"),
            "dag.tips.self_s": t.self_of("dag.tips"),
            "dag.ancestry.calls": calls("dag.ancestry"),
            "dag.ancestry.self_s": t.self_of("dag.ancestry"),
            "dag.order_under.calls": calls("dag.order_under"),
            "dag.order_under.self_s": t.self_of("dag.order_under"),
            "dag.order_under.p99_us": workloads.percentile(order, 99),
            "dag.self_s": layer.get("dag", 0.0),
            "chain.handle_message.calls": calls("chain.handle_message"),
            "chain.handle_message.self_s": t.self_of("chain.handle_message"),
            "chain.handle_timer.calls": calls("chain.handle_timer"),
            "chain.try_commit.calls": calls("chain.try_commit"),
            "chain.validate.calls": calls("chain.validate"),
            "chain.validate.hit_ratio": t.hit_ratio("chain.validate"),
            "chain.self_s": layer.get("chain", 0.0),
            "simnet.run.self_s": (t.self_of("simnet.run")
                                  + t.self_of("simnet.dispatch")),
            "simnet.events": calls("simnet.dispatch"),
            "simnet.msgs_delivered": self.msgs,
            "simnet.bytes_delivered": self.bytes,
            "simnet.trace_records": self.trace_records,
            "simnet.trace_digest_s": t.self_of("simnet.trace_digest"),
            "simnet.late_over_early": (statistics.median(self.late_over_early)
                                       if self.late_over_early else 0.0),
            "blocks.encode_block.calls": calls("blocks.encode_block"),
            "blocks.decode_block.calls": calls("blocks.decode_block"),
            "blocks.decode_block.hit_ratio": t.hit_ratio("blocks.decode_block"),
            "blocks.verify_cert.calls": calls("blocks.verify_cert"),
            "blocks.block_hash.calls": counts.get("blocks.block_hash", 0),
            "blocks.self_s": layer.get("blocks", 0.0),
            "bbca.on_init.calls": calls("bbca.on_init"),
            "bbca.on_echo.calls": calls("bbca.on_echo"),
            "bbca.on_echo.accepted_ratio": ratio(
                counts.get("bbca.on_echo.accepted", 0), calls("bbca.on_echo")),
            "bbca.on_ready.calls": calls("bbca.on_ready"),
            "bbca.on_ready.accepted_ratio": ratio(
                counts.get("bbca.on_ready.accepted", 0),
                calls("bbca.on_ready")),
            "bbca.probe.calls": calls("bbca.probe"),
            "bbca.self_s": layer.get("bbca", 0.0),
            "encoding.statement.calls": calls("encoding.statement"),
            "encoding.digest32.calls": calls("encoding.digest32"),
            "encoding.self_s": layer.get("encoding", 0.0),
            "identity.sign.calls": calls("identity.sign"),
            "identity.verify.calls": calls("identity.verify"),
            "identity.self_s": layer.get("identity", 0.0),
            "explore.execute.calls": calls("explore.execute"),
            "explore.execute.self_s": t.self_of("explore.execute"),
            "explore.clone.calls": calls("explore.clone"),
            "explore.clone.self_s": t.self_of("explore.clone"),
            "explore.check_leaf.self_s": t.self_of("explore.check_leaf"),
            "explore.self_s": layer.get("explore", 0.0),
            "explore.bbca.handler_share": family_share(
                "bbca", layers=("bbca", "encoding", "identity")),
            "explore.chain.clone_share": family_share(
                "chain", names=("explore.clone",)),
            "invariants.self_s": layer.get("invariants", 0.0),
            "invariants.echo_once.self_s": t.self_of("invariants.echo_once"),
            "scenario.parse_config.self_s": t.self_of("scenario.parse_config"),
            "bench.other.self_s": wall_s - top_level_s,
            "bench.traced_wall_s": wall_s,
        }
        out.update(self.held)
        return out


def main() -> None:
    spec = json.load(sys.stdin)
    workloads.import_program(Path(spec["root"]))
    tracer = probe = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        probe = LayerProbe(tracer)
        probe.install()
    work = workloads.Work(spec["workload"], spec["inputs"])
    work.setup()
    setup_s = time.monotonic() - spec["spawned_at"]
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": setup_s}))
        return
    if probe is not None:
        if spec["workload"] == "explore_mixed":
            work.around_op = probe.around
        else:
            work.after_op = probe.after
        top_before = tracer.top_level_s()
    started = time.perf_counter()
    work.run()
    wall_s = time.perf_counter() - started
    summary = workloads.summarize(spec["workload"], work.ops)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "ops": [{key: value for key, value in op.items() if key != "latencies"}
                for op in work.ops],
        **summary,
    }
    if probe is not None:
        out["layers"] = probe.metrics(wall_s, tracer.top_level_s() - top_before)
        out["trace_missing"] = tracer.missing
        out["spans_kept"] = len(tracer.spans)
        out["spans_dropped"] = tracer.dropped
        tracer.write_spans(spec["spans_path"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
