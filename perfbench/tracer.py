"""Span tracing for the traced run, installed from outside the program.

Each public function of a layer is replaced, everywhere its name is bound in
the ``bbca_chain`` package (module globals and module-level registries such
as ``invariants.ALL_CHECKS``), by a wrapper that records a span: name,
start, end and parent.  Methods are replaced on their classes.  A span's
self time is its duration minus the time its child spans cover; wrappers
return exactly what the wrapped function returns, so a traced run has the
same behaviour digest as an untraced one.

Spans stay in memory (the first ``SPAN_CAP`` of them; counts and self times
cover every call) and are written out when the run ends.
"""

from __future__ import annotations

import itertools
import sys
import time

SPAN_CAP = 200_000

# (module, attribute, span name, layer).  An attribute of the form
# "Class.method" is patched on the class.  Several targets may share one
# span name; their calls and self times add up.
TARGETS = [
    ("identity", "sign", "identity.sign", "identity"),
    ("identity", "verify", "identity.verify", "identity"),
    ("identity", "statement_digest", "identity.statement_digest", "identity"),
    ("encoding", "digest32", "encoding.digest32", "encoding"),
    ("encoding", "echo_statement", "encoding.statement", "encoding"),
    ("encoding", "ready_statement", "encoding.statement", "encoding"),
    ("encoding", "noadopt_statement", "encoding.statement", "encoding"),
    ("blocks", "encode_block", "blocks.encode_block", "blocks"),
    ("blocks", "decode_block", "blocks.decode_block", "blocks"),
    ("blocks", "verify_cert", "blocks.verify_cert", "blocks"),
    ("blocks", "make_backbone", "blocks.make", "blocks"),
    ("blocks", "make_new_view", "blocks.make", "blocks"),
    ("blocks", "make_data", "blocks.make", "blocks"),
    ("bbca", "BbcaInstance.broadcast", "bbca.broadcast", "bbca"),
    ("bbca", "BbcaInstance.on_init", "bbca.on_init", "bbca"),
    ("bbca", "BbcaInstance.on_echo", "bbca.on_echo", "bbca"),
    ("bbca", "BbcaInstance.on_ready", "bbca.on_ready", "bbca"),
    ("bbca", "BbcaInstance.probe", "bbca.probe", "bbca"),
    ("bbca", "BbcaInstance.available_adopt", "bbca.available_adopt", "bbca"),
    ("dag", "DagStore.insert", "dag.insert", "dag"),
    ("dag", "DagStore.tips", "dag.tips", "dag"),
    ("dag", "DagStore.ancestry", "dag.ancestry", "dag"),
    ("dag", "DagStore.order_under", "dag.order_under", "dag"),
    ("chain", "ChainNode.start", "chain.start", "chain"),
    ("chain", "ChainNode.handle_message", "chain.handle_message", "chain"),
    ("chain", "ChainNode.handle_timer", "chain.handle_timer", "chain"),
    ("chain", "ChainNode.submit_payload", "chain.submit_payload", "chain"),
    ("chain", "ChainNode.audit_probe", "chain.audit_probe", "chain"),
    ("chain", "ChainNode.try_commit", "chain.try_commit", "chain"),
    ("chain", "validate_new_view_block", "chain.validate", "chain"),
    ("chain", "validate_backbone_block", "chain.validate", "chain"),
    ("simnet", "Simulator.run", "simnet.run", "simnet"),
    # The per-event boundary; its durations give simnet.late_over_early.
    ("simnet", "Simulator._dispatch", "simnet.dispatch", "simnet"),
    ("simnet", "Trace.digest", "simnet.trace_digest", "simnet"),
    ("explore", "explore", "explore.explore", "explore"),
    ("explore", "BbcaWorld.execute", "explore.execute", "explore"),
    ("explore", "ChainWorld.execute", "explore.execute", "explore"),
    ("explore", "BbcaWorld.clone", "explore.clone", "explore"),
    ("explore", "ChainWorld.clone", "explore.clone", "explore"),
    ("explore", "BbcaWorld.check_leaf", "explore.check_leaf", "explore"),
    ("explore", "ChainWorld.check_leaf", "explore.check_leaf", "explore"),
    ("scenario", "parse_config", "scenario.parse_config", "scenario"),
]

# Span names whose every duration is kept, for percentiles and per-event
# trends.
KEEP_DURATIONS = ("dag.order_under", "simnet.dispatch")

# Calls counted without a span: too frequent and too small to time.
COUNTED = [("blocks", "Block.__hash__", "blocks.block_hash")]

# Caches whose hit ratio is read from ``cache_info()``.
CACHES = {"blocks.decode_block": [("blocks", "decode_block")],
          "chain.validate": [("chain", "validate_new_view_block"),
                             ("chain", "validate_backbone_block")]}

# Handlers whose useful outcome is a signer newly recorded in this set.
ACCEPT_SETS = {"bbca.on_echo": "received_echo",
               "bbca.on_ready": "received_ready"}


class Tracer:
    def __init__(self, package: str = "bbca_chain"):
        self.package = package
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.dropped = 0
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.originals: dict[str, object] = {}
        # Open spans: ids and child-time accumulators; index 0 is the root.
        self._ids = [0]
        self._acc = [0.0]
        self._next_id = itertools.count(1)

    # -- bookkeeping -------------------------------------------------------

    def _index(self, name: str, layer: str) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def top_level_s(self) -> float:
        """Total duration of the spans that have no parent span."""
        return self._acc[0]

    def snapshot(self) -> dict[str, float]:
        """Self time per layer so far."""
        out: dict[str, float] = {}
        for layer, value in zip(self.layers, self.self_s):
            out[layer] = out.get(layer, 0.0) + value
        return out

    def self_of(self, name: str) -> float:
        return self.self_s[self.names.index(name)] if name in self.names else 0.0

    def calls_of(self, name: str) -> int:
        return self.calls[self.names.index(name)] if name in self.names else 0

    # -- wrappers ----------------------------------------------------------

    def span(self, fn, name: str, layer: str):
        idx = self._index(name, layer)
        calls, selfs, spans = self.calls, self.self_s, self.spans
        ids, acc, next_id = self._ids, self._acc, self._next_id
        durations = (self.durations.setdefault(name, [])
                     if name in KEEP_DURATIONS else None)
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span_id = next(next_id)
            parent = ids[-1]
            ids.append(span_id)
            acc.append(0.0)
            started = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf()
                child = acc.pop()
                ids.pop()
                took = ended - started
                selfs[idx] += took - child
                calls[idx] += 1
                acc[-1] += took
                if durations is not None:
                    durations.append(took)
                if len(spans) < SPAN_CAP:
                    spans.append((idx, span_id, parent, started, ended))
                else:
                    tracer.dropped += 1

        return traced

    def counter(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def acceptance(self, fn, name: str, attr: str):
        """Count calls that add a signer to ``instance.<attr>``."""
        key = f"{name}.accepted"
        counts = self.counts
        counts.setdefault(key, 0)

        def accepting(instance, *args, **kwargs):
            before = len(getattr(instance, attr, ()))
            out = fn(instance, *args, **kwargs)
            if len(getattr(instance, attr, ())) > before:
                counts[key] += 1
            return out

        return accepting

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == self.package
                                      or key.startswith(prefix))]

    def _rebind(self, original, replacement) -> None:
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                elif type(value) is dict and key != "__builtins__":
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = replacement

    def _lookup(self, module_name: str, attr: str):
        module = sys.modules.get(f"{self.package}.{module_name}")
        if module is None:
            return None, None, None
        if "." in attr:
            cls_name, method = attr.split(".", 1)
            cls = getattr(module, cls_name, None)
            if cls is None or method not in vars(cls):
                return None, None, None
            return cls, method, vars(cls)[method]
        return module, attr, getattr(module, attr, None)

    def install(self) -> None:
        import importlib
        for sub in ("identity", "encoding", "blocks", "bbca", "dag", "chain",
                    "simnet", "explore", "invariants", "scenario", "harness"):
            importlib.import_module(f"{self.package}.{sub}")
        for module_name, attr, name, layer in TARGETS:
            self._wrap(module_name, attr, name, layer)
        invariants = sys.modules[f"{self.package}.invariants"]
        for attr, value in sorted(vars(invariants).items()):
            if attr.startswith("check_") and callable(value):
                name = ("invariants.echo_once" if attr == "check_echo_once"
                        else "invariants.checks")
                self._wrap("invariants", attr, name, "invariants")
        for module_name, attr, name in COUNTED:
            owner, key, original = self._lookup(module_name, attr)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, key, self.counter(original, name))

    def _wrap(self, module_name: str, attr: str, name: str, layer: str):
        owner, key, original = self._lookup(module_name, attr)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self.originals[f"{module_name}.{attr}"] = original
        inner = original
        if name in ACCEPT_SETS:
            inner = self.acceptance(original, name, ACCEPT_SETS[name])
        wrapper = self.span(inner, name, layer)
        if isinstance(owner, type):
            setattr(owner, key, wrapper)
        else:
            self._rebind(original, wrapper)

    def hit_ratio(self, cache: str) -> float:
        hits = misses = 0
        for module_name, attr in CACHES[cache]:
            original = self.originals.get(f"{module_name}.{attr}")
            info = getattr(original, "cache_info", None)
            if info is not None:
                stats = info()
                hits += stats.hits
                misses += stats.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for idx, span_id, parent, started, ended in self.spans:
                out.write(f"{span_id}\t{parent}\t{self.names[idx]}\t"
                          f"{started:.9f}\t{ended:.9f}\n")
