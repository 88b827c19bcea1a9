"""Failure-free consensus: one broadcast per view, three hops per commit.

Uniform link delay d=10 ticks.  The leader of view v proposes the moment it
holds a justification for view v-1, so views commit back to back every 3d.
A data block injected one hop before the next proposal rides along and
commits in exactly 4 hops: its own best-effort broadcast plus the proposal's
three.
"""

from bbca_chain.invariants import trips_to_commit
from bbca_chain.simnet import Scenario, Simulator

scenario = Scenario(n=4, seed=1, delta_post=10, horizon=3,
                    injections=((20, 0),))
result = Simulator(scenario).run()

print("view entry ticks per node:")
for node_id in sorted(result.nodes):
    entries = result.trace.view_entries.get(node_id, {})
    row = ", ".join(f"v{v}@{t}" for v, (t, _) in sorted(entries.items()))
    print(f"  node {node_id}: {row}")
print()

node = result.nodes[0]
for view in (1, 2, 3):
    ref = node.finalized[view]  # the backbone's digest
    trips = trips_to_commit(result, ref)
    print(f"backbone of view {view}: sent at "
          f"{result.trace.send_ticks[ref]}, committed in {trips} trips")

(tick, who, ref), = result.trace.injected
print(f"data block from node {who} at tick {tick}: committed in "
      f"{trips_to_commit(result, ref)} trips")
print()

print("committed log (identical on every node):")
for position, view, digest, kind, author in node.committed_log_export():
    print(f"  {position:>2}  view {view}  {kind.lower():<8}  "
          f"author {author}  {digest[:16]}")
