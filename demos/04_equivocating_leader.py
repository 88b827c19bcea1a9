"""An equivocating leader feeds two proposals to two halves of the network.

Neither variant can complete: completion needs a quorum of READY votes and
each correct node echoes at most one variant.  But one variant can still
gather an echo quorum, and whoever holds those echoes adopts it on timeout.
The adopt certificate pins view 1 to that variant, consistently, on every
correct node; the chain keeps moving.
"""

from bbca_chain.simnet import Scenario, Simulator, Strategy

scenario = Scenario(n=4, seed=5, delta_post=10, t_max=60, horizon=3,
                    strategies={1: Strategy("equivocate_init")})
result = Simulator(scenario).run()

print("how each correct node entered view 2:")
for node_id in result.scenario.correct_nodes():
    tick, cause = result.trace.view_entries[node_id][2]
    print(f"  node {node_id}: at tick {tick} via {cause}")
print()

finalized = {result.nodes[i].finalized[1]
             for i in result.scenario.correct_nodes()}
print("distinct view-1 blocks finalized by correct nodes:", len(finalized))
# A node keeps a committed block's digest, view, kind and author, not its
# body.
witness = result.nodes[result.scenario.correct_nodes()[0]]
_, _, digest, kind, author = next(
    row for row in witness.committed_log_export()
    if bytes.fromhex(row[2]) == witness.finalized[1])
print(f"the surviving variant: {kind.lower()} block {digest[:12]} "
      f"by node {author}")
print()

for node_id in result.scenario.correct_nodes():
    node = result.nodes[node_id]
    print(f"node {node_id}: committed through view {node.last_committed}, "
          f"log length {len(node.committed_log)}")
