"""A silent leader cannot stall the chain: its view is skipped as NO-OP.

Node 1 leads view 1 and says nothing.  Every correct node times out, probes
its broadcast instance (no echoes: noadopt), signs a noadopt statement and
broadcasts it in a new-view block.  A quorum of those is the proof that no
block can ever complete in view 1, so the next leader justifies skipping it
and the view finalizes as NO-OP everywhere.
"""

from bbca_chain.chain import NO_OP
from bbca_chain.simnet import Scenario, Simulator, Strategy

scenario = Scenario(n=4, seed=3, delta_post=10, horizon=4,
                    strategies={1: Strategy("silent")})
result = Simulator(scenario).run()

print("probe results while the timers fired:")
for node_id, probes in sorted(result.trace.probes.items()):
    for tick, view, adopted, ref in probes:
        outcome = f"adopt {ref.hex()[:12]}" if adopted else "noadopt"
        print(f"  node {node_id} probed view {view} at tick {tick}: "
              f"{outcome}")
print()

for node_id in result.scenario.correct_nodes():
    node = result.nodes[node_id]
    skipped = [v for v, entry in sorted(node.finalized.items())
               if entry is NO_OP]
    print(f"node {node_id}: skipped views {skipped}, "
          f"committed through view {node.last_committed}, "
          f"log length {len(node.committed_log)}")

logs = {tuple(result.nodes[i].committed_log)
        for i in result.scenario.correct_nodes()}
print("\nlogs byte-identical across correct nodes:", len(logs) == 1)
