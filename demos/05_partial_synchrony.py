"""Life before and after the stabilization tick.

Until tick 60 the network drops everything (to be redelivered once stable);
after it, delays are bounded by 10 ticks.  View timers keep local time, so
nodes conclude view 1 blind, and the protocol reassembles itself within a
bounded window once messages flow: the first wholly post-stabilization view
with a correct leader commits within timer + 4 delays of the bound.
"""

from bbca_chain.simnet import PreGstPolicy, Scenario, Simulator

# No byzantine nodes here; the network itself is the adversary.
scenario = Scenario(n=4, seed=1, delta_post=10, gst=60,
                    pre_gst=PreGstPolicy("drop"), t_max=40, horizon=5)
result = Simulator(scenario).run()

deadline = scenario.gst + scenario.timer_ticks + 4 * scenario.delta_post
print(f"stabilization at {scenario.gst}, timer {scenario.timer_ticks}, "
      f"delay bound {scenario.delta_post}")
print(f"commit deadline for the first stable view: {deadline}")
print()

print("view entries (tick@cause), per node:")
for node_id in sorted(result.nodes):
    entries = result.trace.view_entries.get(node_id, {})
    row = ", ".join(f"v{v}:{t}({c})" for v, (t, c) in sorted(entries.items()))
    print(f"  node {node_id}: {row}")
print()

node = result.nodes[0]
for view in sorted(v for v in node.finalized if v > 0):
    entry = node.finalized[view]
    if isinstance(entry, str):
        print(f"view {view}: skipped")
        continue
    commits = result.trace.commit_ticks.get(entry, {})
    print(f"view {view}: committed at ticks {sorted(commits.values())}"
          f"{' (within deadline)' if max(commits.values()) <= deadline else ''}")
