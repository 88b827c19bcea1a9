"""Walk one broadcast instance by hand.

Four nodes, node 0 is the designated sender.  We play postman ourselves so
every state transition is visible: INIT fans out, echoes accumulate, a
quorum of echoes turns into READY votes and an ADOPT certificate, a quorum
of READY votes completes.
Then the probe interface: abort-before-quorum vs adopt-after-quorum.
"""

from bbca_chain.bbca import BbcaInstance, InstanceId, MsgKind
from bbca_chain.identity import params_for

params = params_for(4)
bid = InstanceId(sender=0, view=1)
nodes = {i: BbcaInstance(params, bid, i) for i in range(4)}

print(f"n={params.n}, f={params.f}, quorum={params.quorum}")
print()

# The sender broadcasts: an INIT plus its own signed echo.
outbox = [(0, msg) for msg in nodes[0].broadcast(b"block bytes")]
print("sender emits:", ", ".join(m.kind.name for _, m in outbox))

delivered = 0
while outbox:
    frm, msg = outbox.pop(0)
    for i, node in nodes.items():
        outs, cert = node.handle_message(frm, msg)
        if cert is not None:
            # An echo quorum hands back an ADOPT certificate, a ready
            # quorum a COMPLETE one.
            print(f"node {i} holds a {len(cert.sigs)}-signature "
                  f"{cert.kind.name} certificate")
        outbox.extend((i, out) for out in outs)
        delivered += 1

print(f"{delivered} deliveries; every node completed:",
      all(n.completed is not None for n in nodes.values()))
print()

# Probing. A fresh instance has nothing to adopt: the probe aborts it, and
# the abort is a promise to never send READY afterwards.
fresh = BbcaInstance(params, InstanceId(0, 2), 3)
print("fresh instance probe:", "noadopt" if fresh.probe() is None else "adopt",
      "| abort flag:", fresh.abort)

# Echo recording continues after the abort, so a later probe can upgrade.
sender = BbcaInstance(params, InstanceId(0, 2), 0)
for msg in sender.broadcast(b"late block"):
    if msg.kind == MsgKind.ECHO:
        fresh.on_echo(msg.message, msg.sig, 0)
for signer in (1, 2):
    helper = BbcaInstance(params, InstanceId(0, 2), signer)
    echo = helper.on_init(b"late block", 0)[0]
    fresh.on_echo(echo.message, echo.sig, signer)
cert = fresh.probe()
print("after a quorum of echoes, the same instance probes:",
      "noadopt" if cert is None else
      f"adopt, certificate of {len(cert.sigs)} echo signatures")
print("but the suppressed READY stays suppressed:", not fresh.ready)
