"""Shared builders for hand-assembled protocol artifacts."""

import sys

import pytest

from bbca_chain.blocks import (
    Cert,
    CertKind,
    EvidenceKind,
    GENESIS_NEW_VIEW,
    Justification,
    NewViewData,
    make_backbone,
    make_new_view,
)
from bbca_chain.chain import get_proposer
from bbca_chain.encoding import (
    echo_statement,
    noadopt_statement,
    ready_statement,
)
from bbca_chain.identity import params_for, sign


@pytest.fixture
def params4():
    return params_for(4)


def filled_module_caches() -> dict[str, int]:
    """``module.attribute`` -> entries, for each ``cache_info()`` of a
    ``bbca_chain`` module attribute that holds any, apart from
    ``params_for``'s, one entry per system size."""
    filled = {}
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("bbca_chain."):
            continue
        for attr, value in vars(module).items():
            info = getattr(value, "cache_info", None)
            if callable(info) and value is not params_for \
                    and info().currsize:
                filled[f"{name}.{attr}"] = info().currsize
    return filled


def make_cert(params, kind, view, block, signers=None):
    """Assemble a quorum certificate over a block by signing for `signers`."""
    sender = get_proposer(view, params)
    digest = block.digest
    if kind == CertKind.ADOPT:
        statement = echo_statement(sender, view, digest)
    else:
        statement = ready_statement(sender, view, digest)
    if signers is None:
        signers = range(params.quorum)
    sigs = tuple(sign(node, statement) for node in sorted(signers))
    return Cert(kind, sender, view, digest, sigs)


def make_complete_nvb(params, author, view, block, extra_refs=()):
    cert = make_cert(params, CertKind.COMPLETE, view, block)
    return make_new_view(author, view,
                         NewViewData(EvidenceKind.COMPLETE, cert),
                         extra_refs=extra_refs)


def make_adopt_nvb(params, author, view, block, extra_refs=()):
    cert = make_cert(params, CertKind.ADOPT, view, block)
    return make_new_view(author, view,
                         NewViewData(EvidenceKind.ADOPT, cert),
                         extra_refs=extra_refs)


def make_noadopt_nvb(params, author, view, anchor_cert, extra_refs=()):
    data = NewViewData(EvidenceKind.NOADOPT, anchor_cert,
                       sign(author, noadopt_statement(view)))
    return make_new_view(author, view, data, extra_refs=extra_refs)


def make_complete_chain(params, views):
    """Backbone blocks for consecutive views 1..k on the fast path.

    Returns (blocks, certs) keyed by view; view v's block embeds a new-view
    block completing view v-1, bottoming out at the genesis constants.
    """
    blocks = {}
    certs = {}
    prev_nvb = GENESIS_NEW_VIEW
    for view in range(1, views + 1):
        block = make_backbone(get_proposer(view, params), view,
                              Justification(EvidenceKind.COMPLETE,
                                            (prev_nvb,)))
        blocks[view] = block
        certs[view] = make_cert(params, CertKind.COMPLETE, view, block)
        prev_nvb = make_complete_nvb(params, 0, view, block)
    return blocks, certs
