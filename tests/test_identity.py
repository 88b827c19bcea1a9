from bbca_chain.identity import (
    ConfigError,
    SystemParams,
    params_for,
    sign,
    statement_digest,
    verify,
)
from bbca_chain.simnet import Scenario

import pytest


def test_sign_verify_roundtrip():
    sig = sign(0, b"statement")
    assert verify(sig, b"statement", 0)


def test_verify_rejects_wrong_signer():
    sig = sign(0, b"statement")
    assert not verify(sig, b"statement", 1)


def test_verify_rejects_wrong_statement():
    sig = sign(0, b"statement")
    assert not verify(sig, b"other", 0)


def test_signatures_deterministic():
    assert sign(3, b"x") == sign(3, b"x")
    assert statement_digest(b"x") == statement_digest(b"x")
    assert len(statement_digest(b"x")) == 8


@pytest.mark.parametrize("n,f,quorum", [(4, 1, 3), (7, 2, 5), (10, 3, 7)])
def test_fault_and_quorum_sizes(n, f, quorum):
    for params in (params_for(n), Scenario(n=n).params):
        assert params.f == f
        assert params.quorum == quorum


def test_one_shared_params_per_size():
    assert Scenario(n=7).params is Scenario(n=7, seed=3).params
    assert params_for(7) is params_for(7) == (7, 2, 5)
    assert params_for(4) is not params_for(7)
    with pytest.raises(ConfigError):
        params_for(3)


def test_small_systems_rejected():
    with pytest.raises(ConfigError):
        params_for(3)
    with pytest.raises(TypeError):  # f and quorum come only from params_for
        SystemParams(4)


def test_quorum_intersection_exceeds_fault_budget():
    # Two quorums overlap in more than f nodes for every supported size.
    for n in range(4, 120):
        params = params_for(n)
        assert 2 * params.quorum - n >= params.f + 1
        assert params.quorum <= n
