"""Abortable consistent broadcast with complete-adopt probing, a DAG-based
consensus protocol riding on it, and a deterministic simulator for checking
both at desk scale."""

from .bbca import BbcaInstance, BbcaMsg, InstanceId
from .blocks import Block, BlockKind, Cert, decode_block, encode_block
from .chain import ChainNode, SafetyViolation, get_proposer
from .dag import DagStore
from .identity import NodeId, Signature, SystemParams, params_for, sign, verify
from .invariants import trips_to_commit
from .simnet import RunResult, Scenario, Simulator, Strategy, run

__all__ = [
    "BbcaInstance", "BbcaMsg", "InstanceId",
    "Block", "BlockKind", "Cert", "decode_block", "encode_block",
    "ChainNode", "SafetyViolation", "get_proposer", "DagStore",
    "NodeId", "Signature", "SystemParams", "params_for", "sign", "verify",
    "RunResult", "Scenario", "Simulator", "Strategy", "run",
    "trips_to_commit",
]
