"""Simulator for a (t,n)-threshold quantum secure multiparty summation
protocol: prime-field secret sharing, an affine-subspace engine for the
quantum phase with a dense qudit state-vector engine as its oracle, a
protocol orchestrator, and an adversary harness.
"""
from .zmod import FieldElement, lagrange_coefficient, smallest_valid_prime
from .shamir import (
    Polynomial,
    Share,
    Shadow,
    add_shares,
    compute_shadow,
    generate_shares,
    reconstruct,
)
from .protocol import ProtocolTranscript, RunConfig, aggregate, run_protocol
from .adversary import (
    AttackReport,
    collusion_inference,
    intercept_and_measure,
    intercept_resend,
)

__version__ = "0.1.0"

__all__ = [
    "FieldElement",
    "lagrange_coefficient",
    "smallest_valid_prime",
    "Polynomial",
    "Share",
    "Shadow",
    "add_shares",
    "compute_shadow",
    "generate_shares",
    "reconstruct",
    "ProtocolTranscript",
    "RunConfig",
    "aggregate",
    "run_protocol",
    "AttackReport",
    "collusion_inference",
    "intercept_and_measure",
    "intercept_resend",
]
