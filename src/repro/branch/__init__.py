"""Branch-prediction substrate.

Transient-execution attacks are *built out of* predictor (mis)training:
Spectre-v1 mistrains a conditional direction predictor to bypass a
bounds check, and variant-2 relies on an indirect-target predictor that
has legitimately learned a secret-correlated target.  This package
provides the minimal structures with the training dynamics those
attacks need: a 2-bit bimodal direction predictor, a branch target
buffer, an indirect target predictor, and a return stack buffer.
"""

from repro.branch.predictor import (
    BranchPredictor,
    Bimodal,
    BTB,
    IndirectPredictor,
    ReturnStack,
)

__all__ = [
    "BTB",
    "Bimodal",
    "BranchPredictor",
    "IndirectPredictor",
    "ReturnStack",
]
