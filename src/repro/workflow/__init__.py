"""Control-system architecture models (paper Fig. 2)."""

from repro.workflow.links import (
    AXI_DDR,
    COAXPRESS_12,
    LinkModel,
    PCIE_GEN3_X8,
)
from repro.workflow.system import (
    BudgetItem,
    ControlSystemModel,
    LatencyBudget,
    architecture_a_budget,
    architecture_b_budget,
    compare_architectures,
)

__all__ = [
    "AXI_DDR",
    "BudgetItem",
    "COAXPRESS_12",
    "ControlSystemModel",
    "LatencyBudget",
    "LinkModel",
    "PCIE_GEN3_X8",
    "architecture_a_budget",
    "architecture_b_budget",
    "compare_architectures",
]
