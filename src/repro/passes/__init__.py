"""repro.passes — the optimization-pass substrate (LLVM analogue).

Alias analysis, inlining, the two-sweep cleanup (constant folding, CSE,
DCE), LICM, structural simplification, and the OpenMPOpt analogue with
parallel-region load hoisting and region merging.  AD runs after these
(and optionally runs the cleanup pipeline on its output), reproducing
the paper's optimization↔differentiation interplay (§V-E).
"""

from .aliasing import AliasInfo, analyze_aliasing
from .cleanup import Cleanup
from .inline import force_inline_all, inline_all
from .intervals import (
    Affine,
    Interval,
    IntervalAnalysis,
    analyze_intervals,
    certify_bounds,
)
from .licm import LICM
from .openmp_opt import OpenMPOpt
from .regioncheck import RegionChecker, region_report
from .pass_manager import (
    FunctionPass,
    PassManager,
    cleanup_pipeline,
    default_pipeline,
)
from .simplify import Simplify

__all__ = [
    "AliasInfo", "analyze_aliasing",
    "Affine", "Interval", "IntervalAnalysis",
    "analyze_intervals", "certify_bounds",
    "Cleanup", "LICM", "OpenMPOpt", "Simplify",
    "RegionChecker", "region_report",
    "force_inline_all", "inline_all",
    "FunctionPass", "PassManager", "cleanup_pipeline", "default_pipeline",
]
