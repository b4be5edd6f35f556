"""Pass manager: ordered IR-to-IR transformations.

Enzyme's effectiveness depends on running optimizations *before*
differentiation (simplified code → better aliasing → less caching) and
*after* it (cleaning up the generated adjoint) — §V-E.  The AD engine
invokes a pipeline built here on its private working copy after
inlining, and optionally on the generated gradient.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..ir.function import Function, Module
from ..ir.verifier import verify_function


class FunctionPass:
    """Base class: ``run`` returns True when the function changed."""

    name = "pass"

    def run(self, fn: Function, module: Module) -> bool:  # pragma: no cover
        raise NotImplementedError


class PassManager:
    def __init__(self, passes: Iterable[FunctionPass],
                 verify_each: bool = False, max_rounds: int = 4) -> None:
        self.passes = list(passes)
        self.verify_each = verify_each
        self.max_rounds = max_rounds
        self.stats: dict[str, int] = {}

    def run_function(self, fn: Function, module: Module) -> bool:
        changed_any = False
        for _ in range(self.max_rounds):
            changed = False
            for p in self.passes:
                if p.run(fn, module):
                    changed = True
                    self.stats[p.name] = self.stats.get(p.name, 0) + 1
                    if self.verify_each:
                        verify_function(fn, module)
            changed_any |= changed
            if not changed:
                break
        return changed_any

    def run(self, module: Module,
            fn_names: Optional[Iterable[str]] = None) -> bool:
        names = list(fn_names) if fn_names is not None else \
            list(module.functions)
        changed = False
        for name in names:
            changed |= self.run_function(module.functions[name], module)
        return changed


def default_pipeline(openmp_opt: bool = False,
                     verify_each: bool = False) -> PassManager:
    """The standard pre-AD optimization pipeline.

    ``openmp_opt=True`` adds the parallel-region load/indirection
    hoisting pass (the paper's extended OpenMPOpt, §V-E / §VIII).
    """
    from .cleanup import Cleanup
    from .licm import LICM
    from .openmp_opt import OpenMPOpt
    from .simplify import Simplify

    omp = [OpenMPOpt()] if openmp_opt else []
    return PassManager([Cleanup(), Simplify(), LICM(), *omp, Cleanup()],
                       verify_each=verify_each)


def sanitize_pipeline(on_error: str = "ignore",
                      verify_each: bool = False) -> PassManager:
    """Analysis-only pipeline running the shadow-memory race lint.

    The lint re-derives thread-locality of every write in parallel
    regions and reports non-atomic shadow increments whose disjointness
    proof fails (§VI-A1).  ``on_error="raise"`` turns lint errors into
    a ``sanitize.lint.LintError``; the pass never mutates IR, so the
    manager converges in one round.
    """
    from ..sanitize.lint import ShadowRaceLint

    return PassManager([ShadowRaceLint(on_error=on_error)],
                       verify_each=verify_each, max_rounds=1)


def commcheck_pipeline(sizes: tuple = (2, 3), on_error: str = "ignore",
                       verify_each: bool = False) -> PassManager:
    """Analysis-only pipeline running the static MPI communication
    analyzer (matching, collectives, request lifetimes, rendezvous
    deadlocks) on every communicating function.  ``on_error="raise"``
    turns error findings into a ``sanitize.commcheck.CommCheckError``;
    the pass never mutates IR, so the manager converges in one round.
    """
    from ..sanitize.commcheck import CommCheckPass

    return PassManager([CommCheckPass(sizes=sizes, on_error=on_error)],
                       verify_each=verify_each, max_rounds=1)


def cleanup_pipeline(verify_each: bool = False) -> PassManager:
    """Post-AD cleanup (fold the index arithmetic the transform emits)."""
    from .cleanup import Cleanup
    from .simplify import Simplify

    return PassManager([Cleanup(), Simplify()], verify_each=verify_each)
