"""repro — reproduction of "Scalable Automatic Differentiation of
Multiple Parallel Paradigms through Compiler Augmentation" (SC 2022).

The package implements an Enzyme-style, compiler-integrated reverse-mode
automatic-differentiation engine operating on an SSA IR with structured
parallel constructs (parallel for, fork/barrier, task spawn/wait, MPI
message passing), together with the substrates the paper's evaluation
needs: optimization passes (including an OpenMPOpt analogue), simulated
shared-memory and MPI runtimes with a calibrated machine model, the
LULESH and miniBUDE proxy applications in several parallel-framework
"frontends", and a CoDiPack-style operator-overloading baseline.

Quickstart::

    import numpy as np
    from repro import IRBuilder, Ptr, I64, autodiff, Duplicated, Executor

    b = IRBuilder()
    with b.function("square", [("x", Ptr()), ("n", I64)]) as f:
        x, n = f.args
        with b.parallel_for(0, n) as i:
            v = b.load(x, i)
            b.store(v * v, x, i)

    grad = autodiff(b.module, "square", [Duplicated, None])
    ex = Executor(b.module)
    x = np.arange(1.0, 5.0)
    dx = np.ones(4)
    ex.run(grad, x, dx, len(x))   # dx now holds 2*x_orig
"""

from .ad import Active, Const, Duplicated, autodiff, autodiff_forward
from .interp import ExecConfig, Executor, run_function
from .ir import (
    F64,
    I1,
    I64,
    IRBuilder,
    Module,
    Ptr,
    print_function,
    print_module,
    verify_module,
)
from .perf import MachineModel, c6i_metal

__version__ = "1.0.0"

#: Sanitizer names, imported on first access (PEP 562): the gradient
#: path does not need ``repro.sanitize``, so ``import repro`` skips it.
_SANITIZE_EXPORTS = ("LintError", "RaceChecker", "RaceReport",
                     "lint_function", "lint_module")


def __getattr__(name: str):
    if name in _SANITIZE_EXPORTS:
        from . import sanitize
        return getattr(sanitize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Active", "Const", "Duplicated", "autodiff", "autodiff_forward",
    "ExecConfig", "Executor", "run_function",
    "F64", "I1", "I64", "IRBuilder", "Module", "Ptr",
    "print_function", "print_module", "verify_module",
    "MachineModel", "c6i_metal",
    "LintError", "RaceChecker", "RaceReport", "lint_function", "lint_module",
    "__version__",
]
