"""The benchmark's workloads, the gradient request each one makes, and
the host-speed probe.

Importing this module imports nothing from ``repro``; :class:`Program`
does, when a worker process builds one.

Each workload is a closed loop: one request at a time from one process.
A workload's program receives only inputs generated from the workload
seed: the miniBUDE deck (``make_deck(seed=)``), and for LULESH the
output-shadow seeds and the background-energy offset.
"""

from __future__ import annotations

import hashlib
import time

#: The host-speed probe's typical time on the host the benchmark was
#: tuned on (2 vCPUs), in seconds.  End-to-end times are reported as
#: ``wall * CALIB_NOMINAL_S / probe``: seconds on a host where the probe
#: takes this long.
CALIB_NOMINAL_S = 0.1

#: name -> parameters.  A run makes ``cycles`` cache-state cycles of
#: fresh processes (see ``run.py``).
WORKLOADS = {
    "lulesh-omp-first": {
        "app": "lulesh", "flavor": "openmp", "nx": 14, "pr": 1,
        "steps": 3, "threads": 4, "backend": "compiled", "cycles": 3,
    },
    "lulesh-omp-steady": {
        "app": "lulesh", "flavor": "openmp", "nx": 14, "pr": 1,
        "steps": 3, "threads": 4, "backend": "native", "cycles": 2,
    },
    # 2 time steps, not 3: the interpreter reference of 8 ranks takes
    # ~10 s instead of ~13 s, which a full comparison's time budget
    # needs.  Every exchange and adjoint path runs either way.
    "lulesh-mpi-steady": {
        "app": "lulesh", "flavor": "mpi", "nx": 4, "pr": 2,
        "steps": 2, "threads": 1, "backend": "compiled", "cycles": 2,
    },
    # 16 poses instead of make_deck's 64: a gradient takes ~1.2 s
    # rather than ~4 s, so a run holds enough of them for a median.
    "bude-tasks-steady": {
        "app": "bude", "variant": "julia", "nposes": 16, "threads": 4,
        "backend": "compiled", "cycles": 2,
    },
}


#: Fixed source the probe compiles: 150 small functions.
_PROBE_SRC = "\n".join(
    f"def f{i}(a, b):\n    c = a * {i} + b\n    if c > {i}:\n"
    f"        return [c, a, b, {{'k': c}}]\n    return (a - b) / {i + 1}\n"
    for i in range(150))


def host_calib() -> float:
    """Seconds for a fixed loop of pure Python, CPython's ``compile()``
    and NumPy: a measure of the host's speed.

    It runs no ``repro`` code, so a change to the program cannot move
    it; only the host's speed does.  ``compile()`` of a fixed source is
    in it because, next to gradients, it followed the host's slowdowns
    more closely than a tight loop alone did.  The NumPy part works in
    place on buffers made before the clock starts: how long a fresh
    allocation takes depends on what the process allocated before
    (glibc moves its mmap threshold), and the probe must not."""
    import ast

    import numpy as np
    a = np.arange(100_000, dtype=np.float64)
    b = np.empty_like(a)
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += (i * i) % 7
    for _ in range(2):
        compile(ast.parse(_PROBE_SRC), "<probe>", "exec")
    for _ in range(80):
        np.multiply(a, a, out=b)
        b += 1.0
        np.sqrt(b, out=a)
    return time.perf_counter() - t0


def _hash_arrays(h, named) -> None:
    for name, arr in named:
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())


def _cost_fields(cost) -> dict:
    return {k: getattr(cost, k) for k in type(cost).__slots__}


class Program:
    """One workload's program, built in the calling process."""

    def __init__(self, name: str, seed: int, backend: str) -> None:
        self.spec = WORKLOADS[name]
        self.seed = seed
        if self.spec["app"] == "lulesh":
            from repro.apps.lulesh.driver import LuleshApp
            self.app = LuleshApp(self.spec["flavor"], self.spec["nx"],
                                 pr=self.spec["pr"], backend=backend)
        else:
            from repro.apps.minibude.deck import make_deck
            from repro.apps.minibude.driver import MinibudeApp
            deck = make_deck(nposes=self.spec["nposes"], seed=seed)
            self.app = MinibudeApp(self.spec["variant"], deck=deck,
                                   backend=backend)

    # -- inputs --------------------------------------------------------
    def inputs(self):
        """Fresh inputs for one gradient (the gradient overwrites them)."""
        if self.spec["app"] != "lulesh":
            return None
        import numpy as np
        from repro.apps.lulesh.mesh import ALL_FLOAT_FIELDS
        rng = np.random.default_rng(self.seed)
        background = 1.0e4 * rng.uniform(0.5, 2.0)
        doms = self.app.make_domains(background)
        shadows = [{f: rng.uniform(0.5, 1.5, size=d[f].size)
                    for f in ALL_FLOAT_FIELDS} for d in doms]
        return doms, shadows

    # -- one gradient --------------------------------------------------
    def gradient(self, inputs):
        """Run one gradient; returns an opaque result for :meth:`digest`."""
        if self.spec["app"] == "lulesh":
            doms, shadows = inputs
            res = self.app.run_gradient(doms, self.spec["steps"],
                                        self.spec["threads"], shadows)
            return inputs, res
        shadows, res = self.app.run_gradient(self.spec["threads"])
        return shadows, res

    def digest(self, out) -> dict:
        """Bitwise fingerprint of one gradient: gradients, primal
        outputs, simulated clock(s) and cost vector, plus the simulated
        figures the per-layer metrics report."""
        h = hashlib.sha256()
        if self.spec["app"] == "lulesh":
            from repro.apps.lulesh.mesh import ALL_FIELDS, ALL_FLOAT_FIELDS
            (doms, shadows), res = out
            for d, sh in zip(doms, shadows):
                _hash_arrays(h, ((f, d[f]) for f in ALL_FIELDS))
                _hash_arrays(h, (("d" + f, sh[f]) for f in ALL_FLOAT_FIELDS))
            clocks = list(res.clocks)
        else:
            from repro.apps.minibude.kernels import ARG_NAMES
            shadows, res = out
            _hash_arrays(h, (("d" + n, shadows[n]) for n in ARG_NAMES))
            _hash_arrays(h, (("energies", res.energies),))
            clocks = [res.time]
        cost = _cost_fields(res.cost)
        h.update(repr([float(c).hex() for c in clocks]).encode())
        h.update(repr(sorted((k, float(v).hex())
                             for k, v in cost.items())).encode())
        return {
            "digest": h.hexdigest(),
            "sim_s": res.time,
            "sim_clock_spread_s": max(clocks) - min(clocks),
            "cost": cost,
        }
