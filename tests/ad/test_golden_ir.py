"""Golden printed-IR digests of the app gradients.

Pins the sha256 of ``print_function`` for the pre-AD working copy
(after inlining and the pre-AD pipeline) and for the generated gradient
of every LULESH and miniBUDE variant the evaluation differentiates.
Pass, planner and printer rewrites that claim "same output, less time"
are held to byte-identical IR here.  A change that is *meant* to alter
the IR updates these digests and says why.

The disk compile cache keys on the generated source, so the digests
must also not depend on the process: no set iteration order may leak
into the printed IR (see ``test_gradient_ir_deterministic_across_hash_seeds``).
"""

import hashlib

import pytest

from repro.ad import Duplicated, autodiff_transform
from repro.ir import print_function

#: (app, variant) -> (pre-AD working copy digest, gradient digest).
GOLDEN = {
    ("lulesh", "serial"): (
        "5efdfef4f039ed4afea2df4e6c8f53a86f8ace82fbd18a129328a77570f0e791",
        "82399b72aef3f7bf8e93b4932cde68f8283ec8ef6c7abdf024f991d52273f0b0"),
    ("lulesh", "openmp"): (
        "24942f361b5c6453ba95443ff69a1890ce019ae077f97b3222a6003d9bff106b",
        "a1cd28bed5e398fcfc58fffe08215d18b3ecf9070c79fb27653429abc836aef6"),
    ("lulesh", "raja"): (
        "a08e16aebf88e5ac3b5efa13696d66bf03d17343f7f3d77a6d5b254896c124b9",
        "c600d34241d81e3470af29be05929776f8e33b5204372a136a78b48138a0b446"),
    ("lulesh", "mpi"): (
        "fa958a06235e357f6a22586c393fb6907673bdea6ec6608d81e44afa80d3b6cd",
        "b1284f0fec13db4c12775bf7654cf3230ad5668b034c99586bb7170c60dad687"),
    ("minibude", "openmp"): (
        "847e6a2599d53ae044e91a9af0406f8b78d7d0f2a4a1f324f6ea9adf116bd010",
        "bc7bfa22dd46d6d82d76700c77e40920f5b2a89d37c4a356ee01c8395c18132e"),
    ("minibude", "julia"): (
        "da052232cb96da28c7e5ea44e7e4db0df926ea2c5aebe466a98f43f356a40c10",
        "eb0143eed759034528bf4088e5a32cc6020d152fd1ee6c5d1c8097ab7bb94897"),
    ("minibude", "mpi"): (
        "3ad2ad2e3096b5e9b18df6587ad3e787789a8e6fbb2f83b069ceeac89d65ff50",
        "2085bba8a24205b9e1b1dff346e8f1a120ed9a64268cdfbdb02ee62fdd3e9132"),
}


def _program(app: str, variant: str):
    if app == "lulesh":
        from repro.apps.lulesh.driver import LuleshApp, gradient_activities
        a = LuleshApp(variant, 2, pr=2 if variant == "mpi" else 1)
        return a.module, a.fn, gradient_activities(), a.ad_config
    from repro.apps.minibude.driver import MinibudeApp
    from repro.apps.minibude.kernels import ARG_NAMES
    a = MinibudeApp(variant)
    return a.module, a.fn, [Duplicated] * len(ARG_NAMES), a.ad_config


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("app,variant", list(GOLDEN))
def test_printed_ir_digests(app, variant):
    module, fn, acts, config = _program(app, variant)
    tr = autodiff_transform(module, fn, acts, config)
    # tr.fn is the working copy the planner and emitter read; the
    # transform drops it from the module but never mutates it.
    got = (_sha(print_function(tr.fn)), _sha(print_function(tr.grad)))
    assert got == GOLDEN[(app, variant)]
