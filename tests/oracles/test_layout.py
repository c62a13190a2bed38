"""``src/`` ships one implementation per operation; the references live here.

The one exception is :mod:`repro.mixnn.crypto`'s pure-Python keystream and
XOR, which the public ``crypto.selftest()`` checks the native OpenSSL helper
against at run time.  Retired twins stay gone: the batch mixer (the proxy is
the one mixer) and graph-mode ``Tensor.backward`` (``GradTape`` is the one
backward engine).
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.federated.flat import FlatUpdateBatch
from repro.nn.tensor import Tensor

from . import algebra, kernels

pytestmark = pytest.mark.oracles

RUNTIME_REFERENCES = {"repro.mixnn.crypto._keystream_reference", "repro.mixnn.crypto._xor_reference"}
#: retired in favour of ``StateSchema``, ``schema_of`` and ``views``, and of
#: the proxy's stream (``MixNNProxy.process_round``)
RETIRED = {
    "StateSpec",
    "spec_of",
    "unflatten",
    "FlatState",
    "mix_updates",
    "mixing_matrix",
    "is_valid_mixing_matrix",
}
ORACLES = {
    name
    for module in (algebra, kernels)
    for name, value in vars(module).items()
    if inspect.isfunction(value) and value.__module__ == module.__name__
}
MODULES = [repro] + [
    importlib.import_module(m.name) for m in pkgutil.walk_packages(repro.__path__, "repro.")
]


def test_no_module_ships_a_reference_twin():
    names = {(m, name) for m in MODULES for name in set(vars(m)) | set(getattr(m, "__all__", ()))}
    twins = {f"{m.__name__}.{name}" for m, name in names if name.endswith("_reference")}
    assert twins == RUNTIME_REFERENCES
    assert not {f"{m.__name__}.{name}" for m, name in names if name in ORACLES | RETIRED}


def test_retired_twins_stay_gone():
    assert not hasattr(Tensor, "backward")
    assert not hasattr(FlatUpdateBatch, "gather_mixed")
