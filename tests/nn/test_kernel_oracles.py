"""``conv2d`` and ``max_pool2d`` against their einsum / block-reduce oracles, bit for bit.

Marked ``oracles``::

    PYTHONPATH=src python -m pytest -m oracles -q

The production kernels call ``np.matmul`` on operands laid out as einsum's
batch-matmul lowering laid them out, and fold the pool's taps with
``np.maximum``; the oracles in :mod:`tests.oracles.kernels` are the einsum
and block-reduce kernels they replaced.  BLAS picks its kernel from the
operands' shapes and memory orders, and a reduction's bits depend on the
order it walks memory in, so every comparison here is ``np.array_equal`` —
output and every operand gradient — over leading client axes, strides,
paddings, input memory orders and the shapes where a fused GEMM axis has
length one.
"""

import numpy as np
import pytest

import repro.nn.functional as F
from repro.experiments.models import paper_cnn
from repro.federated.client import LocalTrainingConfig, train_locally
from repro.nn.tensor import GradTape, Tensor
from repro.utils.rng import rng_from_seed

from ..oracles.kernels import conv2d_reference, max_pool2d_reference

pytestmark = pytest.mark.oracles

LEADS = [(), (1,), (3,)]
LAYOUTS = ["c-contiguous", "channel-major", "transposed"]


def _laid_out(array: np.ndarray, layout: str) -> np.ndarray:
    """``array`` (logical ``(..., N, C, H, W)``) with the same values in another memory order."""
    if layout == "c-contiguous":
        return array
    if layout == "channel-major":  # memory (..., C, N, H, W)
        return np.ascontiguousarray(np.swapaxes(array, -3, -4)).swapaxes(-3, -4)
    if layout == "transposed":  # memory with every axis reversed
        return np.asfortranarray(array)
    raise ValueError(layout)


def _run(kernel, arrays, cotangent):
    """Output and operand gradients of ``kernel(*arrays)`` under a fixed cotangent."""
    operands = [Tensor(a, requires_grad=True) for a in arrays]
    with GradTape() as tape:
        out = kernel(*operands)
    tape.backward(out, cotangent(out.shape))
    return [out.data] + [t.grad for t in operands]


def _assert_same(kernel, oracle, arrays, rng):
    seed = {}

    def cotangent(shape):
        return seed.setdefault("g", rng.standard_normal(shape).astype(np.float32))

    got = _run(kernel, arrays, cotangent)
    want = _run(oracle, arrays, cotangent)
    names = ["output"] + [f"grad {i}" for i in range(len(arrays))]
    for name, a, b in zip(names, got, want):
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), f"{name} differs from the oracle"


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("lead", LEADS)
def test_conv2d_equals_einsum_oracle(lead, stride, padding, layout):
    rng = np.random.default_rng([len(lead), stride, padding, LAYOUTS.index(layout)])
    x = rng.standard_normal(lead + (5, 3, 7, 7)).astype(np.float32)
    w = rng.standard_normal(lead + (4, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(lead + (4,)).astype(np.float32)
    _assert_same(
        lambda *t: F.conv2d(*t, stride=stride, padding=padding),
        lambda *t: conv2d_reference(*t, stride=stride, padding=padding),
        [_laid_out(x, layout), w, b],
        rng,
    )


@pytest.mark.parametrize(
    "batch, channels, out_channels, size, kernel",
    [
        (1, 8, 4, 6, (3, 3)),  # one sample: N·OH·OW fuses a length-one axis
        (64, 3, 8, 3, (3, 3)),  # a 1x1 output
        (1, 3, 4, 3, (3, 3)),  # both
        (4, 3, 1, 6, (3, 3)),  # one output channel
        (4, 1, 4, 6, (1, 1)),  # C·KH·KW == 1
        (4, 2, 3, 6, (2, 3)),  # a non-square kernel
    ],
)
@pytest.mark.parametrize("lead", LEADS)
def test_conv2d_equals_einsum_oracle_on_degenerate_shapes(lead, batch, channels, out_channels, size, kernel):
    rng = np.random.default_rng([len(lead), batch, channels, out_channels, size, *kernel])
    x = rng.standard_normal(lead + (batch, channels, size, size)).astype(np.float32)
    w = rng.standard_normal(lead + (out_channels, channels) + kernel).astype(np.float32)
    b = rng.standard_normal(lead + (out_channels,)).astype(np.float32)
    _assert_same(F.conv2d, conv2d_reference, [x, w, b], rng)


def _tied_pool_input(lead, kernel, rng):
    """An ``(*lead, 4, 3, 4k, 4k)`` input whose pooling blocks tie their max
    1, 2, ... ``kernel²`` times."""
    shape = lead + (4, 3, 4, 4)
    x = rng.standard_normal(shape + (kernel * kernel,)).astype(np.float32)
    ties = rng.integers(1, kernel * kernel + 1, size=shape)
    top = x.max(axis=-1, keepdims=True) + 1.0
    order = rng.permuted(np.broadcast_to(np.arange(kernel * kernel), x.shape), axis=-1)
    x = np.where(order < ties[..., None], top, x)
    blocks = x.reshape(shape + (kernel, kernel))
    # (..., OH, OW, k, k) -> (..., OH, k, OW, k) -> (..., H, W)
    image = np.moveaxis(blocks, -2, -3).reshape(lead + (4, 3, 4 * kernel, 4 * kernel))
    return np.ascontiguousarray(image), ties


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("kernel", [2, 3])
@pytest.mark.parametrize("lead", LEADS)
def test_max_pool2d_equals_block_reduce_oracle(lead, kernel, layout):
    rng = np.random.default_rng([len(lead), kernel, LAYOUTS.index(layout)])
    x, ties = _tied_pool_input(lead, kernel, rng)
    for count in range(2, min(kernel * kernel, 4) + 1):
        assert (ties == count).any(), f"no block ties {count} ways"
    _assert_same(
        lambda t: F.max_pool2d(t, kernel),
        lambda t: max_pool2d_reference(t, kernel),
        [_laid_out(x, layout)],
        rng,
    )


def test_max_pool2d_equals_oracle_on_special_values():
    """NaN blocks (no tap equals a NaN max), infinities and signed zeros in
    the input and an infinite cotangent give the oracle's values, and the
    gradient's zeros the oracle's signs."""
    x = np.array(
        [[[[np.nan, 1, -0.0, 0.0], [2, 3, 0.0, -0.0], [np.inf, 1, -np.inf, -np.inf], [0, 0, -np.inf, -5]]]],
        dtype=np.float32,
    )
    g = np.array([[[[np.inf, -1.5], [-0.0, -np.inf]]]], dtype=np.float32)
    with np.errstate(invalid="ignore"):  # inf * 0 on both sides
        got = _run(lambda t: F.max_pool2d(t, 2), [x], lambda shape: g)
        want = _run(lambda t: max_pool2d_reference(t, 2), [x], lambda shape: g)
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(got[1]), np.signbit(want[1]))  # zeros keep grad's sign


def _train_two_clients(dataset) -> bytes:
    config = LocalTrainingConfig(local_epochs=2, batch_size=23)  # batches of 23 and 1
    weights = []
    for client in dataset.clients()[:2]:
        model = paper_cnn(dataset.input_shape, dataset.num_classes, rng_from_seed(0))
        train_locally(model, client.train, config, rng_from_seed(client.client_id))
        weights.extend(np.ascontiguousarray(v).tobytes() for v in model.state_dict().values())
    return b"".join(weights)


def test_serial_paper_cnn_training_equals_oracle_training(tiny_cifar10, monkeypatch):
    """Reductions depend on memory order, so the kernels' layouts must keep
    every downstream bit of a real training run, not just their own."""
    production = _train_two_clients(tiny_cifar10)
    monkeypatch.setattr(F, "conv2d", conv2d_reference)
    monkeypatch.setattr(F, "max_pool2d", max_pool2d_reference)
    assert _train_two_clients(tiny_cifar10) == production
