"""Einsum ``conv2d`` and block-reduce ``max_pool2d``: the oracles of the
direct-GEMM kernels in :mod:`repro.nn.functional`.

Both take the same arguments and leading client axes ``L`` as the
production kernels.  ``conv2d_reference`` pads with ``np.pad``, lowers the
input with :func:`~repro.nn.functional.im2col` and contracts with
``np.einsum(optimize=True)``, whose batch-matmul lowering hands BLAS the
same GEMM operands the production kernel builds directly.
``max_pool2d_reference`` reduces ``(..., OH, k, OW, k)`` blocks and splits a
tie's gradient by dividing by the int64 tie count, in float64.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import _any_requires_grad, col2im, im2col
from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled

#: einsum labels of the leading client axes
_LEAD = "mabcdefg"


def conv2d_reference(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    x = as_tensor(x)
    lead = weight.shape[:-4]
    xd = x.data
    pad = int(padding)
    if pad:
        xd = np.pad(xd, ((0, 0),) * (xd.ndim - 2) + ((pad, pad), (pad, pad)))
    n, c, h, w = xd.shape[-4:]
    o, c_w, kh, kw = weight.shape[-4:]
    if c != c_w:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {c_w}")
    cols = im2col(xd.reshape(-1, c, h, w), (kh, kw), stride)  # (*L·N, C*KH*KW, OH, OW)
    _, k, oh, ow = cols.shape
    flat_cols = cols.reshape(*lead, n, k, oh * ow)
    w_flat = weight.data.reshape(*lead, o, k)
    m = _LEAD[: len(lead)]
    out_data = np.einsum(f"{m}ok,{m}nkp->{m}nop", w_flat, flat_cols, optimize=True)
    out_data = out_data.reshape(*lead, n, o, oh, ow)
    if bias is not None:
        out_data = out_data + bias.data.reshape(*lead, 1, o, 1, 1)

    if not (is_grad_enabled() and _any_requires_grad(x, weight, bias)):
        return Tensor._lean(out_data, "conv2d")

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(*lead, n, o, oh * ow)
        if weight.requires_grad:
            dw = np.einsum(f"{m}nop,{m}nkp->{m}ok", grad_flat, flat_cols, optimize=True)
            weight._accumulate(dw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(-4, -2, -1)))
        if x.requires_grad:
            dcols = np.einsum(f"{m}ok,{m}nop->{m}nkp", w_flat, grad_flat, optimize=True)
            dx = col2im(dcols.reshape(-1, k, oh, ow), (cols.shape[0], c, h, w), (kh, kw), stride)
            dx = dx.reshape(xd.shape)
            if pad:
                dx = dx[..., pad:-pad, pad:-pad]
            x._accumulate(dx)

    return Tensor._record(out_data, backward, "conv2d")


def max_pool2d_reference(x, kernel: int) -> Tensor:
    x = as_tensor(x)
    *batch, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims {(h, w)} not divisible by pool kernel {kernel}")
    blocks = x.data.reshape(*batch, h // kernel, kernel, w // kernel, kernel)
    out_data = blocks.max(axis=(-3, -1))
    if not (is_grad_enabled() and x.requires_grad):
        return Tensor._lean(out_data, "max_pool2d")
    mask = blocks == out_data[..., :, None, :, None]
    # Break ties deterministically: scale by inverse tie-count.
    counts = mask.sum(axis=(-3, -1), keepdims=True)

    def backward(grad: np.ndarray) -> None:
        g = grad[..., :, None, :, None] * mask / counts
        x._accumulate(g.reshape(x.shape))

    return Tensor._record(out_data, backward, "max_pool2d")
