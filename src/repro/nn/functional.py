"""Functional neural-network operations with autograd support.

Implements the operations required by the architectures in the MixNN paper:

* 2-D convolution (the two/three convolutional layers of the CIFAR10 /
  MotionSense / MobiAct model),
* non-overlapping max pooling,
* locally connected 2-D layers (the distinguishing ingredient of the
  DeepFace-style architecture used for LFW),
* softmax / log-softmax / cross-entropy,
* dropout.

Convolution lowers image patches to a column block with
``numpy.lib.stride_tricks`` so the heavy lifting stays inside BLAS matmuls:
``conv2d`` gathers one C-contiguous ``(*L, C·KH·KW, N·OH·OW)`` block (and
its transpose) and calls ``np.matmul`` directly, on operands laid out as
``np.einsum``'s batch-matmul lowering laid them out before it, so its bits
are the einsum kernel's (held to that oracle under ``tests/``).  ``locally_connected2d``
keeps :func:`im2col`, :func:`col2im` and an einsum contraction.

Leading client axes
-------------------
Every kernel takes optional leading axes ``L`` in front of its usual
operands: an ``(*L, N, ...)`` input meets ``(*L, ...)`` parameters (and
``(*L, N)`` labels), and slice ``l`` of the output depends on slice ``l`` of
the operands alone.  ``L = ()`` is an ordinary model; ``L = (M,)`` is M
clients stacked over one ``(M, D)`` weight block
(:mod:`repro.federated.cohort`).  A kernel reads ``len(L)`` from its
parameter's rank (the loss from its labels').  Per slice, ``linear``,
``conv2d``, the pools and the losses are bitwise equal to the unstacked
call: broadcast ``np.matmul`` runs one GEMM per leading slice, and
``locally_connected2d`` runs its unstacked einsums once per slice (one
contraction batched over ``L`` may reassociate its reduction).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor, _unbroadcast, as_tensor, is_grad_enabled

__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "locally_connected2d",
    "linear",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "dropout",
    "one_hot",
]


# ----------------------------------------------------------------------
# im2col / col2im plumbing
# ----------------------------------------------------------------------
def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int = 1) -> np.ndarray:
    """Lower image patches to columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel:
        ``(KH, KW)`` patch size.
    stride:
        Patch stride (same in both spatial dimensions).

    Returns
    -------
    numpy.ndarray
        Array of shape ``(N, C * KH * KW, OH, OW)``.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    windows = as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    # (N, C, OH, OW, KH, KW) -> (N, C, KH, KW, OH, OW) -> (N, C*KH*KW, OH, OW)
    cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))
    return cols.reshape(n, c * kh * kw, oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int = 1,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into an image."""
    n, c, h, w = x_shape
    kh, kw = kernel
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    out = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols[:, :, i, j]
    return out


# ----------------------------------------------------------------------
# Convolution / pooling / locally connected layers
# ----------------------------------------------------------------------
def _column_operands(xd: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int):
    """The column block of an ``(*L, N, C, H, W)`` array as both GEMM operands.

    Returns ``(weight_side, forward)``: the ``(*L, C·KH·KW, N·OH·OW)`` operand
    of the weight gradient and the ``(*L, N·OH·OW, C·KH·KW)`` operand of the
    forward product, in the memory orders einsum's batch-matmul lowering
    gave BLAS.  Each is a row-major block, except where einsum passed a view
    because a fused axis has length one: with one sample the forward operand
    is the weight-side block transposed, and with a 1x1 output the
    weight-side operand is the forward block transposed.  BLAS picks its
    kernel from the operands' orders, so matching them keeps the bits.
    """
    *lead, n, c, _, _ = xd.shape
    k, p = c * kh * kw, oh * ow
    if p == 1:
        forward = np.ascontiguousarray(xd[..., :kh, :kw]).reshape(*lead, n, k)
        return np.swapaxes(forward, -1, -2), forward
    *sl, sn, sc, sh, sw = xd.strides
    windows = as_strided(
        xd,
        (*lead, c, kh, kw, n, oh, ow),
        (*sl, sc, sh, sw, sn, sh * stride, sw * stride),
        writeable=False,
    )
    weight_side = np.ascontiguousarray(windows).reshape(*lead, k, n * p)
    forward = np.swapaxes(weight_side, -1, -2)
    if n > 1:
        forward = np.ascontiguousarray(forward)
    return weight_side, forward


def _any_requires_grad(x: Tensor, weight: Tensor, bias: Tensor | None) -> bool:
    """Whether a kernel over ``x``, ``weight`` and an optional ``bias`` records."""
    return x.requires_grad or weight.requires_grad or (bias is not None and bias.requires_grad)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution over an ``(*L, N, C, H, W)`` input.

    ``weight`` has shape ``(*L, O, C, KH, KW)`` and ``bias`` ``(*L, O)``.
    Zero padding happens inside the kernel, and so does slicing it off the
    input gradient.  Each product is one ``np.matmul`` on the operands of
    :func:`_column_operands`; the output is a C-contiguous copy of the
    ``(*L, N·OH·OW, O)`` product with the bias added on the way.
    """
    x = as_tensor(x)
    lead = weight.shape[:-4]
    n, c, h, w = x.shape[-4:]
    o, c_w, kh, kw = weight.shape[-4:]
    if c != c_w:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {c_w}")
    pad = int(padding)
    hp, wp = h + 2 * pad, w + 2 * pad
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    xd = x.data
    if pad:
        xd = np.zeros((*lead, n, c, hp, wp), dtype=np.float32)
        xd[..., pad : pad + h, pad : pad + w] = x.data
    record = is_grad_enabled() and _any_requires_grad(x, weight, bias)
    # Drop each column block as soon as it is dead: at evaluation batch
    # sizes they are megabytes each.
    cols, cols_t = _column_operands(xd, kh, kw, stride, oh, ow)
    del xd
    if not (record and weight.requires_grad):
        cols = None  # only the weight gradient reads it
    w_flat = weight.data.reshape(*lead, o, c * kh * kw)
    product = np.matmul(cols_t, np.swapaxes(w_flat, -1, -2))  # (*L, N·OH·OW, O)
    del cols_t
    out_data = np.moveaxis(product.reshape(*lead, n, oh, ow, o), -1, -3)
    if bias is not None:
        out_data = np.add(out_data, bias.data.reshape(*lead, 1, o, 1, 1), order="C")
    else:
        out_data = np.ascontiguousarray(out_data)
    if not record:
        return Tensor._lean(out_data, "conv2d")

    def backward(grad: np.ndarray) -> None:
        # The output gradient as the (*L, N·OH·OW, O) operand of both products.
        g = np.swapaxes(grad.reshape(*lead, n, o, oh * ow), -1, -2).reshape(*lead, n * oh * ow, o)
        if weight.requires_grad:
            dw = np.matmul(cols, g)  # (*L, C·KH·KW, O)
            weight._accumulate(np.swapaxes(dw, -1, -2).reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(-4, -2, -1)))
        if x.requires_grad:
            dcols = np.matmul(g, w_flat).reshape(*lead, n, oh, ow, c, kh, kw)
            # col2im into a channels-last image, the product's own order: each
            # tap adds one (N, OH, OW, C) slab, in the (i, j) order every
            # input pixel has always summed its taps in.
            dx = np.zeros((*lead, n, hp, wp, c), dtype=np.float32)
            for i in range(kh):
                for j in range(kw):
                    dx[..., i : i + stride * oh : stride, j : j + stride * ow : stride, :] += dcols[..., i, j]
            x._accumulate(np.moveaxis(dx[..., pad : pad + h, pad : pad + w, :], -1, -3))

    return Tensor._record(out_data, backward, "conv2d")


def _pool_blocks(x: Tensor, kernel: int) -> np.ndarray:
    """``x`` as ``(..., OH, kernel, OW, kernel)`` blocks of its two trailing axes."""
    *batch, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims {(h, w)} not divisible by pool kernel {kernel}")
    return x.data.reshape(*batch, h // kernel, kernel, w // kernel, kernel)


def max_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping max pooling (``stride == kernel``) of the two trailing axes.

    Spatial dimensions must be divisible by ``kernel`` (the experiment
    architectures are sized so this always holds).  The ``kernel²`` taps
    are strided views, folded by ``np.maximum`` in float32; max and the
    tie masks are exact, so no memory order changes a bit.  A tie's
    gradient is split evenly: the float32 quotient by the tie count equals
    a float64 one rounded to float32, as double rounding is innocuous for
    division when ``53 >= 2·24 + 2``.
    """
    x = as_tensor(x)
    blocks = _pool_blocks(x, kernel)
    offsets = [(i, j) for i in range(kernel) for j in range(kernel)]
    taps = [blocks[..., :, i, :, j] for i, j in offsets]
    out_data = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(out_data, tap, out=out_data)
    if not (is_grad_enabled() and x.requires_grad):
        return Tensor._lean(out_data, "max_pool2d")
    masks = [np.equal(tap, out_data, order="C") for tap in taps]
    counts = masks[0].astype(np.float32)
    for mask in masks[1:]:
        counts += mask

    def backward(grad: np.ndarray) -> None:
        # (grad / count) * mask is (grad * mask) / count bit for bit: a mask
        # entry is 0 or 1, and either way the sign of zero is grad's.
        share = grad / counts
        dx = np.empty(x.shape, dtype=np.float32)
        for (i, j), mask in zip(offsets, masks):
            np.multiply(share, mask, out=dx[..., i::kernel, j::kernel])
        x._accumulate(dx)

    return Tensor._record(out_data, backward, "max_pool2d")


def avg_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping average pooling (``stride == kernel``) of the two trailing axes."""
    x = as_tensor(x)
    blocks = _pool_blocks(x, kernel)
    out_data = blocks.mean(axis=(-3, -1))
    if not (is_grad_enabled() and x.requires_grad):
        return Tensor._lean(out_data, "avg_pool2d")

    def backward(grad: np.ndarray) -> None:
        g = np.broadcast_to(grad[..., :, None, :, None] / (kernel * kernel), blocks.shape)
        x._accumulate(g.reshape(x.shape))

    return Tensor._record(out_data, backward, "avg_pool2d")


def _einsum_per_slice(subscripts: str, a: np.ndarray, b: np.ndarray, lead: tuple) -> np.ndarray:
    """``np.einsum(subscripts, a[l], b[l])`` for every leading slice ``l``,
    stacked back into ``(*lead, ...)``: each slice gets the unstacked call's bits."""
    if not lead:
        return np.einsum(subscripts, a, b, optimize=True)
    out = np.stack([np.einsum(subscripts, a[l], b[l], optimize=True) for l in np.ndindex(*lead)])
    return out.reshape(lead + out.shape[1:])


def locally_connected2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
) -> Tensor:
    """Locally connected layer: convolution with *untied* weights.

    ``weight`` has shape ``(*L, O, OH, OW, C * KH * KW)`` — each output
    location owns its own filter bank, exactly as in DeepFace's L-layers.
    ``bias`` has shape ``(*L, O, OH, OW)`` and the input ``(*L, N, C, H, W)``.
    ``KH``/``KW`` are inferred from the weight and input geometry.
    """
    x = as_tensor(x)
    lead = weight.shape[:-4]
    n, c, h, w = x.shape[-4:]
    o, oh, ow, k = weight.shape[-4:]
    # Solve the (square) kernel size from k = C * KH * KW and the geometry.
    khw = k // c
    kh = int(round(khw**0.5))
    kw = khw // kh
    if c * kh * kw != k:
        raise ValueError(f"weight patch size {k} incompatible with {c} input channels")
    expected_oh = (h - kh) // stride + 1
    expected_ow = (w - kw) // stride + 1
    if (oh, ow) != (expected_oh, expected_ow):
        raise ValueError(
            f"weight spatial shape {(oh, ow)} does not match computed output {(expected_oh, expected_ow)}"
        )
    cols = im2col(x.data.reshape(-1, c, h, w), (kh, kw), stride)  # (*L·N, K, OH, OW)
    flat_n = cols.shape[0]
    cols = cols.reshape(*lead, n, k, oh, ow)
    out_data = _einsum_per_slice("oyxk,nkyx->noyx", weight.data, cols, lead)
    if bias is not None:
        out_data = out_data + bias.data[..., None, :, :, :]

    if not (is_grad_enabled() and _any_requires_grad(x, weight, bias)):
        return Tensor._lean(out_data, "locally_connected2d")

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            dw = _einsum_per_slice("noyx,nkyx->oyxk", grad, cols, lead)
            weight._accumulate(dw)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=-4))
        if x.requires_grad:
            dcols = _einsum_per_slice("oyxk,noyx->nkyx", weight.data, grad, lead)
            dx = col2im(dcols.reshape(flat_n, k, oh, ow), (flat_n, c, h, w), (kh, kw), stride)
            x._accumulate(dx.reshape(x.shape))

    return Tensor._record(out_data, backward, "locally_connected2d")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` in one op.

    ``x`` has shape ``(*L, B, in)``, ``weight`` ``(*L, out, in)`` and
    ``bias`` ``(*L, out)``.  Broadcast ``np.matmul`` runs one 2-D GEMM per
    leading slice, so every slice is bitwise the unstacked product.
    """
    x = as_tensor(x)
    out_data = np.matmul(x.data, np.swapaxes(weight.data, -1, -2))
    if bias is not None:
        out_data = out_data + bias.data[..., None, :]

    if not (is_grad_enabled() and _any_requires_grad(x, weight, bias)):
        return Tensor._lean(out_data, "linear")

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            # d(W.T) then transpose, as the unfused ``x @ W.T`` differentiates:
            # the same GEMM arguments, hence the same bits.
            dwt = np.matmul(np.swapaxes(x.data, -1, -2), grad)
            weight._accumulate(_unbroadcast(np.swapaxes(dwt, -1, -2), weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(grad.sum(axis=-2), bias.shape))
        if x.requires_grad:
            x._accumulate(np.matmul(grad, weight.data))

    return Tensor._record(out_data, backward, "linear")


# ----------------------------------------------------------------------
# Softmax family and losses
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer ``labels`` as a one-hot float matrix."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, num_classes), dtype=np.float32)
    out[np.arange(labels.size), labels.ravel()] = 1.0
    return out.reshape(*labels.shape, num_classes)


def nll_loss(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Negative log-likelihood of integer ``labels`` under ``log_probs``.

    ``labels`` has shape ``(*L, B)`` and ``log_probs`` ``(*L, B, K)``; the
    loss is averaged over the batch axis, so it has shape ``L``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    picked = log_probs[np.ix_(*map(np.arange, labels.shape)) + (labels,)]
    return -picked.mean(axis=-1)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Numerically stable softmax cross-entropy with integer labels, averaged
    over the batch axis (shape ``L``, see :func:`nll_loss`)."""
    return nll_loss(log_softmax(logits, axis=-1), labels)


def mse_loss(prediction: Tensor, target) -> Tensor:
    diff = as_tensor(prediction) - as_tensor(target)
    return (diff * diff).mean()


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or rate is zero."""
    if not training or rate <= 0.0 or not is_grad_enabled():
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(np.float32) / keep
    return x * Tensor(mask)
