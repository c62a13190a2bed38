"""Autograd engine internals: the tape walk, lean mode, GradTape, threading.

Marked ``cohort`` together with the stacked-training tests — every local
training step, serial or stacked, backpropagates through ``GradTape``, the
one backward engine, checked here against closed-form gradients::

    PYTHONPATH=src python -m pytest -m cohort -q
"""

import threading

import numpy as np
import pytest

from repro.nn import GradTape, Tensor, is_grad_enabled, no_grad
from repro.nn import functional as F

pytestmark = pytest.mark.cohort


def _count_firings(tape: GradTape) -> dict[int, int]:
    """Wrap every recorded backward closure with a firing counter."""
    counts: dict[int, int] = {}
    for node in tape.nodes:
        counts[id(node)] = 0
        original = node._backward

        def wrapped(grad, _original=original, _key=id(node)):
            counts[_key] += 1
            _original(grad)

        node._backward = wrapped
    return counts


class TestTapeWalkOrder:
    def test_diamond_fires_each_closure_exactly_once(self):
        a = Tensor([2.0], requires_grad=True)
        with GradTape() as tape:
            left = a * 3.0
            right = a * 5.0
            out = (left + right).sum()
        counts = _count_firings(tape)
        tape.backward(out)
        assert list(counts.values()) == [1] * 4
        np.testing.assert_allclose(a.grad, [8.0])

    def test_dependent_parents_ordering(self):
        # out's inputs are (c, b) with b itself a child of c: the reverse
        # walk must fire b before c so c's gradient is complete.
        a = Tensor([1.0], requires_grad=True)
        with GradTape() as tape:
            c = a * 2.0
            b = c * 3.0
            out = (c + b).sum()
        tape.backward(out)
        np.testing.assert_allclose(a.grad, [8.0])  # 2 + 2*3

    def test_deep_fanout_chain_terminates_with_correct_grad(self):
        # 60 levels of y = y*0.5 + y*0.5: every node has two consumers.  The
        # walk fires each of the 180 closures once and the chain's gradient
        # telescopes to exactly 1.
        a = Tensor([1.0], requires_grad=True)
        with GradTape() as tape:
            y = a
            for _ in range(60):
                y = y * 0.5 + y * 0.5
            out = y.sum()
        counts = _count_firings(tape)
        tape.backward(out)
        assert list(counts.values()) == [1] * (3 * 60 + 1)
        np.testing.assert_allclose(a.grad, [1.0])

    def test_wide_fanout_grad(self):
        a = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        with GradTape() as tape:
            out = sum((a * float(i) for i in range(1, 9)), a * 0.0).sum()
        counts = _count_firings(tape)
        tape.backward(out)
        assert all(count == 1 for count in counts.values())
        np.testing.assert_allclose(a.grad, np.full(4, 36.0))


class TestLeanMode:
    def test_no_grad_outputs_carry_no_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape, no_grad():
            out = (a * 2.0 + 1.0).exp().sum()
        assert not out.requires_grad
        assert out._backward is None
        assert tape.nodes == []

    def test_untracked_inputs_skip_graph_construction(self):
        a = Tensor([1.0, 2.0])
        with GradTape() as tape:
            out = a * 3.0
        assert not out.requires_grad
        assert out._backward is None and tape.nodes == []


class TestGradTape:
    def test_tape_matches_closed_form_softmax_gradient(self):
        # d/dW mean CE(x W^T + b) = (softmax - onehot)^T x / B, and the bias
        # gradient is the column sum of the same residual.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3)).astype(np.float32)
        labels = rng.integers(0, 4, 5)
        w = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)

        with GradTape() as tape:
            loss = F.cross_entropy(F.linear(Tensor(x), w, b), labels)
        tape.backward(loss)

        logits = x.astype(np.float64) @ w.data.T.astype(np.float64)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        residual = (probs - np.eye(4)[labels]) / len(labels)
        np.testing.assert_allclose(w.grad, residual.T @ x, atol=1e-6)
        np.testing.assert_allclose(b.grad, residual.sum(axis=0), atol=1e-6)

    def test_tape_records_only_inside_context(self):
        w = Tensor([1.0], requires_grad=True)
        _ = w * 2.0
        tape = GradTape()
        with tape:
            inside = w * 3.0
        _ = w * 4.0
        assert tape.nodes == [inside]

    def test_backward_rejects_an_output_recorded_off_the_tape(self):
        # A forward pass run before entering the tape: nothing of it is on
        # the tape, so backpropagating it would silently reach no parameter.
        w = Tensor([1.0], requires_grad=True)
        out = (w * 2.0).sum()
        tape = GradTape()
        with pytest.raises(RuntimeError, match="not recorded on this tape"):
            tape.backward(out)
        with tape:
            _ = w * 3.0
        with pytest.raises(RuntimeError, match="not recorded on this tape"):
            tape.backward(out)
        assert w.grad is None and out.grad is None

    def test_tape_clears_intermediate_grads_keeps_leaves(self):
        w = Tensor([2.0], requires_grad=True)
        with GradTape() as tape:
            mid = w * 3.0
            out = mid.sum()
        tape.backward(out)
        assert mid.grad is None and out.grad is None
        np.testing.assert_allclose(w.grad, [3.0])

    def test_tape_reuse_after_clear(self):
        w = Tensor([1.0], requires_grad=True)
        tape = GradTape()
        for _ in range(3):
            with tape:
                out = (w * 2.0).sum()
            tape.backward(out)
            tape.clear()
        np.testing.assert_allclose(w.grad, [6.0])  # 3 accumulated steps

    def test_nested_tapes_restore_previous(self):
        w = Tensor([1.0], requires_grad=True)
        outer = GradTape()
        with outer:
            _ = w * 2.0
            with GradTape() as inner:
                _ = w * 3.0
            after = w * 4.0
        assert len(inner.nodes) == 1
        assert len(outer.nodes) == 2 and outer.nodes[-1] is after

    def test_tape_requires_seed_for_vector_output(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            out = w * 2.0
        with pytest.raises(RuntimeError, match="non-scalar"):
            tape.backward(out)
        tape.backward(out, np.ones(2, dtype=np.float32))
        np.testing.assert_allclose(w.grad, [2.0, 2.0])


class TestThreadLocalGrad:
    def test_no_grad_is_thread_local(self):
        # One thread sits inside no_grad() while the other must keep
        # recording: the module-global flag this replaces failed exactly here.
        in_no_grad = threading.Event()
        release = threading.Event()
        results = {}

        def eval_thread():
            with no_grad():
                in_no_grad.set()
                release.wait(timeout=10)
                results["eval_enabled"] = is_grad_enabled()

        def train_thread():
            in_no_grad.wait(timeout=10)
            w = Tensor([1.0], requires_grad=True)
            with GradTape() as tape:
                out = (w * 2.0).sum()
            results["train_requires_grad"] = out.requires_grad
            tape.backward(out)
            results["train_grad"] = float(w.grad[0])
            release.set()

        threads = [threading.Thread(target=eval_thread), threading.Thread(target=train_thread)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert results["eval_enabled"] is False
        assert results["train_requires_grad"] is True
        assert results["train_grad"] == 2.0

    def test_concurrent_training_and_evaluation_grads_intact(self):
        # Hammer both paths concurrently: every training iteration must see
        # a recorded graph no matter how often the eval thread flips its flag.
        stop = threading.Event()
        failures = []

        def evaluator():
            while not stop.is_set():
                with no_grad():
                    out = Tensor([1.0], requires_grad=True) * 2.0
                    if out.requires_grad:
                        failures.append("eval recorded a graph")

        def trainer():
            for _ in range(300):
                w = Tensor([1.0], requires_grad=True)
                with GradTape() as tape:
                    out = (w * 2.0).sum()
                if not out.requires_grad:
                    failures.append("training lost grad recording")
                    break
                tape.backward(out)
            stop.set()

        eval_worker = threading.Thread(target=evaluator)
        train_worker = threading.Thread(target=trainer)
        eval_worker.start()
        train_worker.start()
        train_worker.join(timeout=60)
        stop.set()
        eval_worker.join(timeout=60)
        assert not failures
