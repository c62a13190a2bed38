"""Shared fixtures: cached key pairs, tiny datasets, small models, updates,
and a full-round MixNN proxy."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.data import SyntheticCIFAR10, SyntheticLFW, SyntheticMobiAct, SyntheticMotionSense
from repro.experiments.models import paper_cnn
from repro.federated.update import ModelUpdate
from repro.mixnn.crypto import process_keypair
from repro.mixnn.enclave import SGXEnclaveSim
from repro.mixnn.proxy import MixNNProxy
from repro.utils.rng import rng_from_seed


@pytest.fixture(scope="session")
def keypair():
    """Process-cached RSA key pair (keygen is ~0.01 s, ~0.1 s without the native helper)."""
    return process_keypair()


@pytest.fixture()
def enclave(keypair):
    """A fresh enclave simulator sharing the cached key pair."""
    return SGXEnclaveSim(keypair=keypair)


@pytest.fixture()
def rng():
    return rng_from_seed(0)


@pytest.fixture(scope="session")
def tiny_motionsense():
    """A shrunken MotionSense cohort for integration tests."""
    return SyntheticMotionSense(
        seed=0, windows_per_activity=4, test_windows_per_activity=1, background_subjects_per_gender=2
    )


@pytest.fixture(scope="session")
def tiny_cifar10():
    return SyntheticCIFAR10(
        seed=0, samples_per_client=24, test_samples_per_client=6, background_clients_per_group=2
    )


@pytest.fixture(scope="session")
def tiny_lfw():
    return SyntheticLFW(
        seed=0, samples_per_client=16, test_samples_per_client=4, background_subjects_per_gender=2
    )


@pytest.fixture(scope="session")
def tiny_mobiact():
    return SyntheticMobiAct(
        seed=0, windows_per_activity=3, test_windows_per_activity=1, background_subjects_per_gender=2
    )


@pytest.fixture()
def small_model():
    """The 2-conv + 3-FC paper architecture at 8×8×3."""
    return paper_cnn((3, 8, 8), 10, rng_from_seed(0))


def make_updates(model, count: int, seed: int = 0, round_index: int = 0) -> list[ModelUpdate]:
    """Synthesize ``count`` distinct updates around a model's current state."""
    rng = rng_from_seed(seed)
    base = model.state_dict()
    updates = []
    for sender in range(count):
        state = OrderedDict(
            (name, value + 0.05 * rng.standard_normal(value.shape).astype(np.float32))
            for name, value in base.items()
        )
        updates.append(ModelUpdate(sender_id=sender, round_index=round_index, state=state))
    return updates


def mix_round(updates: list[ModelUpdate], seed: int = 0, granularity: str = "layer") -> list[ModelUpdate]:
    """``updates`` mixed by a full-round proxy (``k`` = cohort), encrypted and
    decrypted as a round of the MixNN defense is: one chimera per update."""
    proxy = MixNNProxy(
        enclave=SGXEnclaveSim(keypair=process_keypair()),
        k=max(1, len(updates)),
        rng=rng_from_seed(seed),
        granularity=granularity,
    )
    return proxy.process_round([proxy.encrypt_for_proxy(update) for update in updates])


@pytest.fixture()
def update_batch(small_model):
    return make_updates(small_model, count=6)
