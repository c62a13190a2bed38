"""``repro.mixnn`` — the paper's core contribution.

The streaming layer-mixing proxy (:mod:`~repro.mixnn.proxy`), the
participant↔enclave wire format and hybrid encryption
(:mod:`~repro.mixnn.transport`, :mod:`~repro.mixnn.crypto`), the SGX enclave
simulator (:mod:`~repro.mixnn.enclave`), and the oblivious list storage
(:mod:`~repro.mixnn.oram`).
"""

from .crypto import CryptoError, KeyPair, PublicKey, decrypt, encrypt, generate_keypair
from .enclave import (
    EPC_RESERVED_BYTES,
    EPC_USABLE_BYTES,
    AttestationQuote,
    EnclaveCostModel,
    EnclaveError,
    SGXEnclaveSim,
)
from .mixnet import MixCascade, MixNode, onion_encrypt
from .oram import ObliviousList
from .proxy import Granularity, MixNNProxy, ProxyStats
from .transport import EncryptedUpdate, pack_update, unpack_update, update_nbytes

__all__ = [
    "Granularity",
    "MixNNProxy",
    "ProxyStats",
    "SGXEnclaveSim",
    "EnclaveCostModel",
    "EnclaveError",
    "AttestationQuote",
    "EPC_USABLE_BYTES",
    "EPC_RESERVED_BYTES",
    "KeyPair",
    "PublicKey",
    "generate_keypair",
    "encrypt",
    "decrypt",
    "CryptoError",
    "EncryptedUpdate",
    "pack_update",
    "unpack_update",
    "update_nbytes",
    "ObliviousList",
    "MixNode",
    "MixCascade",
    "onion_encrypt",
]
