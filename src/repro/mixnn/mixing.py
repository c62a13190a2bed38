"""Layer-mixing core: the mathematical heart of MixNN (§4.1–4.2).

Given ``C`` participant updates over a model with ``n`` layers, the proxy
builds the paper's matrix ``(M_ij)`` — for each layer ``j`` a permutation of
the participants — and emits ``L = C`` chimera updates where row ``i`` takes
layer ``j`` from participant ``M_ij``.  Because every (participant, layer)
pair appears exactly once, the column means are unchanged and the aggregated
model is identical to classical FL (the §4.2 utility-equivalence theorem,
property-tested in ``tests/mixnn/test_equivalence.py``).

``granularity`` extends the paper as an ablation: mix whole models (no
protection beyond unlinkability of the batch), whole layers (the paper's
scheme), or individual parameter tensors.
"""

from __future__ import annotations

import numpy as np

from ..federated.flat import FlatUpdateBatch, unit_columns
from ..federated.update import ModelUpdate, layer_groups

__all__ = [
    "mixing_matrix",
    "is_valid_mixing_matrix",
    "mix_updates",
    "Granularity",
]

#: Supported mixing granularities.
Granularity = ("model", "layer", "parameter")


def mixing_matrix(num_updates: int, num_units: int, rng: np.random.Generator) -> np.ndarray:
    """The paper's ``(M_ij)``: one independent permutation per mixing unit.

    Returns an ``(L × n)`` integer array whose every column is a permutation
    of ``range(L)`` — the two conditions of §4.2 (no participant appears twice
    in a column; rows are distinct combinations) hold by construction.
    """
    if num_updates < 1:
        raise ValueError(f"need at least one update, got {num_updates}")
    if num_units < 1:
        raise ValueError(f"need at least one mixing unit, got {num_units}")
    return np.stack([rng.permutation(num_updates) for _ in range(num_units)], axis=1)


def is_valid_mixing_matrix(matrix: np.ndarray, num_updates: int) -> bool:
    """Check the §4.2 bijectivity condition: every column is a permutation."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != num_updates:
        return False
    expected = np.arange(num_updates)
    return all(np.array_equal(np.sort(matrix[:, j]), expected) for j in range(matrix.shape[1]))


def _mixing_units(update: ModelUpdate, granularity: str) -> list[list[str]]:
    """Parameter-name groups moved together under the chosen granularity."""
    names = list(update.state.keys())
    if granularity == "model":
        return [names]
    if granularity == "layer":
        return [group for group in layer_groups(names).values()]
    if granularity == "parameter":
        return [[name] for name in names]
    raise ValueError(f"unknown granularity {granularity!r}; choose from {Granularity}")


def mix_updates(
    updates: list[ModelUpdate],
    rng: np.random.Generator,
    granularity: str = "layer",
    matrix: np.ndarray | None = None,
) -> list[ModelUpdate]:
    """Mix a full batch of updates (the ``L = C`` case of §4.2).

    Emitted update ``i`` keeps the *apparent identity* of input update ``i``
    (the slot the server observes) while its layers come from the
    participants selected by the mixing matrix.

    Runs on the flat parameter plane: the batch is one ``(C, D)`` matrix and
    each mixing unit is a column-slice gather, instead of per-update
    per-parameter dict copies.  Bit-identical (values, identities, sources,
    RNG stream) to the per-parameter mix it replaced, which is a test oracle
    (``tests/oracles/algebra.py``).
    """
    if not updates:
        raise ValueError("cannot mix an empty update batch")
    schema_names = updates[0].parameter_names
    for update in updates[1:]:
        if update.parameter_names != schema_names:
            raise KeyError("all updates must share the same parameter schema")
    units = _mixing_units(updates[0], granularity)
    if matrix is None:
        matrix = mixing_matrix(len(updates), len(units), rng)
    elif not is_valid_mixing_matrix(matrix, len(updates)):
        raise ValueError("provided mixing matrix is not a per-column permutation")
    if matrix.shape != (len(updates), len(units)):
        raise ValueError(f"matrix shape {matrix.shape} != {(len(updates), len(units))}")

    from ..nn.serialization import schema_of

    schema = schema_of(updates[0].state)
    columns = unit_columns(schema, units)
    matrix = np.asarray(matrix)
    mixed_matrix = FlatUpdateBatch.gather_mixed(updates, matrix, columns, schema=schema)
    sender_ids = [u.sender_id for u in updates]

    mixed: list[ModelUpdate] = []
    for i, slot in enumerate(updates):
        row = mixed_matrix[i]
        mixed.append(
            ModelUpdate(
                sender_id=-1,  # the server cannot name a true sender
                apparent_id=slot.sender_id,
                round_index=slot.round_index,
                state=schema.views(row),
                num_samples=slot.num_samples,
                metadata={
                    "mixed": True,
                    "granularity": granularity,
                    "unit_sources": [sender_ids[int(s)] for s in matrix[i]],
                },
                flat_vector=row,
            )
        )
    return mixed
