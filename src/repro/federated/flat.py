"""The flat parameter plane: contiguous-buffer update algebra.

One narrow, shared data plane for every round-critical subsystem: a model
state is one contiguous float32 vector under a
:class:`~repro.nn.serialization.StateSchema`, and a round's ``N`` updates are
one ``(N, D)`` matrix.  Aggregation is a single reduction over that matrix,
robust rules are one ``np.median``/``np.sort``, deltas are one subtract,
and ∇Sim-style attacks score all participants against all classes with one
matmul — instead of each layer looping over per-parameter ``OrderedDict``\\ s
and re-copying every array per client.

The dict-of-arrays API stays available everywhere as zero-copy views into the
flat buffers (``schema.views``).  The per-parameter implementations these
paths replaced are test oracles (``tests/oracles/algebra.py``), and
``tests/federated/test_flat.py`` holds each flat path to its oracle bit for
bit.
"""

from __future__ import annotations

import numpy as np

from ..nn.serialization import StateSchema, schema_of
from .update import ModelUpdate

__all__ = ["FlatUpdateBatch", "unit_columns", "row_norms", "flat_mean", "flat_rows"]


def flat_rows(updates: list[ModelUpdate], schema: StateSchema) -> list[np.ndarray]:
    """Each update's flat buffer, materializing (and validating) as needed."""
    rows: list[np.ndarray] = []
    for update in updates:
        if update.flat_vector is None:
            if tuple(update.state.keys()) != schema.names:
                raise KeyError("all updates must share the same parameter schema")
            if not schema.matches(update.state):
                raise ValueError("all updates must share the same parameter shapes")
            rows.append(update.ensure_flat())
        else:
            if tuple(update.state.keys()) != schema.names:
                raise KeyError("all updates must share the same parameter schema")
            if update.flat_vector.size != schema.total_size:
                raise ValueError("all updates must share the same parameter shapes")
            rows.append(update.flat_vector)
    return rows


def flat_mean(
    rows: list[np.ndarray], schema: StateSchema, weights: list[float] | None = None
) -> np.ndarray:
    """Weighted mean of flat rows without materializing the ``(N, D)`` matrix.

    Accumulates row by row — the same reduction order as the matrix
    ``sum(axis=0)`` (strided-sequential per column), with size-1 parameter
    spans re-reduced contiguously — so the result stays bit-identical to the
    per-parameter reference while touching each row once and allocating only
    the output vector.
    """
    count = len(rows)
    if weights is None:
        total = float(count)
        out = rows[0].astype(np.float32, copy=True)
        for row in rows[1:]:
            out += row
    else:
        total = float(sum(weights))
        w = np.asarray(weights, dtype=np.float32)
        out = rows[0] * w[0]
        for row, weight in zip(rows[1:], w[1:]):
            out += row * weight
    if count > 1:
        for offset, size in zip(schema.offsets, schema.sizes):
            if size == 1:
                # size-1 params reduce contiguously (pairwise) in the reference
                column = np.array([row[offset] for row in rows], dtype=np.float32)
                if weights is not None:
                    column *= w
                out[offset] = column.sum()
    out /= total
    return out


def row_norms(matrix: np.ndarray, schema: StateSchema) -> np.ndarray:
    """Per-row L2 norm of a batch matrix, reduced per parameter span.

    Squares in float64 and accumulates span partial sums in schema order —
    bit-identical to a dict loop that squares each parameter array
    separately and adds the partial sums sequentially.
    """
    values = matrix.astype(np.float64, copy=False)
    totals = np.zeros(matrix.shape[0], dtype=np.float64)
    for offset, size in zip(schema.offsets, schema.sizes):
        # square-then-sum keeps numpy's pairwise reduction, matching the
        # reference's per-parameter ``(diff**2).sum()`` bit for bit
        totals += np.square(values[:, offset : offset + size]).sum(axis=1)
    return np.sqrt(totals)


def unit_columns(
    schema: StateSchema, units: list[tuple[str, ...]] | list[list[str]]
) -> list[slice | np.ndarray]:
    """Column selector per unit (a group of parameter names, e.g. a layer)
    of the ``(N, D)`` batch matrix.

    A unit whose parameters are adjacent in the schema (the overwhelmingly
    common case — a layer's weight and bias) becomes a contiguous ``slice``;
    a fragmented unit falls back to an integer index array.
    """
    columns: list[slice | np.ndarray] = []
    for unit in units:
        spans = [schema.span(name) for name in unit]
        contiguous = all(spans[i][1] == spans[i + 1][0] for i in range(len(spans) - 1))
        if contiguous:
            columns.append(slice(spans[0][0], spans[-1][1]))
        else:
            columns.append(np.concatenate([np.arange(a, b) for a, b in spans]))
    return columns


class FlatUpdateBatch:
    """A round's updates as one contiguous ``(N, D)`` float32 matrix.

    Row ``i`` is participant ``i``'s full parameter vector in schema order.
    Per-update identity and bookkeeping (sender, apparent id, round, samples,
    metadata) ride along so the batch can be turned back into
    :class:`ModelUpdate` objects whose states are zero-copy views into the
    matrix rows.
    """

    __slots__ = ("schema", "matrix", "updates")

    def __init__(
        self,
        schema: StateSchema,
        matrix: np.ndarray,
        updates: list[ModelUpdate] | None = None,
    ) -> None:
        if matrix.ndim != 2 or matrix.shape[1] != schema.total_size:
            raise ValueError(f"matrix shape {matrix.shape} does not match schema D={schema.total_size}")
        if updates is not None and len(updates) != matrix.shape[0]:
            raise ValueError(f"{len(updates)} updates for {matrix.shape[0]} matrix rows")
        self.schema = schema
        self.matrix = matrix
        #: source updates (bookkeeping only; their states may live elsewhere)
        self.updates = updates

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"FlatUpdateBatch(n={len(self)}, D={self.schema.total_size})"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def _validate(schema: StateSchema, states: list[dict]) -> None:
        for other in states:
            if tuple(other.keys()) != schema.names:
                raise KeyError("all states must share the same parameter schema")
            if not schema.matches(other):
                raise ValueError("all states must share the same parameter shapes")

    @classmethod
    def from_states(cls, states: list[dict], schema: StateSchema | None = None) -> "FlatUpdateBatch":
        """Pack raw state dicts (no bookkeeping) into a batch matrix."""
        if not states:
            raise ValueError("cannot build a batch from an empty state list")
        schema = schema or schema_of(states[0])
        cls._validate(schema, states)
        count, total = len(states), schema.total_size
        matrix = np.empty((count, total), dtype=np.float32)
        if total:
            # One C-level concatenate fills the whole (N, D) buffer: row i's
            # parameters land at [i*D, (i+1)*D) in schema order.
            np.concatenate(
                [np.asarray(v, dtype=np.float32).ravel() for s in states for v in s.values()],
                out=matrix.reshape(-1),
            )
        return cls(schema=schema, matrix=matrix)

    @classmethod
    def from_updates(
        cls,
        updates: list[ModelUpdate],
        schema: StateSchema | None = None,
    ) -> "FlatUpdateBatch":
        """Pack a round's updates into a batch matrix.

        Updates already materialized on the flat plane contribute their
        backing buffer via a straight row copy; dict-backed updates are
        flat-materialized in place (``ModelUpdate.ensure_flat``) so repeated
        consumers of the same round — aggregation, defenses, attacks — share
        the packing work.
        """
        if not updates:
            raise ValueError("cannot build a batch from an empty update list")
        schema = schema or schema_of(updates[0].state)
        rows = flat_rows(updates, schema)
        count, total = len(updates), schema.total_size
        matrix = np.empty((count, total), dtype=np.float32)
        if total:
            np.concatenate(rows, out=matrix.reshape(-1))
        return cls(schema=schema, matrix=matrix, updates=list(updates))

    @classmethod
    def delta_matrix(
        cls,
        updates: list[ModelUpdate],
        reference: np.ndarray | dict,
        schema: StateSchema | None = None,
    ) -> np.ndarray:
        """All update directions against a reference, in one pass.

        Equivalent to ``from_updates(updates).deltas(reference)`` but fuses
        the gather and the subtract: each update's flat buffer is subtracted
        straight into its output row, so the ``(N, D)`` batch matrix is never
        materialized separately.
        """
        if not updates:
            raise ValueError("cannot build a batch from an empty update list")
        schema = schema or schema_of(updates[0].state)
        if isinstance(reference, dict):
            reference = schema.pack(reference)
        rows = flat_rows(updates, schema)
        deltas = np.empty((len(updates), schema.total_size), dtype=np.float32)
        for i, row in enumerate(rows):
            np.subtract(row, reference, out=deltas[i])
        return deltas

    # ------------------------------------------------------------------
    # Back to updates
    # ------------------------------------------------------------------
    def to_updates(self, extra_metadata: dict | None = None) -> list[ModelUpdate]:
        """Re-materialize per-update objects whose states view the matrix rows.

        Bookkeeping (ids, round, samples, metadata) is carried over from the
        source updates; ``extra_metadata`` is merged into a fresh metadata
        dict per update (the sources' dicts are never mutated).
        """
        if self.updates is None:
            raise ValueError("batch has no per-update bookkeeping (built from raw states)")
        out: list[ModelUpdate] = []
        for i, source in enumerate(self.updates):
            metadata = dict(source.metadata)
            if extra_metadata:
                metadata.update(extra_metadata)
            row = self.matrix[i]
            out.append(
                ModelUpdate(
                    sender_id=source.sender_id,
                    apparent_id=source.apparent_id,
                    round_index=source.round_index,
                    num_samples=source.num_samples,
                    state=self.schema.views(row),
                    metadata=metadata,
                    flat_vector=row,
                )
            )
        return out

    def with_matrix(self, matrix: np.ndarray) -> "FlatUpdateBatch":
        """Same bookkeeping, new parameter plane (e.g. after noising)."""
        return FlatUpdateBatch(schema=self.schema, matrix=matrix, updates=self.updates)

    # ------------------------------------------------------------------
    # Update algebra (each bit-identical to its dict-based oracle)
    # ------------------------------------------------------------------
    def median(self) -> np.ndarray:
        """Coordinate-wise median across participants."""
        return np.median(self.matrix, axis=0).astype(np.float32)

    def trimmed_mean(self, trim: int) -> np.ndarray:
        """Coordinate-wise mean after dropping ``trim`` extremes per side."""
        count = len(self)
        if trim < 0:
            raise ValueError(f"trim must be >= 0, got {trim}")
        if 2 * trim >= count:
            raise ValueError(f"trim={trim} removes all of {count} updates")
        ordered = np.sort(self.matrix, axis=0)
        kept = ordered[trim : count - trim]
        return flat_mean(list(kept), self.schema).astype(np.float32)

    def deltas(self, reference: np.ndarray | dict) -> np.ndarray:
        """All update directions against a reference state as one subtract."""
        if isinstance(reference, dict):
            reference = self.schema.pack(reference)
        return self.matrix - reference

    def norms(self, reference: np.ndarray | dict | None = None) -> np.ndarray:
        """Per-participant L2 norm (of the delta when a reference is given).

        Bit-identical to the dict-based norm oracles: float64 of the original
        values (not of a float32-rounded delta), reduced per parameter span
        and accumulated in schema order.
        """
        if reference is None:
            deltas = self.matrix.astype(np.float64)
        else:
            if isinstance(reference, dict):
                # pack by schema name (a reference dict may order its keys
                # differently), in float64 of the original values
                reference = np.concatenate(
                    [
                        np.asarray(reference[name], dtype=np.float64).ravel()
                        for name in self.schema.names
                    ]
                )
            deltas = self.matrix.astype(np.float64) - np.asarray(reference, dtype=np.float64)
        return row_norms(deltas, self.schema)
