"""Reference implementations kept only as test oracles.

Production code never imports from here; each oracle is the earlier,
simpler form of a production path, and the tests hold the production path
bit for bit to it (run with ``pytest -m oracles``):

* :mod:`tests.oracles.kernels` — the einsum ``conv2d`` and block-reduce
  ``max_pool2d`` of :mod:`repro.nn.functional`;
* :mod:`tests.oracles.algebra` — the per-parameter dict forms of the update
  algebra: FedAvg, deltas, the robust rules, the §4.2 mix, ∇Sim scoring and
  DP-FedAvg clipping.
"""
