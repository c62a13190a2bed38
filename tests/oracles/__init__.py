"""Reference implementations kept only as test oracles.

Production code never imports from here; each oracle is the earlier,
simpler form of a production kernel, and the tests hold the production
kernel bitwise equal to it.
"""
