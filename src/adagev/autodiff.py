"""The two names the program shares with the tests' autodiff engine.

The engine itself lives in ``tests/graph_engine.py``: it is the oracle the
fused numpy step is held to, and no training or inference runs on it. This
module keeps its name because the benchmark's tracer lists ``autodiff`` in
``perfbench/spans.py``'s ``MODULES``; once that entry goes, these two names
fold into ``model``.
"""

LOG_CLAMP = 1e-12  # the smallest probability ``objective.entropy`` takes the log of


class NonFiniteError(ValueError):
    """A forward pass or an optimizer step produced NaN or Inf."""
