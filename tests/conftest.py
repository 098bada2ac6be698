"""Shared pytest setup."""

# Hypothesis mixes the numeric literals of every loaded project module into
# the examples it draws, so a derandomized property test would explore other
# examples whenever any literal in src/ changed. An empty pool keeps each
# test's examples a function of the test alone.
try:
    from hypothesis.internal.conjecture import providers as _providers
    _providers._get_local_constants = _providers.Constants
except (ImportError, AttributeError):   # no hypothesis, or one that mines no literals
    pass
