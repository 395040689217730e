"""Sticky-reflecting Brownian motion on the half-space.

Closed-form transition kernel, intrinsic cost and geodesics, exact path
sampling, large-deviation slope experiments, and optimal transport with the
intrinsic cost.  Import each name from its module (``stickybm.kernel``,
``stickybm.ldp``, ...); the package re-exports none.
"""

__version__ = "0.1.0"
