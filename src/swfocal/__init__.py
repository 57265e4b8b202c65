"""Environment-aware acoustic source localization in shallow water.

The package models a flat-bottom shallow-water waveguide, predicts
direction-of-arrival (DOA) angles for the dominant propagation paths by
closed-form ray tracing, associates noisy DOA observations to paths under a
detection/clutter model, and tracks source range and depth with a particle
filter.  A command-line interface ties grid precomputation, scenario
simulation, tracking and evaluation together.
"""

__all__ = []
