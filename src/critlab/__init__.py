"""critlab: criticality-ordered testing lab for elementary adverse driving scenarios.

Generates maximally critical yet winnable test cases for merge, lane-change
and intersection conflicts, simulates pluggable longitudinal autopilots
against them in closed loop, and classifies failures by where they sit in the
criticality order (frontier band, irrational, overcautious, overall), with
rationality, determinacy and partition-coverage analyses on top.
"""

__version__ = "0.1.0"
