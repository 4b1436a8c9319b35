"""Planar patch extraction from stereo point clouds.

Probabilistic region growing over triangulated interest points: patches are
seeded from matched elliptical image segments, grown point by point under a
Gamma likelihood on a plane/boundary joint distance (weighed against image
priors and a calibrated triangulation-noise penalty), then merged and pruned.
A synthetic-scene harness generates ground-truth planar scenes and scores
extractions against them.
"""

__version__ = "0.1.0"
