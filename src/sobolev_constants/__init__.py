"""Sobolev-embedding constants, kernel envelopes and exponential-
integrability thresholds, with desk-scale verification of the inequality
chains connecting them."""

__version__ = "0.1.0"
