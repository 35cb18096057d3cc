"""Desk-scale lab for piecewise rectified-flow distillation on 2D data."""

from . import adv, diag, distill, flow, netcore, sched

__version__ = "0.1.0"
