"""Rollover-prevention safety filters for differential-drive robots.

Library plus CLI simulator: slope-driven rollover constraints from the
lateral zero-moment point, derivative estimation of the noisy gravity
signals with certified error envelopes, and a minimally invasive QP filter
in front of a goal-seeking controller.
"""

from .harness import compare, run
from .scenario import Scenario, load_config

__version__ = "0.1.0"

__all__ = ["Scenario", "compare", "load_config", "run", "__version__"]
