"""Hierarchical polar coding for block-fading binary symmetric wiretap channels.

Layers: :mod:`hierpolar.polar` (transform, reliability profiles, successive
cancellation), :mod:`hierpolar.channels` (channel laws, fading, scenarios),
:mod:`hierpolar.rates` (closed-form secrecy rates and leakage bounds),
:mod:`hierpolar.scheme` (code construction, two-phase encoder, both
decoders), :mod:`hierpolar.sim` (Monte Carlo harness, exact toy leakage) and
:mod:`hierpolar.cli`.  The package exports each layer's ``__all__`` and
``cli_dispatch``.
"""

from . import channels, polar, rates, scheme, sim
from .channels import *  # noqa: F403
from .polar import *  # noqa: F403
from .rates import *  # noqa: F403
from .scheme import *  # noqa: F403
from .sim import *  # noqa: F403
from .cli import cli_dispatch

__version__ = "0.1.0"

__all__ = sorted(
    [*channels.__all__, *polar.__all__, *rates.__all__, *scheme.__all__, *sim.__all__, "cli_dispatch"]
)
