"""Compositional scene hypervectors and resonator-network factorization.

Encode multi-object symbolic scenes as sums of bound bipolar codewords,
factor them back into per-object attributes with a four-module resonator
network plus explain-away, and evaluate accuracy against a calibrated noise
channel.

The package exports exactly the names in each module's ``__all__``.
"""

from . import codebook, decoder, harness, ops, resonator, scene
from .codebook import *  # noqa: F401,F403
from .decoder import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .ops import *  # noqa: F401,F403
from .resonator import *  # noqa: F401,F403
from .scene import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*ops.__all__, *codebook.__all__, *scene.__all__, *resonator.__all__,
           *decoder.__all__, *harness.__all__]
