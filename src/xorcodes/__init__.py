"""Binary erasure codes: exact decoding probabilities, balanced XOR
constructions, and stochastic search for good generator matrices.
"""

__version__ = "0.1.0"

from . import decoding, gf2, latin, search
from .decoding import *  # noqa: F403
from .gf2 import *  # noqa: F403
from .latin import *  # noqa: F403
from .search import *  # noqa: F403

__all__ = ["__version__", *gf2.__all__, *latin.__all__, *decoding.__all__, *search.__all__]
