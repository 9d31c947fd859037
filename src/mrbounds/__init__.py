"""Exact small-graph bounds and numerical rank certificates for the maximum
eigenvalue multiplicity problem.

The central chain, computed exactly on desk-scale graphs:

    delta = t_minus  <=  (max multiplicity)  <=  z  <=  t_plus  <=  delta_plus

with alternating-projection certificates supplying numerical lower bounds
that close the gap from below when they converge.

Each module declares its public names in its ``__all__``; the package
re-exports them all.
"""

from . import certificates, core, deletion, forcing, pathcover, reports
from .certificates import *
from .core import *
from .deletion import *
from .forcing import *
from .pathcover import *
from .reports import *

__version__ = "0.1.0"

_MODULES = (certificates, core, deletion, forcing, pathcover, reports)
__all__ = sorted({name for module in _MODULES for name in module.__all__})
