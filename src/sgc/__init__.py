"""Exact circular chromatic numbers of signed graphs.

Solver, certificate checker, and construction toolkit.  Everything is exact
integer/rational arithmetic; no floats are involved in any decision.
"""

# Each module's __all__ lists its public names; the package exports them
# all, module by module in dependency order.
from .arith import *
from .core import *
from .solver import *
from .certificates import *
from .indicators import *
from .constructions import *
from .io_cli import *

__all__ = [*arith.__all__, *core.__all__, *solver.__all__, *certificates.__all__,
           *indicators.__all__, *constructions.__all__, *io_cli.__all__]
