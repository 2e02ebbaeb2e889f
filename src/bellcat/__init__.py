"""Bell-type inequality laboratory for bipartite spin-s cat states.

The package studies the entangled superposition of two back-to-back
product configurations of two spin-s particles: its measurement
correlations under extremal-outcome postselection, the local/non-local
split of those correlations, four Bell-type inequalities evaluated against
exact or Monte Carlo correlation sources, and derivative-free searches for
maximally violating measurement angles.  The physics headline is a parity
effect: for integer s the non-local part cancels identically and no
inequality is ever violated, while half-integer s violates up to the
Tsirelson bound, the difference being a (-1)^(2s) geometric phase.
"""

from .spins import *
from .states import *
from .correlations import *
from .inequalities import *
from .optimize import *
from .sampling import *

__version__ = "0.1.0"

# Each module's __all__ is what the package exports; importing a submodule
# binds its name here, so the lists are read from the modules themselves.
__all__ = ["__version__", *spins.__all__, *states.__all__, *correlations.__all__,
           *inequalities.__all__, *optimize.__all__, *sampling.__all__]
