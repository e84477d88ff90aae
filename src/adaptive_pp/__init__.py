"""Adaptive pole placement for discrete-time SISO plants, with audit tooling.

The package simulates an indirect adaptive controller: a projection-type
estimator identifies an incremental model of the plant, a polynomial design
equation places the closed-loop poles at every step, and the resulting
trajectories are checked by the audits of `audits`: the estimator's energy
inequalities, the exact one-step state recursion, the pole-placement
identity, the crude growth bound and tracking, plus a linear-like gain-bound
fit.  See the README for the command-line entry points.

Each module's ``__all__`` is the one declaration of its public names; the
package re-exports them all.
"""

from . import audits, controller, estimator, exact, plant, polynomial, simulation
from .audits import *
from .controller import *
from .estimator import *
from .exact import *
from .plant import *
from .polynomial import *
from .simulation import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += polynomial.__all__
__all__ += plant.__all__
__all__ += estimator.__all__
__all__ += controller.__all__
__all__ += exact.__all__
__all__ += simulation.__all__
__all__ += audits.__all__
