"""Front-tracking simulation of 1-D excitable media.

Finitely many excited intervals evolve with endpoint speeds +-W(v); the
recovery field v follows exact reaction flows on each side of the moving
interfaces.  Collisions of interfaces are localized in time, the state is
surgered, and integration continues, yielding the global weak solution.  A
finite-difference solve of the underlying two-component reaction-diffusion
model serves as an independent cross-check.
"""

from .kinetics import Parameters
from .state import IntervalSet, Profile

__all__ = ["Parameters", "IntervalSet", "Profile"]

__version__ = "0.1.0"
