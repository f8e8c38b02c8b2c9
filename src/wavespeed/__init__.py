"""Sign of the propagation speed of bistable competition fronts.

The package answers one question about the two-species strong-competition
system: which way does the unique bistable front move?  Three independent
routes are provided and cross-checked:

* ``theory``   -- explicit sufficient criteria on (d, r, k1, k2),
* ``supersol`` -- constructive blocking profiles certified numerically,
* ``pde``      -- a direct simulation oracle measuring the front speed,

plus ``scan`` for parameter-plane maps and a ``wavespeed`` CLI.
"""

from .model import validate
from .theory import CriterionId, classify
from .pde import default_config, estimate_speed

__version__ = "0.1.0"
