"""Default values shared by the library and the command-line parser.

This module imports no numpy, so the CLI can build its parser (and answer
``--help`` or a usage error) without loading the numeric modules.
"""

import math

#: Default correlation grid, samples per class and series length of the
#: simulated datasets (dgp).
DEFAULT_RHO_GRID: tuple[float, ...] = (-0.9, -0.5, 0.0, 0.3, 0.7)
DEFAULT_T = 150
DEFAULT_PER_CLASS = 500

#: Default recurrence threshold (imaging).
DEFAULT_EPSILON = math.pi / 18.0

#: The auxiliary losses, in the order of classify.LOSSES.
LOSS_NAMES = ("hinge", "squared_hinge", "exponential")
