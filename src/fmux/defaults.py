"""Physical constants, bench comparison values and the package version.

The operating point itself lives in data/default.cfg; ScenarioConfig builds
every model from it.
"""

import math

TWO_PI = 2.0 * math.pi
C_LIGHT = 299_792_458.0  # m/s

# bench comparison values; reported next to model outputs, never fitted to
MEASURED_HOM_VISIBILITY = 0.61
MEASURED_HOM_VISIBILITY_ERR = 0.04
MEASURED_ENHANCEMENT = 2.7

PACKAGE_VERSION = "0.1.0"
