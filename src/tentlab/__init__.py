"""tentlab: a laboratory for tent-map dynamics.

Exact, double, and fixed-precision orbits; periodic-cycle enumeration and
onset thresholds; six-tap predictive-averaging stabilization; basin sweeps;
delayed-escape detection; and hyperbolic two-term recurrence experiments.

The names below are the ones the README, the demos and bench/micro.py use;
everything else is imported from its module (tentlab.backends, ...).
"""

__version__ = "0.1.0"

import os

# numpy's OpenBLAS reads its thread count once, as numpy loads, and starts a
# pool that spins between calls; tentlab's largest LAPACK call is np.roots
# of degree 6.  So ask for one thread, unless the caller chose a count, and
# leave os.environ as the caller left it.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .backends import Binary64, FixedDecimal, Rational
from .cycles import enumerate_cycles, onset_threshold
from .experiments import NetSpec, detect_escape, sqrt2_experiment, sqrt2_reference, sweep
from .fibonacci import decompose, first_crossing, predict_escape_index, recurrence
from .stabilize import build_coefficients, classify_equilibria, companion_spectrum, stabilized_orbit
from .tentmap import MapParams, itinerary, orbit, tent_step

__all__ = [
    "__version__",
    "Binary64", "FixedDecimal", "MapParams", "NetSpec", "Rational",
    "build_coefficients", "classify_equilibria", "companion_spectrum", "decompose",
    "detect_escape", "enumerate_cycles", "first_crossing", "itinerary",
    "onset_threshold", "orbit", "predict_escape_index", "recurrence",
    "sqrt2_experiment", "sqrt2_reference", "stabilized_orbit", "sweep", "tent_step",
]
