"""tentlab: a laboratory for tent-map dynamics.

Exact, double, and fixed-precision orbits; periodic-cycle enumeration and
onset thresholds; six-tap predictive-averaging stabilization; basin sweeps;
delayed-escape detection; and hyperbolic two-term recurrence experiments.

The names below are the ones the README, the demos and bench/micro.py use;
everything else is imported from its module (tentlab.backends, ...).  Each
resolves on first use, importing only its own module, so that importing
tentlab, or tentlab.cli for one subcommand, compiles no module it does not run.
Neither loads numpy, which tentlab._arrays alone imports, for array code.
"""

__version__ = "0.1.0"

import importlib

_MODULES = {
    "backends": ("Binary64", "FixedDecimal", "Rational"),
    "basins": ("NetSpec", "sweep"),
    "cycles": ("enumerate_cycles", "onset_threshold"),
    "experiments": ("detect_escape", "sqrt2_experiment", "sqrt2_reference"),
    "fibonacci": ("decompose", "first_crossing", "predict_escape_index", "recurrence"),
    "stabilize": ("build_coefficients", "classify_equilibria", "companion_spectrum",
                  "stabilized_orbit"),
    "tentmap": ("MapParams", "itinerary", "orbit", "tent_step"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
