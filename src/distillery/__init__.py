"""Fock-basis simulator for entanglement distillation in lossy memories.

The public names are loaded from their submodules on first use (PEP 562),
so that importing the package loads no numpy: `python -m distillery` sets
the BLAS thread count before numpy starts its thread pool.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "channels": (
        "LossChannelParams",
        "MashResult",
        "SubtractionParams",
        "bs_amplitude",
        "detect_one_mode",
        "detect_phonons",
        "fock_bs_element",
        "loss_event",
        "loss_kraus",
        "mash_step",
        "repeated_loss",
    ),
    "core": (
        "NotHermitianError",
        "TruncationConfig",
        "TwoModeState",
        "ZeroTraceError",
        "auto_n_max",
        "min_eigenvalue",
        "normalize",
        "state_from_coeffs",
        "tmss",
        "vacuum",
    ),
    "negativity": (
        "NegativityResult",
        "log_negativity",
        "trace_distance",
        "trace_norm",
    ),
    "protocol": (
        "AvgEntanglement",
        "CriticalCount",
        "DistillationOutcome",
        "MaltingRecord",
        "MaltingSchedule",
        "NoConvergenceError",
        "average_entanglement",
        "critical_attempts",
        "full_protocol",
        "malt",
        "mash_iterate",
        "subtraction_probability_matrix",
    ),
    "sweep": ("RunConfig", "SweepResult", "run", "write_csv"),
}
_SUBMODULE_OF = {name: mod for mod, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name):
    mod = _SUBMODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
