"""Many-server queue laboratory.

Layers: service/arrival laws and operator calculus (dists), an exact
FCFS queue simulator (microsim), the deterministic fluid solver (fluid),
a sampler for the Gaussian second-order limit (limitsim), scale transforms
and statistical test batteries (scalestats), and a CLI (cli).
"""
import importlib

__version__ = "0.1.0"

_SUBMODULES = ("dists", "microsim", "fluid", "limitsim", "scalestats", "cli")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
