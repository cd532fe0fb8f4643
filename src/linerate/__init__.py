"""linerate: a parallel-TCP speed test framework with a deterministic flow simulator.

Each public name is imported from the layer that defines it on first use
(PEP 562), so a process loads only the layers it runs: a responder loads
``responder``, ``protocol`` and ``units`` and nothing else.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, under the submodule that defines it.
_LAYERS = {
    "flowmodel": ("LinkModel", "FlowState", "ThroughputTrace", "advance_round",
                  "simulate_transfer", "slow_start_rounds", "loss_limited_throughput"),
    "metrics": ("LatencyStats", "EstimationMethod", "MetricReport", "loss_rate", "jitter",
                "interval_rates", "detect_steady_start", "estimate_throughput"),
    "engine": ("Engine", "TestSpec", "RawTestRecord", "TestRefusedError",
               "UnreachableTargetError"),
    "responder": ("Responder",),
    "coordinator": ("ServerDescriptor", "Registry", "Schedule", "MultiDestResult",
                    "candidate_pool", "select_server", "generate_schedule",
                    "run_multi_destination", "simulate_destination_transfers"),
    "records": ("MeasurementResult", "AggregateReport", "ResultStore"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}
# Submodules reachable as attributes of the package without importing them first.
_SUBMODULES = frozenset({*_LAYERS, "protocol", "units"})

__all__ = [*_LAYER_OF, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        # Importing a submodule binds it in this namespace.
        return import_module(f"{__name__}.{name}")
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
