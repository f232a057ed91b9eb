"""Compact-network-design toolkit.

Represents CNNs as immutable layer graphs, builds the reference
architectures, applies squeeze/expand parameter-reduction passes, statically
analyzes parameters/FLOPs/memory, and runs dual-objective (accuracy vs.
memory) Pareto analysis over measurement data.

The public names are loaded on first access (PEP 562), so ``import cndkit``
loads no submodule; ``cndkit.count_params`` then imports ``cndkit.analyzer``.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# public name -> home module, in ``__all__`` order
_HOME = {
    **dict.fromkeys((
        "Activation", "Add", "BatchNorm", "Conv2D", "Dense", "GlobalAvgPool", "Input",
        "LayerKind", "LayerNode", "MaxPool", "ModelGraph", "SeparableConv2D", "TensorShape",
        "infer_shapes", "topo_sort", "validate"), "graph"),
    **dict.fromkeys(("serialize", "deserialize", "save_model", "load_model"), "serialize"),
    "FireModuleSpec": "transforms",
    **dict.fromkeys((
        "OptimizedConfig", "DEFAULT_OPTIMIZED_CONFIG", "build_xception",
        "build_optimized_xception", "build_mobilenet_v2"), "zoo"),
    "make_fire_module": "transforms",
    "LayerParams": "graph",
    **dict.fromkeys((
        "LayerRow", "ParamReport", "MemoryEstimate", "analyze", "count_params",
        "count_params_layer", "flops_estimate", "activation_sizes", "memory_estimate",
        "round_params_millions"), "analyzer"),
    **dict.fromkeys((
        "PassReport", "DownsampleAudit", "strategy1_replace_kernels", "strategy2_insert_fire",
        "strategy3_audit", "diff", "structurally_equal"),
        "transforms"),
    **dict.fromkeys((
        "ModelMeasurement", "Quadrant", "QuadrantConfig", "load_measurements", "load_fixture",
        "memory_frontier", "classify_quadrant", "pareto_front", "export_plot_data"), "pareto"),
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """``serialize`` is both a submodule and a public function. Importing the
    submodule makes the import system bind it to the package attribute, which
    would hide the function; that one binding is refused, so
    ``cndkit.serialize`` resolves through ``__getattr__`` to the function."""

    def __setattr__(self, name, value):
        if name == "serialize" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
