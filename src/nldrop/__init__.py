"""Nonlocal liquid-drop energies on general kernels.

Energy functionals built from a repulsive riesz term, a kernel-driven
nonlocal perimeter, and an optional attractive background; mass thresholds
beyond which minimizers cannot exist; cut-defect diagnostics that certify
nonexistence on concrete shapes; and competitor families (ball splittings
and the weak subadditivity probe) that exhibit the splitting behaviour
directly.

Every public name is exported lazily: ``import nldrop`` loads no numeric
module, and the first access to a name imports the module that defines it
(PEP 562).
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "energy": (
        "EnergyParams", "EnergyReport", "background", "interaction",
        "perimeter", "riesz", "total_energy",
    ),
    "errors": (
        "ConfigError", "DomainError", "NldropError", "ParameterError",
        "PreconditionError", "ShapeFormatError",
    ),
    "families": (
        "FamilySearchResult", "SubadditivityProbe", "layout_energy",
        "single_ball_energy", "split_advantage", "weak_subadditivity_probe",
    ),
    "geometry": (
        "BallConfig", "VoxelShape", "ball_of_volume", "indicator",
        "load_balls", "load_voxel", "random_blob", "random_disjoint_pair",
        "save_balls", "save_voxel", "scale", "translate", "unit_ball_volume",
        "unit_sphere_area", "volume",
    ),
    "isoperimetry": (
        "IsoperimetryCheck", "bound_constant", "isoperimetric_check",
        "run_suite", "volume_cap",
    ),
    "kernels": (
        "KernelConditionReport", "KernelSpec", "eval_kernel",
        "eval_kernel_radial", "radial_tail_integral", "validate_conditions",
    ),
    "quadrature": (
        "IntegralEstimate", "QuadratureSpec", "double_integral",
        "complement_double_integral", "integral_over", "voxelize",
    ),
    "slicing": (
        "AveragedBoundReport", "LayerCakeChecks", "ScanResult",
        "SliceDefectRecord", "averaged_mass_bound", "layer_cake_checks",
        "scan", "splitting_defect", "sphere_positive_integral",
    ),
    "thresholds": (
        "GeneralConstants", "ThresholdRecord", "critical_mass", "epsilon_min",
        "general_constants", "general_critical_mass", "phi",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
