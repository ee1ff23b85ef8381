"""Exact-arithmetic engine for theta elements of eigenfunctions on the
Bruhat-Tits tree: tree combinatorics, quadratic torus orbits, Hecke
operators, finite group-ring towers with plus/minus decomposition,
character specialization, and the associated invariants.

`import thetaforge` is lazy: it loads no submodule.  Each name below is
imported from its home module on first use (PEP 562), and read from that
module on every use, so a patched module attribute is what the package
returns.  The command line likewise loads only the modules a command runs.
"""

from importlib import import_module

# exported name -> home module
_HOME = {
    **dict.fromkeys((
        "CompatibilityViolation", "ConductorTooLarge", "DistributionViolation", "EmptyDomain",
        "InvariantViolation", "MissingEigenvalue", "NotDivisible", "NotOrdinary",
        "NotSupersingular", "PrecisionExhausted", "ThetaForgeError", "TransitivityViolation",
        "UnsupportedDelta"), "errors"),
    **dict.fromkeys((
        "CyclotomicValue", "EigenData", "PrecisionInt", "cyclotomic_sigma",
        "hensel_unit_root"), "padic"),
    **dict.fromkeys((
        "DirectedEdge", "Vertex", "ball", "distance", "geodesic_path", "neighbors", "origin",
        "sphere"), "tree"),
    **dict.fromkeys((
        "QuadraticTorus", "TorusElement", "base_sequence", "filtration_order",
        "orbit_table"), "torus"),
    **dict.fromkeys((
        "GroupRingElement", "divide_omega_tilde", "mu_invariant", "project", "star",
        "xi"), "groupring"),
    **dict.fromkeys((
        "EdgeForm", "VertexForm", "hecke_T", "hecke_U", "local_eigen_extend",
        "nu_invariant", "stabilize"), "hecke"),
    **dict.fromkeys((
        "CompatibleSystem", "PadicLFunction", "ThetaElement", "check_distribution",
        "from_tree", "lp", "pm_extract", "synth_system", "theta_level",
        "theta_ordinary"), "measures"),
    **dict.fromkeys((
        "FiniteOrderCharacter", "HowardFamily", "howard_check", "interpolation_shape",
        "period_sum", "specialize"), "characters"),
}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{home}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
