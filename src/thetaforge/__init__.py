"""Exact-arithmetic engine for theta elements of eigenfunctions on the
Bruhat-Tits tree: tree combinatorics, quadratic torus orbits, Hecke
operators, finite group-ring towers with plus/minus decomposition,
character specialization, and the associated invariants.
"""

from .errors import (
    CompatibilityViolation,
    ConductorTooLarge,
    DistributionViolation,
    EmptyDomain,
    InvariantViolation,
    MissingEigenvalue,
    NotDivisible,
    NotOrdinary,
    NotSupersingular,
    PrecisionExhausted,
    ThetaForgeError,
    TransitivityViolation,
    UnsupportedDelta,
)
from .padic import (
    CyclotomicValue,
    IntPolynomial,
    PrecisionInt,
    cyclotomic_sigma,
    hensel_unit_root,
)
from .tree import DirectedEdge, Vertex, ball, distance, geodesic_path, neighbors, origin, sphere
from .torus import (
    QuadraticTorus,
    TorusElement,
    base_sequence,
    filtration_order,
    orbit_table,
)
from .groupring import (
    GroupRingElement,
    divide_omega_tilde,
    mu_invariant,
    project,
    star,
    xi,
)
from .hecke import (
    EdgeForm,
    EigenData,
    VertexForm,
    hecke_T,
    hecke_U,
    local_eigen_extend,
    nu_invariant,
    stabilize,
)
from .measures import (
    CompatibleSystem,
    PadicLFunction,
    ThetaElement,
    check_distribution,
    from_tree,
    lp,
    pm_extract,
    synth_system,
    theta_level,
    theta_ordinary,
)
from .characters import (
    FiniteOrderCharacter,
    HowardFamily,
    howard_check,
    interpolation_shape,
    period_sum,
    specialize,
    star_identity_check,
)

__version__ = "0.1.0"
