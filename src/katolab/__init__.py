"""katolab: a verification lab for refined Kato inequalities.

Conformal projection catalog, injective ellipticity of first-order
symbols, pointwise inequality fuzzing, and a flat-torus field simulator,
all behind one CLI (`katolab`).
"""

from .errors import (
    BadConstants,
    BadDegree,
    BrokenIdentity,
    ConfigError,
    FiberMismatch,
    NotConformal,
    NotSurjective,
    NotUnit,
    UnknownName,
    UnknownScenario,
    VerificationError,
    ZeroOperator,
    ZeroSection,
)
from .fields import (
    ScenarioReport,
    TrigField,
    coderivative,
    exterior_derivative,
    make_scenario,
    random_field,
    run_scenario,
    sample_points,
    scenario_grid,
)
from .kato import (
    FuzzReport,
    KatoVerdict,
    SpectralBounds,
    check_hodge_inequality,
    check_key_lemma,
    check_operator_inequality,
    equality_witness,
    fuzz_hodge_inequality,
    fuzz_key_lemma,
    fuzz_operator_inequality,
    hodge_gain_pair,
    kato_gain_lemma,
    kato_gain_operator,
    key_lemma_setups,
    line_component_setup,
    matching_first_component,
    verify_spectral_bounds,
)
from .projections import (
    ProjectionReport,
    clifford_projection,
    conformity_report,
    contraction_projection,
    exterior_projection,
    interior_projection,
    symmetrization_projection,
    twistor_projection,
)
from .symbols import (
    EllipticityResult,
    OperatorSpec,
    catalog,
    ellipticity_constant,
    parse_op_string,
    twist,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "VerificationError", "BadConstants", "BadDegree", "BrokenIdentity", "ConfigError",
    "FiberMismatch", "NotConformal", "NotSurjective", "NotUnit",
    "UnknownName", "UnknownScenario", "ZeroOperator", "ZeroSection",
    # projections
    "ProjectionReport", "conformity_report", "exterior_projection",
    "interior_projection", "symmetrization_projection",
    "contraction_projection", "clifford_projection", "twistor_projection",
    # symbols
    "OperatorSpec", "EllipticityResult", "catalog", "parse_op_string",
    "ellipticity_constant", "twist",
    # inequality engine
    "KatoVerdict", "FuzzReport", "SpectralBounds", "kato_gain_lemma",
    "kato_gain_operator", "hodge_gain_pair", "verify_spectral_bounds", "check_key_lemma",
    "check_operator_inequality", "check_hodge_inequality",
    "equality_witness", "matching_first_component", "fuzz_key_lemma",
    "fuzz_operator_inequality", "fuzz_hodge_inequality",
    "key_lemma_setups", "line_component_setup",
    # fields
    "TrigField", "ScenarioReport", "random_field", "exterior_derivative",
    "coderivative", "make_scenario", "run_scenario",
    "scenario_grid", "sample_points",
]
