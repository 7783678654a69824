"""Exponent calculus, hypothesis checks and a radial variational solver
for weighted quasilinear elliptic equations with singular or vanishing
radial potentials."""

from .exponents import (
    AdmissibleSet,
    BoundaryCase,
    CriticalExponents,
    EndpointAsymptotics,
    GammaSingular,
    InfinityWitness,
    InvalidAsymptotics,
    NotAdmissible,
    ProblemDims,
    WitnessInterval,
    alpha_triplet,
    critical_exponents,
    gamma_upper_threshold,
    normalization_reduce,
    pointwise_decay_exponent,
    q1_admissible_set,
    q1_region_membership,
    q2_lower_bound,
    q_double_star,
    q_star,
    sobolev_exponent,
    tail_decay_exponent,
    xi_witness_infinity,
    xi_witness_origin,
)
from .nonlinearity import NonlinearitySpec, F_eval, f_eval, pure_power
from .potentials import (
    AsymptoticBound,
    Constant,
    ExpInv,
    MaxOf,
    MinOf,
    Piecewise,
    PotentialSpec,
    PotentialTable,
    Power,
    essinf_weighted,
    esssup_ratio,
    eval_potentials,
    spec_from_json,
    validate_hypotheses,
)
from .probes import ProbeCurve, TrialFamily, decay_verdict, make_trial_family, probe_infinity, probe_origin
from .solver import (
    RadialFunction,
    RadialGrid,
    SolveReport,
    build_grid,
    decay_slopes,
    energy,
    nehari_scale,
    solve_ground_state,
)

__version__ = "0.1.0"
