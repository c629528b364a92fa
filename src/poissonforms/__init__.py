"""Differential forms, lifted Laplacians, and Monte Carlo semigroup checks
over Poisson configuration spaces."""

from .exterior import (
    Multivector,
    curvature_operator,
    interior,
    leibniz_power,
    t_basis,
    wedge,
)
from .fields import (
    RadialBump,
    SphereAxisField,
    SphereGradientField,
    SphereKilling,
    VectorField,
    gauss_bump,
    monomial,
    polygauss,
)
from .forms import (
    CylinderForm,
    CylinderFunction,
    EvalCache,
    Exp,
    FormTerm,
    FormValue,
    Linear,
    LiftedVector,
    SlotForm,
    SphereSlotOne,
    SphereSlotTwo,
    SymmetricFormField,
    eval_form,
)
from .geometry import Euclidean, IntensitySpec, Space, Sphere, Window, sigma_mass
from .harness import EXPERIMENTS, RunRecord, main, resolve_config, run_experiment
from .operators import (
    OperatorReport,
    adjointness_check,
    d_gamma,
    dd_zero_check,
    dirichlet_check,
    dstar_gamma,
    factorization_check,
    h_pi_sigma,
    ibp_check,
    lift,
    r_pi_sigma,
    weitzenbock_check,
)
from .pointprocess import (
    Configuration,
    MeckeFunctional,
    RngStream,
    expect_series,
    laplace_check,
    mecke_check,
    sample,
    sample_batch,
)
from .report import CheckResult, McEstimate
from .stochastic import (
    BlockPotential,
    SdeConfig,
    curvature_potential,
    eigen_decay_check,
    generator_check,
    parallel_translate,
    semigroup_T0,
    semigroup_Tn,
    simulate_particles,
    zero_potential,
)

__version__ = "0.1.0"
