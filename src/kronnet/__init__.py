"""Sampling from Kronecker-product generative network models.

The package builds edge-probability grids as Kronecker powers of a small
parameter matrix, samples networks from them with four interchangeable
strategies (per-cell scan, full conditional sweep, pruned hierarchical
sweep, and grouped placement), and provides statistical verification plus
random-variable accounting for each strategy.
"""

from .bn import (
    BayesNet,
    BnNode,
    ancestral_sample,
    build_bn,
    check_csi,
    check_dcsd,
)
from .config import (
    DEFAULT_DENSE_CAP,
    ModelConfig,
    ThetaMatrix,
    config_from_dict,
    config_to_dict,
    load_config,
    make_config,
)
from .errors import (
    BadArgs,
    BadConfig,
    BadLevels,
    CapExceeded,
    EntryOutOfRange,
    GroupCapExceeded,
    IndexOutOfRange,
    KronnetError,
    Overflow,
)
from .groups import (
    DEFAULT_GROUP_CAP,
    GridUnranker,
    ProbabilityGroup,
    grid_groups,
    theta_value_classes,
)
from .kron import (
    DenseProbMatrix,
    ci_rv_count,
    dcsd_ebound,
    edge_prob,
    expected_active,
    kronecker_power,
)
from .rng import level_rng, replicate_seed
from .samplers import (
    LevelTrace,
    ModelSampler,
    SampledNetwork,
    SampleTrace,
    Strategy,
    sample,
)
from .verify import (
    ComplexityReport,
    DegreeStats,
    EquivalenceReport,
    MarginalReport,
    complexity_audit,
    degree_stats,
    equivalence_test,
    marginal_test,
)

__version__ = "0.1.0"

__all__ = [
    "BayesNet",
    "BnNode",
    "ancestral_sample",
    "build_bn",
    "check_csi",
    "check_dcsd",
    "DEFAULT_DENSE_CAP",
    "ModelConfig",
    "ThetaMatrix",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "make_config",
    "BadArgs",
    "BadConfig",
    "BadLevels",
    "CapExceeded",
    "EntryOutOfRange",
    "GroupCapExceeded",
    "IndexOutOfRange",
    "KronnetError",
    "Overflow",
    "DEFAULT_GROUP_CAP",
    "GridUnranker",
    "ProbabilityGroup",
    "grid_groups",
    "theta_value_classes",
    "DenseProbMatrix",
    "ci_rv_count",
    "dcsd_ebound",
    "edge_prob",
    "expected_active",
    "kronecker_power",
    "level_rng",
    "replicate_seed",
    "LevelTrace",
    "ModelSampler",
    "SampledNetwork",
    "SampleTrace",
    "Strategy",
    "sample",
    "ComplexityReport",
    "DegreeStats",
    "EquivalenceReport",
    "MarginalReport",
    "complexity_audit",
    "degree_stats",
    "equivalence_test",
    "marginal_test",
    "__version__",
]
