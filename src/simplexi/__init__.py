"""simplexi: sparse linear algebra for latent-simplex vertex recovery.

The package is organized around one fast pipeline (CountSketch low-rank
factorization feeding iterative vertex selection), the classical
subspace-power baseline, generators for three stochastic ground-truth
models, subspace-geometry diagnostics, and a benchmark CLI.
"""

from .learner import (
    LearnerConfig,
    LearnerError,
    VertexEstimates,
    learn_simplex,
    select_indices,
)
from .metrics import (
    BenchRecord,
    MatchResult,
    ReductionCheck,
    ls_loss,
    match_vertices,
    reduction_check,
    subset_smoothing_check,
)
from .models import (
    AssumptionReport,
    SimplexInstance,
    check_assumptions,
    compute_alpha,
    compute_sigma,
    gen_bernoulli,
    gen_clusters_adversarial,
    gen_lda,
    gen_mmsb,
)
from .sketch import (
    CountSketch,
    RankKFactors,
    RankRestoreError,
    apply_countsketch,
    make_countsketch,
    mixed_lra,
    subspace_power,
)
from .sparsemat import (
    SparseColMatrix,
    build_csc,
    column_subset_mean,
    left_apply,
    parse_edge_list,
    right_apply,
    spectral_norm,
)
from .subspace import Basis, orthonormalize, project_out, sin_theta

__version__ = "0.1.0"
