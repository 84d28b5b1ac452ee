"""Operator-valued positive definite functions on free groups.

Construct, verify, extend, and parametrize positive definite functions on
F_m via one-missing-entry PSD completions along the Cayley tree, and
factor positive noncommutative polynomials as sums of squares.
"""

from .words import (
    E,
    BallSizeError,
    ClassCursor,
    GroupContext,
    Word,
    ball,
    class_rep,
    classes_of_length,
    classes_up_to,
    common_beginning,
    inverse,
    lex_compare,
    make_word,
    mul,
    reduce_word,
    sphere,
)
from .cayley import clique_C, distance, sigma_set, tree_median
from .linalg import (
    DEFAULT_TOL,
    NotHermitianError,
    NotPsdError,
    Tolerance,
    eig_hermitian,
    gram_factor,
    is_psd,
    pinv,
    psd_project,
)
from .completion import (
    CompletionError,
    ContractionNormError,
    DefectData,
    PartialBlockMatrix,
    PartialPositivityError,
    analyze,
    complete,
    extract_gamma,
)
from .pdfun import (
    BallDomain,
    DomainError,
    GramMatrix,
    IdealDomain,
    MissingValueError,
    PdFunction,
    VerifyResult,
    function_of_toeplitz,
    gram,
    kolmogorov,
    pdfunction_from_json,
    radialize,
    toeplitz_of,
    verify_pd,
)
from .extend import (
    ExtensionStep,
    ExtensionTrace,
    OrthogonalityReport,
    ParamOracle,
    check_max_orthogonal,
    extend_to_ball,
    extract_params,
    oracle_from_params,
    zero_oracle,
)
from .quasimult import GeneratorAssignment, as_pdfunction, haagerup, quasi_mult
from .ncpoly import (
    InfeasibleReport,
    NcPolynomial,
    SosCertificate,
    eval_unitaries,
    factor_sos,
    ncpolynomial_from_json,
    sample_positivity,
    split_squares,
)
from .sampling import (
    haar_unitary,
    random_contraction,
    random_gamma_oracle,
    random_pd_function,
)

__version__ = "0.1.0"
