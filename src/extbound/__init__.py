"""Exact homological invariants of bounded quiver algebras.

Minimal projective resolutions, Ext dimension tables, projective and
injective dimensions, restricted Auslander bounds over finite corpora, and
certificate-backed checkers for tilting modules and the related homological
conjectures, all over GF(p) or the rationals with exact arithmetic.
"""

from .exactla import (
    DimensionMismatchError, FieldMismatchError, FieldSpec, Matrix,
    kernel_basis, rank, rref, solve,
)
from .algebra import (
    Algebra, AlgebraPresentation, Arrow, NilpotencyBoundError, Path,
    PresentationError, Quiver, Representation, build_algebra, direct_sum,
    direct_sum_with_maps, dual_module, injective_module, make_relation,
    opposite, path_action, projective_module, regular_module, simple_module,
    zero_representation,
)
from .modules import (
    AddMembership, AlgebraMismatchError, Decomposition, InternalCheckError,
    IsoResult, ModuleMap, cokernel, decompose, end_basis, hom_basis, image,
    in_add, in_add_family, is_isomorphic, kernel, projective_cover, radical,
    top_multiplicities,
)
from .homology import (
    ExtTable, MinimalResolution, OnsetResult, PdAtLeast, PdFinite,
    PdPeriodic, PdResult, PeriodicityCertificate, cosyzygy,
    ext_dims_via_complex, ext_dims_via_stable, ext_table,
    injective_dimension, minimal_resolution, onset_against_regular,
    periodicity_certificate, projective_dimension, syzygy, vanishing_onset,
)
from .bounds import (
    AbResult, BoundValue, CertNotApplicable, CertUndetermined, CheckOutcome,
    Corpus, CorpusBoundReport, PdBound, PropertyReport, StatementResult,
    UltimateClosure, UnknownNameError, check_regular_onset_formula,
    corpus_bounds, dual_corpus, finite_pd_certificate, left_bound,
    right_bound, right_bound_direct, strongly_redundant_from,
    ultimately_closed_at, verify_bound_properties,
)
from .tilting import (
    ArcScanReport, CoresolutionResult, EwtcReport, GscReport, SelforthResult,
    TiltingReport, WakamatsuReport, arc_scan, coresolution_in_add,
    ewtc_check, gsc_report, is_selforthogonal, is_tilting, is_wakamatsu,
    left_add_approximation,
)
from .fixtures import (
    FIXTURE_NAMES, build_fixture_corpus, fixture_algebra, fixture_corpus,
    fixture_module, generate_corpus,
)

__version__ = "0.1.0"
