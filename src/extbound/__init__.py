"""Exact homological invariants of bounded quiver algebras.

Minimal projective resolutions, Ext dimension tables, projective and
injective dimensions, restricted Auslander bounds over finite corpora, and
certificate-backed checkers for tilting modules and the related homological
conjectures, all over GF(p) or the rationals with exact arithmetic.

``import extbound`` loads the core layers (exactla, algebra, modules,
homology).  The upper layers built on them (bounds, tilting, fixtures,
fileio, cli) are imported on first use of one of their names, such as
``extbound.Corpus`` or ``extbound.tilting``; no core layer imports an
upper one.
"""

import importlib

from .exactla import (
    DimensionMismatchError, FieldMismatchError, FieldSpec, Matrix,
    kernel_basis, rank, rref, solve,
)
from .algebra import (
    Algebra, AlgebraPresentation, Arrow, NilpotencyBoundError, Path,
    PresentationError, Quiver, Representation, build_algebra, direct_sum,
    dual_module, injective_module, make_relation, opposite, path_action,
    projective_module, regular_module, simple_module, zero_representation,
)
from .modules import (
    AddMembership, AlgebraMismatchError, Decomposition, InternalCheckError,
    IsoResult, ModuleMap, cokernel, decompose, direct_sum_with_maps,
    end_basis, hom_basis, image, in_add, in_add_family, is_isomorphic,
    kernel, projective_cover, radical, top_multiplicities,
)
from .homology import (
    ExtTable, MinimalResolution, OnsetResult, PdAtLeast, PdFinite,
    PdPeriodic, PdResult, PeriodicityCertificate, cosyzygy,
    ext_dims_via_complex, ext_dims_via_stable, ext_table,
    injective_dimension, minimal_resolution, onset_against_regular,
    periodicity_certificate, projective_dimension, syzygy, vanishing_onset,
)

__version__ = "0.1.0"

_DEFERRED_NAMES = {
    "bounds": (
        "AbResult", "BoundValue", "CertNotApplicable", "CertUndetermined",
        "CheckOutcome", "Corpus", "CorpusBoundReport", "PdBound",
        "PropertyReport", "StatementResult", "UltimateClosure",
        "UnknownNameError", "check_regular_onset_formula", "corpus_bounds",
        "dual_corpus", "finite_pd_certificate", "left_bound", "right_bound",
        "right_bound_direct", "strongly_redundant_from",
        "ultimately_closed_at", "verify_bound_properties",
    ),
    "tilting": (
        "ArcScanReport", "CoresolutionResult", "EwtcReport", "GscReport",
        "SelforthResult", "TiltingReport", "WakamatsuReport", "arc_scan",
        "coresolution_in_add", "ewtc_check", "gsc_report",
        "is_selforthogonal", "is_tilting", "is_wakamatsu",
        "left_add_approximation",
    ),
    "fixtures": (
        "FIXTURE_NAMES", "fixture_algebra", "fixture_corpus", "fixture_module",
        "generate_corpus",
    ),
}
# public name of an upper layer -> that layer
_LAYER_OF = {name: layer for layer, names in _DEFERRED_NAMES.items() for name in names}
# every layer imported on first use; cli is the command line
_DEFERRED_LAYERS = (*_DEFERRED_NAMES, "fileio", "cli")

# `from extbound import *` binds every public name, core and upper, and
# every library layer, as it did when the package imported them all
__all__ = [name for name in globals() if not name.startswith("_") and name != "importlib"]
__all__ += [*_LAYER_OF, *_DEFERRED_NAMES, "fileio"]


def __getattr__(name):
    """Import the upper layer that defines `name` and read it there.

    The value is looked up on every access and never stored here, so a
    name rebound in its layer (by monkeypatching or a tracer) reads the
    same through the package."""
    layer = _LAYER_OF.get(name)
    if layer is not None:
        return getattr(importlib.import_module(f".{layer}", __name__), name)
    if name in _DEFERRED_LAYERS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_DEFERRED_LAYERS})
