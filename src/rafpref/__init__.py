"""Preferences over random availability functions.

Alternatives may or may not turn out to be available; a random availability
function (RAF) records each alternative's availability probability.  This
package models preference oracles over RAFs, screens them against the order
axioms and against the two regularity hypotheses (weak dominance and weak
continuity), constructs a certified utility representation by bisecting the
diagonal of the availability cube, builds strictly dominating perturbation
sequences for pointwise dominating pairs, and chooses from finite menus with
a cross check between the direct tournament and the constructed utility.
"""

from .axioms import (
    FALSIFIED,
    PASSED_SAMPLED,
    AxiomCheck,
    AxiomReport,
    ContinuityWitness,
    SequenceFamily,
    builtin_families,
    check_order_axioms,
    falsify_weak_continuity,
    falsify_weak_dominance,
)
from .choice import (
    ChoiceCrossReport,
    Menu,
    choose_by_utility,
    cross_validate_choice,
    maximal_set,
)
from .errors import (
    AlternativeSetMismatchError,
    DiagonalMonotonicityError,
    DominanceHypothesisError,
    MenuAxiomError,
    RafPrefError,
    ValidationError,
)
from .perturb import PerturbationSequences, perturbation_sequences
from .preference import (
    KINDS,
    PreferenceOracle,
    PreferenceSpec,
    build_oracle,
    indifferent,
    strictly_prefers,
)
from .raf import (
    AlternativeSet,
    Raf,
    bottom,
    make_raf,
    pointwise_dominates,
    scale_top,
    strictly_dominates,
    sup_distance,
    top,
)
from .sampling import RafSampler
from .utility import (
    RepresentationReport,
    RepresentationViolation,
    UtilityResult,
    check_certificate,
    compute_u,
    membership,
    validate_representation,
)

__version__ = "0.1.0"

__all__ = [
    "AlternativeSet",
    "AlternativeSetMismatchError",
    "AxiomCheck",
    "AxiomReport",
    "ChoiceCrossReport",
    "ContinuityWitness",
    "DiagonalMonotonicityError",
    "DominanceHypothesisError",
    "FALSIFIED",
    "KINDS",
    "Menu",
    "MenuAxiomError",
    "PASSED_SAMPLED",
    "PerturbationSequences",
    "PreferenceOracle",
    "PreferenceSpec",
    "Raf",
    "RafPrefError",
    "RafSampler",
    "RepresentationReport",
    "RepresentationViolation",
    "SequenceFamily",
    "UtilityResult",
    "ValidationError",
    "bottom",
    "build_oracle",
    "builtin_families",
    "check_certificate",
    "check_order_axioms",
    "choose_by_utility",
    "compute_u",
    "cross_validate_choice",
    "falsify_weak_continuity",
    "falsify_weak_dominance",
    "indifferent",
    "make_raf",
    "maximal_set",
    "membership",
    "perturbation_sequences",
    "pointwise_dominates",
    "scale_top",
    "strictly_dominates",
    "strictly_prefers",
    "sup_distance",
    "top",
    "validate_representation",
]
