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

from . import axioms, choice, errors, perturb, preference, raf, sampling, utility
from .axioms import *
from .choice import *
from .errors import *
from .perturb import *
from .preference import *
from .raf import *
from .sampling import *
from .utility import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (axioms, choice, errors, perturb, preference, raf, sampling, utility)
    for name in module.__all__
)
