"""Utility construction along the diagonal ray, with certified brackets.

For an oracle satisfying weak dominance and weak continuity, the set of
diagonal parameters ``{t : scale_top(t) is weakly preferred to A}`` is a
closed up-set of [0, 1] containing 1, so its greatest lower bound ``u(A)``
is well defined and represents the preference: ``A`` is weakly preferred to
``B`` exactly when ``u(A) >= u(B)``.  :func:`compute_u` locates that bound
with the membership predicate, in the cell an oracle's diagonal hint names,
else by bisection, and returns it together with the bracket that certifies
it.

Nothing here assumes the hypotheses silently.  :func:`compute_u` probes
both ends of the ray, unless the oracle's diagonal hint names a cell inside
(0, 1) that the cell's own two answers certify, and raises
:class:`DiagonalMonotonicityError` when the full-availability point fails
the membership test; :func:`validate_representation` measures how well the
computed utilities reproduce the oracle's answers on sampled pairs.
"""

from __future__ import annotations

import math

from .errors import DiagonalMonotonicityError, ValidationError, _count, _tol
from .preference import PreferenceOracle
from .raf import Raf, _diagonal, scale_top
from .sampling import RafSampler

__all__ = [
    "membership",
    "compute_u",
    "check_certificate",
    "validate_representation",
]


def membership(oracle: PreferenceOracle, raf: Raf, t: float) -> bool:
    """Is the constant RAF at level ``t`` weakly preferred to ``raf``?"""
    return oracle.weak_prefers(scale_top(t, oracle.alts), raf)


def _diagonal_guess(oracle: PreferenceOracle, raf: Raf) -> float | None:
    """The oracle's ``diagonal`` guess at ``raf`` if it is a level in
    ``[0, 1]``; None for no hint, or a guess of None, NaN or out of range."""
    if oracle.diagonal is None:
        return None
    hint = oracle.diagonal(raf)
    return hint if hint is not None and 0.0 <= hint <= 1.0 else None


def compute_u(oracle: PreferenceOracle, raf: Raf, tol: float) -> dict:
    """Locate the diagonal membership boundary in a ``2 * tol`` bracket.

    Returns the JSON-ready record ``{"u", "lo", "hi", "oracle_calls"}``.
    The bracket keeps ``0 <= lo <= hi <= 1``: membership held at ``hi``
    and failed at ``lo`` when it was produced, except at an exact
    boundary, where ``lo == hi``.  ``u`` is the bracket's midpoint, the
    bracket is no wider than ``2 * tol``, and ``oracle_calls`` is the int
    count of membership queries asked.

    Bisection of an up-set always ends in the same dyadic cell
    ``[(j-1)w, jw]``, where ``w`` is the largest power of two ``<= 2 * tol``.
    When the oracle has a ``diagonal`` hint and the target is not the
    all-ones RAF, the cell holding the hint is probed first: the end nearer
    1/2, then the other end unless its answer follows from the first.  If
    the cell lies inside (0, 1) and both of its ends were answered, member
    at ``hi`` and not at ``lo``, the cell is returned after those two
    queries; the ends of the ray are not asked.

    In every other case (no hint, a miss, a cell with an end at 0 or 1, or
    the all-ones RAF) both ends of the ray are probed.  If level 0 is a
    member the answer is exactly 0; if the target is the all-ones RAF the
    answer is exactly 1 (membership at 1 holds by reflexivity and no
    interior level can be certified against it).  Failure of membership at
    1 contradicts the weak-dominance hypothesis and raises
    :class:`DiagonalMonotonicityError` with the lowest member level seen, if
    any.  Otherwise a cell touching 0 or 1 is probed now, and the bracket is
    the hinted cell if its answers settle it, else bisection's, which runs
    from ``[0, 1]`` and skips every midpoint whose answer follows from a
    level already probed.

    So for an oracle whose membership is monotone on the diagonal, ``u``,
    ``lo`` and ``hi`` are bisection's; for any oracle the bracket's ends are
    answered levels.  A certified interior cell costs 2 queries.  A wrong
    hint costs at most 1 query more than bisection, or 2 more when an end
    of the ray settles the answer (exactly 0, or the error); interior cells
    exist only for ``tol <= 1/4``, so the total stays within
    ``2 + ceil(log2(1/tol))`` either way.  A certified cell does not screen
    the ray's ends: an oracle that fails membership at 1 is then given a
    bracket, not the error.  A NaN, infinite or out-of-range hint counts as
    none.  Every probed level is a dyadic rational that a float holds
    exactly, because ``tol`` is at least ``2**-54``.  A point over another
    alternative set raises :class:`AlternativeSetMismatchError` before the
    hint is read.
    """
    tol = _tol(tol)
    if raf.alts is not oracle.alts and raf.alts != oracle.alts:
        # Before the hint, which would read coordinates the point may lack.
        raise oracle._mismatch(oracle.alts, raf.alts)
    calls = 0
    # The lowest level known to be a member and the highest known not to be.
    yes, no = 1.0, 0.0

    def member(t: float) -> bool:
        # Every probed t is an exact float in [0, 1], so the point is built
        # unchecked; this is membership() without scale_top's checks.
        nonlocal calls
        calls += 1
        return oracle.weak_prefers(_diagonal(oracle.alts, t), raf)

    def probe(t: float) -> bool:
        # Only levels strictly between ``no`` and ``yes`` are asked, so no
        # answer can contradict an earlier one.
        nonlocal yes, no
        if t >= yes:
            return True
        if t <= no:
            return False
        if member(t):
            yes = t
            return True
        no = t
        return False

    width = math.ldexp(1.0, math.frexp(2.0 * tol)[1] - 1)  # largest power of two <= 2*tol
    # The all-ones point is settled by its ends alone: no hint is read for it.
    top = all(v == 1.0 for v in raf.values)
    hint = None if top else _diagonal_guess(oracle, raf)
    cell = None
    if hint is not None:
        hi = max(math.ceil(hint / width), 1) * width
        lo = hi - width
        cell = (lo, hi)
        # The end nearer 1/2 goes first.  If it contradicts the hint, the
        # other end's answer follows from it and costs nothing; if the other
        # end does, bisection's first midpoint, 1/2, follows from that.  So a
        # wrong hint adds at most one query to the bisection.
        near, far = (hi, lo) if hi <= 0.5 else (lo, hi)
        if 0.0 < lo and hi < 1.0:
            probe(near)
            probe(far)
            # Certified only if both ends were answered: the starting
            # ``no = 0`` and ``yes = 1`` are assumed, not asked.
            if (no, yes) == cell:
                return {"u": 0.5 * (no + yes), "lo": no, "hi": yes, "oracle_calls": calls}

    member_at_zero = member(0.0)
    if not member(1.0):
        seen = f"membership(0.0)={member_at_zero}, "
        if yes < 1.0:
            seen += f"membership({yes!r})=True, "
        raise DiagonalMonotonicityError(
            "oracle violates weak dominance on the diagonal ray: full availability "
            f"is not weakly preferred to the target ({seen}membership(1.0)=False)",
            raf=raf,
            t_member=0.0 if member_at_zero else yes if yes < 1.0 else None,
            t_nonmember=1.0,
        )
    if member_at_zero:
        return {"u": 0.0, "lo": 0.0, "hi": 0.0, "oracle_calls": calls}
    if top:
        return {"u": 1.0, "lo": 1.0, "hi": 1.0, "oracle_calls": calls}
    if cell is not None:
        # A cell touching 0 or 1 asks its inner end; its far end is 0 or 1,
        # settled already, and an interior cell was probed before the ends.
        probe(near)

    lo, hi = 0.0, 1.0
    while hi - lo > 2.0 * tol:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return {"u": 0.5 * (lo + hi), "lo": lo, "hi": hi, "oracle_calls": calls}


def check_certificate(oracle: PreferenceOracle, raf: Raf, result: dict) -> bool:
    """Re-query the bracket endpoints of a record :func:`compute_u` returned.

    Returns ``True`` when membership still holds at ``hi`` and still fails
    at ``lo``; for an exact boundary result the collapsed bracket must sit at
    a cube corner and membership must hold at it.  A ``False`` answer means
    the oracle no longer stands behind the certificate.  A bracket outside
    ``0 <= lo <= hi <= 1``, NaN included, raises :class:`ValidationError`
    before any query is asked.
    """
    lo, hi = result["lo"], result["hi"]
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValidationError(f"bracket out of order: lo={lo!r}, hi={hi!r}")
    if lo == hi:
        return (lo == 0.0 or hi == 1.0) and membership(oracle, raf, hi)
    return membership(oracle, raf, hi) and not membership(oracle, raf, lo)


def validate_representation(
    oracle: PreferenceOracle,
    sampler: RafSampler,
    n_pairs: int,
    tol: float,
) -> dict:
    """Compare computed utilities with direct oracle answers on sampled pairs.

    Each pair costs two utility computations plus two preference queries.
    Returns the JSON-ready record ``{"pairs_tested", "confirmed",
    "indeterminate", "indeterminate_strict", "violations"}``; each pair
    lands in exactly one of the last three counts.  A pair whose utilities
    differ by more than ``2 * tol`` is confirmed when the oracle's two
    answers match the sign of the difference exactly; any mismatch is a
    violation.  A pair inside the band is indeterminate: the brackets cannot
    separate it.  ``indeterminate_strict`` counts the indeterminate pairs on
    which the oracle nevertheless expresses a strict preference, the
    signature of an order that no single utility can represent.  Each entry
    of the ``violations`` list is a JSON-ready record of its pair: the
    points ``first`` and ``second`` (``Raf.from_dict`` reads them back),
    their utilities ``u_first`` and ``u_second``, and the oracle's answers
    ``weak_first_second`` and ``weak_second_first``.  ``n_pairs`` may be
    zero, yielding an empty record.  A diagonal-monotonicity failure inside
    a utility computation propagates, with the offending pair named.
    """
    n_pairs = _count("n_pairs", n_pairs, 0)
    tol = _tol(tol)
    confirmed = 0
    indeterminate = 0
    indeterminate_strict = 0
    violations = []
    for _ in range(n_pairs):
        a, b = sampler.raf(), sampler.raf()
        try:
            u_a = compute_u(oracle, a, tol)["u"]
            u_b = compute_u(oracle, b, tol)["u"]
        except DiagonalMonotonicityError as exc:
            context = f"raised while validating the pair {a.to_dict()} vs {b.to_dict()}"
            raise exc.in_context(context) from exc
        weak_ab = oracle.weak_prefers(a, b)
        weak_ba = oracle.weak_prefers(b, a)
        if abs(u_a - u_b) <= 2.0 * tol:
            indeterminate += 1
            if weak_ab != weak_ba:
                indeterminate_strict += 1
        elif (u_a > u_b) == (weak_ab and not weak_ba) and (u_b > u_a) == (
            weak_ba and not weak_ab
        ):
            confirmed += 1
        else:
            violations.append(dict(
                first=a.to_dict(), second=b.to_dict(), u_first=u_a, u_second=u_b,
                weak_first_second=weak_ab, weak_second_first=weak_ba,
            ))
    return {
        "pairs_tested": n_pairs,
        "confirmed": confirmed,
        "indeterminate": indeterminate,
        "indeterminate_strict": indeterminate_strict,
        "violations": violations,
    }
