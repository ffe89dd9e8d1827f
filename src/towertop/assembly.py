"""Two-term assembly of limit homology and cohomology.

The homology of the limit space of a tower sits in a short exact
sequence

    0 -> lim1 H_{n+1}(levels) -> H_n(limit) -> lim H_n(levels) -> 0

so the computable data are the two outer terms.  The middle term is
pinned down in two situations: when the left term vanishes it equals
the right term, and when the left term is uncountable the middle is
uncountable as well (it surjects onto the right term with uncountable
kernel).  Otherwise the extension is reported as unresolved rather
than guessed.

Čech cohomology of the limit needs no correction term: it is the
colimit of the level cohomologies along the induced forward maps.

A space presented instead as an increasing filtration by complexes,
each sitting interior to the next, yields the same two-term assembly
on the restriction towers of the stages.  Those towers are finite, so
they are padded with a constant certified tail; the derived limit
then vanishes and the report resolves to the top stage exactly.
"""

from typing import Optional, Union

from .abelian import FGAbelianGroup, GroupHom, _Record
from .simplicial import SimplicialMap, cohomology, induced_cohomology_map
from .tower import (
    Certificate,
    ComplexTower,
    GroupTower,
    Lim1Class,
    NotFinitelyStable,
    NotStable,
    _check_window,
    cohomology_system,
    colim_direct_system,
    homology_tower,
    lim1_class,
    tower_lim,
)


class SESReport(_Record):
    """One dimension's short exact sequence, outer terms first.

    ``left`` classifies the derived limit one dimension up; ``right``
    is the inverse limit in this dimension (a group, or ``NotStable``);
    ``middle`` is a group when determined, else the string
    "UncountableViaLeft" or "UnresolvedExtension".
    """

    __slots__ = _fields = ("dimension", "left", "right", "middle", "provenance")


class CechReport(_Record):
    """Colimit of level cohomologies in one dimension: ``ColimResult`` or ``NotFinitelyStable``."""

    __slots__ = _fields = ("dimension", "result", "provenance")


def _certificate_note(label: str, certificate: Optional[Certificate]) -> str:
    if certificate is None:
        return f"{label}: no certificate, conclusions read the finite window only"
    if certificate.kind == "periodic":
        return (
            f"{label}: certified periodic"
            f" (offset {certificate.offset}, period {certificate.period})"
        )
    return f"{label}: certified shrinking family"


def _middle_term(left: Lim1Class, right) -> Union[FGAbelianGroup, str]:
    if left.verdict == "Uncountable":
        return "UncountableViaLeft"
    if left.verdict == "Zero" and isinstance(right, FGAbelianGroup):
        return right
    return "UnresolvedExtension"


def steenrod_report(
    tower: ComplexTower, n: int, window: Optional[int] = None
) -> SESReport:
    """Assemble the dimension-``n`` sequence for the tower's limit space.

    Dimension 0 uses reduced homology on the right so that the report
    measures the limit space against a point.  Partial answers come
    back as verdict objects; the only exceptions raised are for
    malformed inputs such as a window deeper than the tower.
    """
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    _check_window(window)
    above = homology_tower(tower, n + 1)
    below = homology_tower(tower, n, reduced=(n == 0))
    left = lim1_class(above, window)
    right = tower_lim(below, window)
    middle = _middle_term(left, right)

    notes = [
        f"left term: derived limit of the dimension-{n + 1} homology tower"
        f" ({left.verdict})",
        _certificate_note(f"dimension-{n + 1} tower", above.certificate),
        f"right term: inverse limit of the dimension-{n} homology tower",
        _certificate_note(f"dimension-{n} tower", below.certificate),
    ]
    if n == 0:
        notes.append("dimension 0 uses reduced homology")
    if isinstance(right, NotStable):
        notes.append(f"right term unresolved: {right.reason}")
    if left.verdict == "Undetermined":
        notes.append(f"left term unresolved: {left.reason}")
    return SESReport(n, left, right, middle, tuple(notes))


def cech_cohomology_report(
    tower: ComplexTower, n: int, window: Optional[int] = None
) -> CechReport:
    """Colimit of the dimension-``n`` cohomologies along the tower."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    _check_window(window)
    system = cohomology_system(tower, n)
    result = colim_direct_system(system, window)
    notes = [
        f"cohomology in dimension {n} is the colimit of the level cohomologies",
        _certificate_note("restriction system", system.certificate),
    ]
    if isinstance(result, NotFinitelyStable):
        notes.append(f"colimit unresolved: {result.reason}")
    return CechReport(n, result, tuple(notes))


def _filtration_tower(filtration, n: int) -> GroupTower:
    """Restriction tower of stage cohomologies, padded to run forever.

    Level ``j`` is the dimension-``n`` cohomology of stage ``j``, the
    bonds restrict along the stage inclusions, and two copies of the
    top stage with identity bonds are appended: the filtration is
    finite, so beyond the top the system is constant, and the padding
    lets a periodic certificate state that.
    """
    levels = [cohomology(k, n).group for k in filtration]
    bonds = [
        induced_cohomology_map(SimplicialMap.inclusion(a, b), n)
        for a, b in zip(filtration, filtration[1:])
    ]
    top = len(filtration) - 1
    levels.extend([levels[top], levels[top]])
    bonds.extend([GroupHom.identity(levels[top]), GroupHom.identity(levels[top])])
    return GroupTower(levels, bonds, Certificate("periodic", offset=top, period=1))


def petkova_report(filtration, n: int, window: Optional[int] = None) -> SESReport:
    """Assemble the dimension-``n`` sequence for an interior-nested filtration.

    Each stage must be a subcomplex of the next and interior to it
    within the final stage; a violation raises with a witness.  The
    padded restriction towers are eventually constant, so the left
    term vanishes and the middle term resolves to the top stage's
    cohomology.
    """
    from .compactohedral import interior_witness  # only filtrations need interiority

    filtration = list(filtration)
    if not filtration:
        raise ValueError("the filtration needs at least one stage")
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    ambient = filtration[-1]
    for j in range(len(filtration) - 1):
        if not filtration[j].is_subcomplex_of(filtration[j + 1]):
            missing = next(
                s for s in filtration[j].ordered() if s not in filtration[j + 1].simplexes
            )
            raise ValueError(
                f"stage {j} is not contained in stage {j + 1}: witness {missing!r}"
            )
        w = interior_witness(filtration[j], filtration[j + 1], ambient)
        if w is not None:
            raise ValueError(
                f"stage {j} is not interior to stage {j + 1}: witness {w!r}"
            )

    _check_window(window)
    if n == 0:
        left = Lim1Class("Zero", "no tower below dimension 0")
        above_note = "left term: nothing below dimension 0 (Zero)"
    else:
        above = _filtration_tower(filtration, n - 1)
        left = lim1_class(above, window)
        above_note = (
            f"left term: derived limit of the dimension-{n - 1} restriction tower"
            f" ({left.verdict})"
        )
    below = _filtration_tower(filtration, n)
    right = tower_lim(below, window)
    middle = _middle_term(left, right)
    notes = [
        f"filtration with {len(filtration)} stages, each interior to the next",
        above_note,
        f"right term: inverse limit of the dimension-{n} restriction tower",
        "restriction towers are finite, padded with a certified constant tail",
    ]
    return SESReport(n, left, right, middle, tuple(notes))
