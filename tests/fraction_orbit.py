"""The `Fraction` orbit step, kept as a reference for the tests.

`effdyn.dynamics` steps rational orbits on integer numerators over one
denominator (`grid_orbit`).  This is the step that came before it: one
`Fraction` image per step, reduced mod 1 for doubling and rotations.
"""

from fractions import Fraction as F

from effdyn import dynamics as dy
from effdyn.space import SpaceMismatch


def _mod1(q: F) -> F:
    return q - (q.numerator // q.denominator)


def exact_step(sys: dy.System, value: F) -> F:
    if sys.map_kind is dy.MapKind.DOUBLING:
        return _mod1(2 * value)
    if sys.map_kind is dy.MapKind.TENT:
        return 2 * value if value <= F(1, 2) else 2 - 2 * value
    if sys.map_kind is dy.MapKind.ROTATION:
        if not isinstance(sys.angle, F):
            raise ValueError("exact rotation steps need a rational angle")
        return _mod1(value + sys.angle)
    raise SpaceMismatch("exact_step on rationals needs an interval/circle map")
