"""effdyn: effective dynamics at desk scale.

Computable metric spaces, computable measures and partitions, rigorous
orbit enclosures, a prefix-free compression proxy for algorithmic
information, and estimators for block entropy, orbit information rates
and Bowen topological entropy.
"""

from effdyn.coding import (
    PrefixFreeCompressor,
    elias_decode,
    elias_encode,
    gap_apply,
    gap_encode,
)
from effdyn.dynamics import (
    PrecisionBlowup,
    System,
    doubling,
    exact_orbit,
    iterate,
    rotation,
    shift,
    tent,
)
from effdyn.entropy import (
    block_entropy,
    cover_from_spanning,
    h1_estimate,
    local_info,
    orbit_rate,
    spanning_separated,
    symbol_rate,
    verify_null_s_cover,
    verify_separated,
)
from effdyn.measure import (
    AlmostDecidableSet,
    ComputableMeasure,
    almost_decidable_radius,
    measure_of_ad_set,
)
from effdyn.numerics import Interval, Rational, eval_f, eval_J, log2
from effdyn.space import (
    IdealBall,
    Point,
    Space,
    approx,
    cantor,
    circle,
    dist,
    rational_point,
    sequence_point,
    sqrt2_minus_1,
    unit_interval,
    word_point,
)
from effdyn.stats import (
    birkhoff_average,
    dyadic_ball_family,
    recurrence_stat,
    typicality_test,
)
from effdyn.symbolic import (
    ComputablePartition,
    SymbolicWord,
    code_orbit,
    cylinder_measure,
    cylinders,
    dyadic_intervals,
    halves,
)

__version__ = "0.1.0"
