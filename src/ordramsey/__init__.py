"""Big Ramsey degree calculus for countable ordinals.

T(n, C) is the least t such that every finite coloring of the n-element
subchains of C admits a copy of C realizing at most t colors.  This
package computes T exactly for the closed-form families (w, w+m, w*m,
signed sums, the integers), derives finite upper bounds for every
ordinal below w^w through the additive/multiplicative/power type calculi,
and reports the infinite/finite split at and above w^w.  Everything is
exact integer arithmetic at desk scale, with enumeration-backed
verification in :mod:`ordramsey.verify`.

The names imported below are the top-level API; every other name is
reached through its module, as in ``ordramsey.degrees.bound_pow``.
"""

from .ordinal import OMEGA, Ordinal, OrdinalSyntaxError, parse
from .chains import Embedding, Leveled, Power, SumTail
from .typecalc import (
    additive_type,
    enum_product_types,
    enum_strict,
    mult_type,
    mult_val,
    power_type,
    power_val,
    reconstruct_mult,
    reconstruct_power,
    strict_to_word,
    word_to_strict,
)
from .degrees import (
    ResourceCapError,
    classify,
    exact_integers,
    exact_omega,
    exact_omega_plus_m,
    exact_omega_times_m,
    exact_signed,
    pipeline_bound,
    replay_trace,
)
from .witness import (
    AdditiveWitness,
    ProductWitness,
    StrictWitness,
    realized_colors,
    spread,
)
from .verify import run_all

__version__ = "0.1.0"
