"""Big Ramsey degree calculus for countable ordinals.

T(n, C) is the least t such that every finite coloring of the n-element
subchains of C admits a copy of C realizing at most t colors.  This
package computes T exactly for the closed-form families (w, w+m, w*m,
signed sums, the integers), derives finite upper bounds for every
ordinal below w^w through the additive/multiplicative/power type calculi,
and reports the infinite/finite split at and above w^w.  Everything is
exact integer arithmetic at desk scale, with enumeration-backed
verification in :mod:`ordramsey.verify`.
"""

from .ordinal import OMEGA, ONE, ZERO, Ordinal, OrdinalSyntaxError, compare, parse
from .chains import (
    Embedding,
    Leveled,
    Power,
    Signed,
    SumTail,
    enumerate_embeddings,
    order_points,
    reverse_transport,
    reverse_transport_inverse,
)
from .typecalc import (
    AdditiveType,
    MultiplicativeType,
    additive_type,
    binom,
    enum_additive,
    enum_mult,
    enum_power,
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
    DegreeResult,
    ResourceCapError,
    bound_add,
    bound_mul,
    bound_pow,
    classify,
    exact_integers,
    exact_omega,
    exact_omega_plus_m,
    exact_omega_times_m,
    exact_signed,
    pipeline_bound,
    product_bound,
    replay_trace,
)
from .witness import (
    AdditiveWitness,
    ProductWitness,
    StrictWitness,
    realized_colors,
    spread,
)
from .verify import Report, run_all

__version__ = "0.1.0"

__all__ = [
    "OMEGA",
    "ONE",
    "ZERO",
    "Ordinal",
    "OrdinalSyntaxError",
    "compare",
    "parse",
    "Embedding",
    "Leveled",
    "Power",
    "Signed",
    "SumTail",
    "enumerate_embeddings",
    "order_points",
    "reverse_transport",
    "reverse_transport_inverse",
    "AdditiveType",
    "MultiplicativeType",
    "additive_type",
    "binom",
    "enum_additive",
    "enum_mult",
    "enum_power",
    "enum_product_types",
    "enum_strict",
    "mult_type",
    "mult_val",
    "power_type",
    "power_val",
    "reconstruct_mult",
    "reconstruct_power",
    "strict_to_word",
    "word_to_strict",
    "DegreeResult",
    "ResourceCapError",
    "bound_add",
    "bound_mul",
    "bound_pow",
    "classify",
    "exact_integers",
    "exact_omega",
    "exact_omega_plus_m",
    "exact_omega_times_m",
    "exact_signed",
    "pipeline_bound",
    "product_bound",
    "replay_trace",
    "AdditiveWitness",
    "ProductWitness",
    "StrictWitness",
    "realized_colors",
    "spread",
    "Report",
    "run_all",
]
