"""The HSU instruction set (Table I) and the datapath widths.

The HSU extends the baseline RT unit ISA with three instructions while
keeping the baseline ``RAY_INTERSECT`` unchanged, so existing ray-tracing
software runs unmodified (§III-B, §VI-G).

The lowering (:mod:`repro.compiler.lowering`) emits these opcodes into warp
traces, counting each one's beats with
:func:`~repro.core.multibeat.beat_count` over the widths defined here; the
functional layer (:mod:`repro.core.ops`) gives them semantics.
"""

from __future__ import annotations

import enum

from repro.errors import ConfigError

#: Native lane width of the Euclidean operating mode (§IV-C).
EUCLID_WIDTH = 16
#: Maximum separator values a single KEY_COMPARE can test (§IV-E).
KEY_COMPARE_WIDTH = 36
#: Maximum ray-box tests per RAY_INTERSECT (BVH4 node, §IV-D).
MAX_BOX_TESTS = 4


def check_euclid_width(width: int) -> int:
    """``width`` if it can be the Euclidean datapath width, else ConfigError.

    The angular mode runs at half of it (:func:`angular_width`), so the
    width must be a positive even integer.  Every width knob (a campaign
    job, ``repro.api.simulate``, the lowering) goes through this check.
    """
    if not isinstance(width, int) or width < 2 or width % 2:
        raise ConfigError(
            f"euclid_width must be a positive even number, got {width!r}"
        )
    return width


def angular_width(euclid_width: int) -> int:
    """Native lane width of the angular mode on a ``euclid_width`` datapath.

    Half of Euclidean, because the mode computes two reductions (dot and
    norm) at once (§VI-H).
    """
    return check_euclid_width(euclid_width) // 2


#: Native lane width of the angular operating mode.
ANGULAR_WIDTH = angular_width(EUCLID_WIDTH)


class Opcode(enum.Enum):
    """The four instructions executed by the HSU datapath."""

    RAY_INTERSECT = "RAY_INTERSECT"
    POINT_EUCLID = "POINT_EUCLID"
    POINT_ANGULAR = "POINT_ANGULAR"
    KEY_COMPARE = "KEY_COMPARE"


#: Table I, verbatim-in-spirit descriptions keyed by opcode.
_DESCRIPTIONS: dict[Opcode, str] = {
    Opcode.RAY_INTERSECT: (
        "Baseline instruction: one ray-triangle test or four ray-box "
        "intersection tests. Operands are the ray data and a pointer to a "
        "BVH node; the node type fetched from memory selects the test. "
        "Results return in four registers (sorted child pointers for box "
        "nodes; hit status, triangle id and t_num/t_denom for triangles)."
    ),
    Opcode.POINT_EUCLID: (
        "16-wide squared Euclidean distance between a query point and a "
        "candidate point, reduced to a single scalar. Higher dimensions "
        "aggregate across multiple instructions via the accumulate bit."
    ),
    Opcode.POINT_ANGULAR: (
        "8-wide dot product between query and candidate plus the 8-wide "
        "squared norm of the candidate, reduced to two scalars "
        "(dot_sum, norm_sum). The final division and square root execute "
        "outside the HSU. Higher dimensions aggregate via the accumulate bit."
    ),
    Opcode.KEY_COMPARE: (
        "Fetches a node of up to 36 separator values and returns a bit "
        "vector: bit i is 0 when key < separator[i], 1 otherwise. Used for "
        "traversing B-tree internal nodes."
    ),
}


def instruction_table() -> list[tuple[str, str]]:
    """(name, description) rows reproducing Table I."""
    return [(op.value, _DESCRIPTIONS[op]) for op in Opcode]
