"""Search ceilings.

Every potentially unbounded loop in the package (residue-ring censuses,
lattice point searches, tuple censuses, unit searches) checks one of these
limits and raises CeilingError instead of running away.  Every layer takes
the caller's Ceilings and passes it down; None means Ceilings(), the
defaults below.  Only the CLI reads the environment: Ceilings.from_env
replaces all limits with NFK_CEILING or --ceiling, except that unit_height
never drops below its default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_RESIDUE_RING = 10**6     # max N(m) for (O_K/m)^* censuses
DEFAULT_SEARCH_POINTS = 10**7    # max lattice points per generator search
DEFAULT_TUPLE_CENSUS = 10**7     # max tuples in product-distribution tallies
DEFAULT_UNIT_HEIGHT = 4096       # max rms |sigma| in unit searches: T2 <= n * height^2


@dataclass(frozen=True)
class Ceilings:
    residue_ring: int = DEFAULT_RESIDUE_RING
    search_points: int = DEFAULT_SEARCH_POINTS
    tuple_census: int = DEFAULT_TUPLE_CENSUS
    unit_height: int = DEFAULT_UNIT_HEIGHT

    @staticmethod
    def from_env(override: int | None = None) -> "Ceilings":
        """Build ceilings honouring the NFK_CEILING variable / --ceiling flag."""
        if override is None:
            raw = os.environ.get("NFK_CEILING")
            if raw is not None:
                try:
                    override = int(raw)
                except ValueError:
                    raise ValueError(f"NFK_CEILING must be an integer, got {raw!r}")
        if override is None:
            return Ceilings()
        if override <= 0:
            raise ValueError("ceiling must be positive")
        return Ceilings(
            residue_ring=override,
            search_points=override,
            tuple_census=override,
            unit_height=max(DEFAULT_UNIT_HEIGHT, override),
        )
