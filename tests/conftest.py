from itertools import product

import pytest
from hypothesis import HealthCheck, settings

from grigorchuk import OmegaSequence, parse_omega, ruler_a
from grigorchuk.group import _partner

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")

SUITE_SPECS = ("012", "01", "02", "2:01", "10:012")


@pytest.fixture(scope="session")
def suite():
    return tuple(parse_omega(s) for s in SUITE_SPECS)


@pytest.fixture(scope="session")
def omega012():
    return parse_omega("012")


@pytest.fixture(scope="session")
def short_omegas():
    """Every omega that is not eventually constant, with preperiod of length
    at most 2 and period of length at most 3: 13 preperiods times 30 periods."""
    words = lambda lengths: ["".join(p) for k in lengths for p in product("012", repeat=k)]
    return [
        OmegaSequence(pre, per)
        for pre in words(range(3))
        for per in words(range(1, 4))
        if len(set(per)) > 1
    ]


def block_letters(omega: OmegaSequence, first: int, last: int) -> str:
    """Per-position oracle for the block word: the letters at positions
    first..last, Theta at odd positions and the i-th double-edge block
    Lambda_{omega(ruler(i))} at position 2i."""
    return "".join(
        ["T" if p % 2 else str(omega.at(ruler_a(p // 2))) for p in range(first, last + 1)]
    )


def fixing_generator(prefix: str, omega: OmegaSequence) -> str:
    """Oracle for the fixing column of the orbit listing: the letters among
    b, c, d that fix the ray with this canonical prefix, one for every ray but
    rho, read off the string path of the action: the ray acts as the vertex
    prefix + "1"."""
    return _partner(prefix + "1", omega)[0]
