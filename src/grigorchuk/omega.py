"""Ultimately periodic sequences over {0,1,2} that parameterize everything else.

A sequence is stored as (preperiod, period) and indexed from 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

SYMBOLS = "012"


class OmegaParseError(ValueError):
    pass


class EventuallyConstantOmegaError(ValueError):
    """Raised by constructions that are only defined for non-eventually-constant sequences."""


@dataclass(frozen=True)
class OmegaSequence:
    preperiod: str
    period: str

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be nonempty")
        for part in (self.preperiod, self.period):
            bad = set(part) - set(SYMBOLS)
            if bad:
                raise ValueError(f"symbols must be in 0/1/2, got {sorted(bad)}")

    def at(self, i: int) -> int:
        """Symbol at 1-based position i."""
        if i < 1:
            raise ValueError(f"index must be >= 1, got {i}")
        pre = self.preperiod
        if i <= len(pre):
            return int(pre[i - 1])
        return int(self.period[(i - len(pre) - 1) % len(self.period)])

    def shift(self, n: int = 1) -> "OmegaSequence":
        """The sequence i -> self(i + n), with the preperiod consumed first."""
        if n < 0:
            raise ValueError("shift amount must be nonnegative")
        pre, per = self.preperiod, self.period
        if n > len(pre):
            k = (n - len(pre)) % len(per)
            pre, per = "", per[k:] + per[:k]
        shifted = object.__new__(OmegaSequence)  # cut from validated parts: no checks
        shifted.__dict__["preperiod"], shifted.__dict__["period"] = pre[n:], per
        return shifted

    def is_eventually_constant(self) -> bool:
        return len(set(self.period)) == 1

    def symbols_from(self, start: int = 1) -> frozenset[int]:
        """The set {self(i) : i >= start}."""
        if start < 1:
            raise ValueError("start must be >= 1")
        syms = set(self.period)
        syms.update(self.preperiod[start - 1:])
        return frozenset(int(s) for s in syms)

    def spec(self) -> str:
        """Text form `[preperiod:]period`."""
        if self.preperiod:
            return f"{self.preperiod}:{self.period}"
        return self.period

    def __str__(self) -> str:
        return self.spec()


@lru_cache(maxsize=None)
def parse_omega(text: str) -> OmegaSequence:
    """Parse `[preperiod:]period`, e.g. `012` or `2:01`."""
    head, sep, tail = text.partition(":")
    pre, per = (head, tail) if sep else ("", head)
    if not per:
        raise OmegaParseError(f"empty period in omega spec {text!r}")
    if tail.count(":"):
        raise OmegaParseError(f"too many ':' in omega spec {text!r}")
    try:
        return OmegaSequence(pre, per)
    except ValueError as exc:
        raise OmegaParseError(f"bad omega spec {text!r}: {exc}") from None
