"""The matched parameters coupling the two sides of the identities."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["ModelParams"]

_C_MAX = (sys.float_info.max / 2.0) ** (1.0 / 3.0)


@dataclass(frozen=True)
class ModelParams:
    """Airy scaling C > 0 and Laplace variable u >= 0, both finite; the KPZ
    time T = 2C^3, also finite, is derived from C, so the pair always
    satisfies T/2 = C^3."""

    C: float
    u: float

    def __post_init__(self):
        if not 0 < self.C <= _C_MAX:
            raise DomainError(f"ModelParams requires C > 0 and finite, at most {_C_MAX:.4g} "
                              f"so that T = 2C^3 is finite; got {self.C!r}")
        if not 0 <= self.u < math.inf:
            raise DomainError(f"ModelParams requires u >= 0 and finite, got {self.u!r}")

    @property
    def T(self) -> float:
        return 2.0 * self.C ** 3

    @classmethod
    def from_C(cls, C: float, u: float) -> "ModelParams":
        return cls(C=float(C), u=float(u))

    @classmethod
    def from_T(cls, T: float, u: float) -> "ModelParams":
        if not 0 < T < math.inf:
            raise DomainError(f"ModelParams requires T > 0 and finite, got {T!r}")
        return cls(C=(float(T) / 2.0) ** (1.0 / 3.0), u=float(u))
