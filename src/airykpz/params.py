"""The matched parameters coupling the two sides of the identities."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

__all__ = ["ModelParams"]


@dataclass(frozen=True)
class ModelParams:
    """Airy scaling C and Laplace variable u; the KPZ time T = 2C^3 is
    derived from C, so the pair always satisfies T/2 = C^3."""

    C: float
    u: float

    def __post_init__(self):
        if not self.C > 0:
            raise DomainError("ModelParams requires C > 0")
        if not self.u >= 0:
            raise DomainError("ModelParams requires u >= 0")

    @property
    def T(self) -> float:
        return 2.0 * self.C ** 3

    @classmethod
    def from_C(cls, C: float, u: float) -> "ModelParams":
        return cls(C=float(C), u=float(u))

    @classmethod
    def from_T(cls, T: float, u: float) -> "ModelParams":
        if not T > 0:
            raise DomainError("ModelParams requires T > 0")
        return cls(C=(float(T) / 2.0) ** (1.0 / 3.0), u=float(u))
