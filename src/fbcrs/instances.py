"""Problem inputs: single-unit, knapsack, and rationing instances.

All instances are immutable after construction and safe to share across
worker threads.  Constructors validate and reject; nothing is renormalized
silently, and every check is written so that NaN fails it.  Probability
sums are checked to an absolute MASS_TOL (see tolerances.py).  Malformed
JSON input raises InvalidInstanceError.

Element arrays are 0-based positional throughout the library.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import InvalidInstanceError
from .tolerances import MASS_TOL

FORWARD = "forward"
BACKWARD = "backward"


def read_only_array(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only so a cached array cannot drift from its tuple."""
    arr.setflags(write=False)
    return arr


class ServiceType(str, Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    TYPE_III = "TypeIII"

    @classmethod
    def parse(cls, tag: str) -> "ServiceType":
        try:
            return cls(tag)
        except ValueError:
            raise InvalidInstanceError(f"unknown service type {tag!r}") from None


def order_row(tag: str) -> int:
    """Row of the arrival order `tag` in every (2, n) pair of rows: 0 for
    FORWARD, 1 for BACKWARD.  Any other tag raises InvalidInstanceError."""
    if tag == FORWARD:
        return 0
    if tag == BACKWARD:
        return 1
    raise InvalidInstanceError(f"unknown order tag {tag!r}")


def arrival(rows) -> np.ndarray:
    """A (2, n) pair of per-element rows, forward then backward, in arrival
    order: row 1 reversed.  Its own inverse, so it also takes arrival-order
    rows back to element order; arrival((range(n), range(n))) holds each
    order's element sequence."""
    return np.array((rows[0], rows[1][::-1]))


def before(rows, op=np.add) -> np.ndarray:
    """Exclusive prefix sums (op=np.add) or products (np.multiply) of a
    (2, n) pair of per-element rows, each over the elements arriving earlier
    in its order, in element order.  They accumulate in arrival order, one
    element at a time as a loop would, from op's identity at the first
    arrival; adding an element's own entry gives the loop's value after it.
    Each element's entry may itself be an array, as in a (2, n, k) pair of
    per-element matrix rows, which then accumulate entrywise."""
    ordered = arrival(rows)
    out = np.empty_like(ordered)
    out[:, 0] = op.identity
    op.accumulate(ordered[:, :-1], axis=1, out=out[:, 1:])
    return arrival(out)


@dataclass(frozen=True)
class SingleUnitInstance:
    """n elements, each active independently with probability x_i."""

    x: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if len(self.x) < 1:
            raise InvalidInstanceError("instance needs at least one element")
        for i, v in enumerate(self.x):
            if not 0.0 <= v <= 1.0:
                raise InvalidInstanceError(f"x[{i}]={v} outside [0, 1]")

    @property
    def n(self) -> int:
        return len(self.x)

    @cached_property
    def rho(self) -> float:
        """Total activeness mass, compensated summation."""
        return math.fsum(self.x)

    @cached_property
    def x_array(self) -> np.ndarray:
        """x as a read-only float array, built once for the array code."""
        return read_only_array(np.array(self.x))


@dataclass(frozen=True)
class SizeLaw:
    """Finite size distribution on [0,1] plus an inactive symbol.

    `atoms` are (size, probability) pairs; `inactive_mass` is the probability
    that the element never materializes.  Stored sorted by size.
    """

    atoms: tuple[tuple[float, float], ...]
    inactive_mass: float = 0.0

    def __post_init__(self):
        atoms = tuple(sorted((float(s), float(p)) for s, p in self.atoms))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "inactive_mass", float(self.inactive_mass))
        for s, p in atoms:
            if not 0.0 <= s <= 1.0:
                raise InvalidInstanceError(f"size {s} outside [0, 1]")
            if not p > 0.0:
                raise InvalidInstanceError("atom probabilities must be positive")
        sizes = [s for s, _ in atoms]
        if len(set(sizes)) != len(sizes):
            raise InvalidInstanceError("duplicate size atoms")
        if not self.inactive_mass >= 0.0:
            raise InvalidInstanceError("inactive mass must be nonnegative")
        total = math.fsum([p for _, p in atoms] + [self.inactive_mass])
        if not abs(total - 1.0) <= MASS_TOL:
            raise InvalidInstanceError(f"size law mass {total} != 1")

    @cached_property
    def mean(self) -> float:
        """E[size; active] -- the mu of this element."""
        return math.fsum(s * p for s, p in self.atoms)

    @property
    def active_mass(self) -> float:
        return 1.0 - self.inactive_mass


@dataclass(frozen=True)
class KnapsackInstance:
    """n elements with independent size laws; accepted sizes must fit in 1."""

    laws: tuple[SizeLaw, ...]

    def __post_init__(self):
        object.__setattr__(self, "laws", tuple(self.laws))
        if len(self.laws) < 1:
            raise InvalidInstanceError("instance needs at least one element")
        for i, law in enumerate(self.laws):
            if law.mean <= 0.0:
                raise InvalidInstanceError(f"element {i} has mean size 0")
        if self.total_mu > 1.0 + MASS_TOL:
            raise InvalidInstanceError(f"total mean size {self.total_mu} exceeds 1")

    @property
    def n(self) -> int:
        return len(self.laws)

    @cached_property
    def mu(self) -> tuple[float, ...]:
        return tuple(law.mean for law in self.laws)

    @cached_property
    def total_mu(self) -> float:
        return math.fsum(law.mean for law in self.laws)


@dataclass(frozen=True)
class DemandLaw:
    """Finite demand distribution, d >= 0, stored sorted by demand."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple(sorted((float(d), float(p)) for d, p in self.atoms))
        object.__setattr__(self, "atoms", atoms)
        for d, p in atoms:
            if not 0.0 <= d < math.inf:
                raise InvalidInstanceError(f"demand {d} is not finite and nonnegative")
            if not p > 0.0:
                raise InvalidInstanceError("atom probabilities must be positive")
        demands = [d for d, _ in atoms]
        if len(set(demands)) != len(demands):
            raise InvalidInstanceError("duplicate demand atoms")
        total = math.fsum(p for _, p in atoms)
        if not abs(total - 1.0) <= MASS_TOL:
            raise InvalidInstanceError(f"demand law mass {total} != 1")
        if self.mean <= 0.0:
            raise InvalidInstanceError("demand law must have positive mean")

    @cached_property
    def mean(self) -> float:
        return math.fsum(d * p for d, p in self.atoms)

    @cached_property
    def cum(self) -> tuple[float, ...]:
        """Cumulative atom probabilities (the CDF at each atom)."""
        acc, out = 0.0, []
        for _, p in self.atoms:
            acc += p
            out.append(acc)
        return tuple(out)


@dataclass(frozen=True)
class RationingInstance:
    """n agents, each with a demand law and a service type."""

    demands: tuple[DemandLaw, ...]
    service: tuple[ServiceType, ...]

    def __post_init__(self):
        object.__setattr__(self, "demands", tuple(self.demands))
        object.__setattr__(self, "service", tuple(map(ServiceType.parse, self.service)))
        if len(self.demands) < 1:
            raise InvalidInstanceError("instance needs at least one agent")
        if len(self.demands) != len(self.service):
            raise InvalidInstanceError("demands and service lists differ in length")

    @property
    def n(self) -> int:
        return len(self.demands)

    @property
    def has_type_i(self) -> bool:
        return ServiceType.TYPE_I in self.service

    @cached_property
    def grid(self) -> int | None:
        """The smallest 1/L grid, L <= GRID_CAP, holding every Type-II/III
        size min(d, 1), or None; found on first use, never at construction."""
        from .knapsack import _grid_size  # knapsack imports this module

        laws = (law for law, stype in zip(self.demands, self.service) if stype is not ServiceType.TYPE_I)
        return _grid_size([min(d, 1.0) for law in laws for d, _ in law.atoms])


def knapsack_hardness_instance(n: int) -> tuple[KnapsackInstance, SingleUnitInstance]:
    """The 2n+1 element instance where sizes exceed half the knapsack.

    Every element has the single size atom 1/2 + 1/n with probability
    rho/(2n+1) where rho = 2n/(n+2), so at most one element ever fits and the
    instance behaves exactly like its single-unit twin (returned alongside).
    Needs n >= 2 so the size fits in [0, 1].
    """
    if n < 2:
        raise InvalidInstanceError("n must be >= 2 (size 1/2 + 1/n must fit in [0, 1])")
    rho = 2.0 * n / (n + 2)
    m = 2 * n + 1
    p = rho / m
    size = 0.5 + 1.0 / n
    law = SizeLaw(atoms=((size, p),), inactive_mass=1.0 - p)
    return KnapsackInstance((law,) * m), SingleUnitInstance((p,) * m)


# ---------------------------------------------------------------------------
# JSON representation: {"kind": ..., "n": ..., <payload>}.  Floats round-trip
# bit-exactly because json uses repr (shortest round-trip) for doubles.

def instance_to_dict(inst) -> dict:
    if isinstance(inst, SingleUnitInstance):
        return {"kind": "single_unit", "n": inst.n, "x": list(inst.x)}
    if isinstance(inst, KnapsackInstance):
        return {
            "kind": "knapsack",
            "n": inst.n,
            "laws": [
                {"atoms": [[s, p] for s, p in law.atoms], "inactive": law.inactive_mass}
                for law in inst.laws
            ],
        }
    if isinstance(inst, RationingInstance):
        return {
            "kind": "rationing",
            "n": inst.n,
            "demands": [{"atoms": [[d, p] for d, p in law.atoms]} for law in inst.demands],
            "service": [s.value for s in inst.service],
        }
    raise InvalidInstanceError(f"cannot serialize {type(inst).__name__}")


_NOT_NUMBERS = frozenset((str, bool, type(None)))


def _numbers(entries, what: str) -> None:
    """Reject entries JSON gave as strings, booleans or null: float() takes
    "0" and true, where the schema asks for numbers."""
    if not _NOT_NUMBERS.isdisjoint(map(type, entries)):
        raise InvalidInstanceError(f"instance JSON {what} must be numbers, not strings, booleans or null")


def _atoms(law: dict) -> tuple:
    atoms = tuple(map(tuple, law["atoms"]))
    _numbers(chain.from_iterable(atoms), "atom entries")
    return atoms


def _size_law(law: dict) -> SizeLaw:
    atoms = _atoms(law)
    inactive = law.get("inactive", 0.0)
    _numbers((inactive,), "inactive masses")
    return SizeLaw(atoms, inactive)


def instance_from_dict(data: dict):
    try:
        kind = data["kind"]
        n = data["n"]
    except (KeyError, TypeError):
        raise InvalidInstanceError("instance JSON needs 'kind' and 'n'") from None
    if type(n) is not int:  # bool is an int subclass, and JSON true is no count
        raise InvalidInstanceError(f"instance JSON 'n' must be an integer, got {n!r}")
    try:
        if kind == "single_unit":
            x = tuple(data["x"])
            _numbers(x, "x entries")
            inst = SingleUnitInstance(x)
        elif kind == "knapsack":
            inst = KnapsackInstance(tuple(_size_law(law) for law in data["laws"]))
        elif kind == "rationing":
            demands = tuple(DemandLaw(_atoms(law)) for law in data["demands"])
            inst = RationingInstance(demands, tuple(data["service"]))
        else:
            raise InvalidInstanceError(f"unknown instance kind {kind!r}")
    except KeyError as exc:
        raise InvalidInstanceError(f"{kind} instance JSON needs {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"malformed {kind} instance JSON: {exc}") from None
    if inst.n != n:
        raise InvalidInstanceError(f"declared n={n} but payload has {inst.n} entries")
    return inst


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInstanceError(f"cannot read {what} file {path}: {exc}") from None


def load_instance(path: str):
    return instance_from_dict(_read_json(path, "instance"))


def load_service_levels(path: str) -> tuple[float, ...]:
    """Per-agent service levels from a JSON list of numbers."""
    data = _read_json(path, "service-level")
    if not isinstance(data, list) or not all(
        isinstance(b, (int, float)) and not isinstance(b, bool) for b in data
    ):
        raise InvalidInstanceError(f"{path} must hold a JSON list of service levels")
    return tuple(float(b) for b in data)


def dump_instance(inst, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")
