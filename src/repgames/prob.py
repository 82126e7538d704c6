"""Exact finite probability tables over named variables.

A distribution is a dense float64 array with one axis per named variable.
All operations are exact table arithmetic; nothing is sampled here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

MAX_TABLE_ENTRIES = 10_000_000
ZERO_MASS = 1e-15       # a probability or total mass at most this is zero
WEIGHT_FLOOR = -1e-12   # weights above this are rounding, clipped to 0; below, refused
SUM_ATOL = 1e-12        # largest |sum - 1| of weights that form a distribution


class ZeroProbabilityEvent(ValueError):
    """Conditioning on an event of (numerically) zero probability."""


def _expand_to(mask: np.ndarray, names: tuple, target_names: tuple,
               target_sizes: tuple) -> np.ndarray:
    """Broadcast an array over `names` into the axis layout of `target_names`."""
    missing = [n for n in names if n not in target_names]
    if missing:
        raise ValueError(f"variables {missing} not present in {target_names}")
    order = sorted(range(len(names)), key=lambda k: target_names.index(names[k]))
    arr = np.transpose(mask, order) if len(names) > 1 else np.asarray(mask)
    ordered = tuple(names[k] for k in order)
    shape = tuple(target_sizes[i] if target_names[i] in ordered else 1
                  for i in range(len(target_names)))
    return arr.reshape(shape)


@dataclass(frozen=True)
class Event:
    """A subset of assignments, given as a boolean mask over a few variables."""

    names: tuple
    sizes: tuple
    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != tuple(self.sizes):
            raise ValueError(f"mask shape {mask.shape} != sizes {self.sizes}")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(self, "mask", mask)


class FiniteDistribution:
    """Joint distribution over named finite variables as a dense table."""

    __slots__ = ("names", "table")

    def __init__(self, names: Iterable[str], table, normalize: bool = False):
        names = tuple(names)
        table = np.array(table, dtype=np.float64)
        if table.ndim != len(names):
            raise ValueError(f"table rank {table.ndim} != {len(names)} variables")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if table.size > MAX_TABLE_ENTRIES:
            raise ValueError(f"table of {table.size} entries exceeds the "
                             f"{MAX_TABLE_ENTRIES} entry cap")
        if not np.all(np.isfinite(table)):
            raise ValueError("table contains non-finite weights")
        if table.size and float(table.min()) < WEIGHT_FLOOR:
            raise ValueError(f"negative weight {table.min():.3e}")
        np.clip(table, 0.0, None, out=table)   # table is this object's copy
        mass = float(table.sum())
        if normalize:
            if mass <= ZERO_MASS:
                raise ZeroProbabilityEvent("total mass is zero")
            table /= mass
        elif abs(mass - 1.0) > SUM_ATOL:
            raise ValueError(f"weights sum to {mass!r}, not 1 within {SUM_ATOL:g}")
        table.setflags(write=False)
        self.names = names
        self.table = table

    # -- structure ---------------------------------------------------------

    @property
    def sizes(self) -> tuple:
        return self.table.shape

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}; have {self.names}") from None

    def size_of(self, name: str) -> int:
        return self.table.shape[self.axis(name)]

    # -- queries -----------------------------------------------------------

    def _event_weights(self, event: Event) -> np.ndarray:
        if not event.names:
            return self.table
        for n, s in zip(event.names, event.sizes):
            if self.size_of(n) != s:
                raise ValueError(f"event size mismatch on {n}")
        mask = _expand_to(event.mask, event.names, self.names, self.sizes)
        return self.table * mask

    def prob(self, event: Event) -> float:
        return float(self._event_weights(event).sum())

    def given(self, assign: Mapping[str, int]) -> "FiniteDistribution":
        """Condition on an assignment and drop the assigned variables."""
        if not assign:
            return self
        idx = [slice(None)] * len(self.names)
        for n, v in assign.items():
            ax = self.axis(n)
            if not 0 <= int(v) < self.table.shape[ax]:
                raise ValueError(f"value {v} out of range for {n}")
            idx[ax] = int(v)
        sub = self.table[tuple(idx)]
        mass = float(sub.sum())
        if mass <= ZERO_MASS:
            raise ZeroProbabilityEvent(f"assignment {dict(assign)} has mass {mass:.3e}")
        keep = tuple(n for n in self.names if n not in assign)
        return FiniteDistribution(keep, sub / mass)

    def marginal(self, names: Iterable[str]) -> "FiniteDistribution":
        names = tuple(names)
        axes = tuple(self.axis(n) for n in names)
        drop = tuple(i for i in range(len(self.names)) if i not in axes)
        t = self.table.sum(axis=drop) if drop else self.table
        kept = tuple(n for n in self.names if n in names)
        out = FiniteDistribution(kept, t, normalize=False)
        return out.reordered(names)

    def reordered(self, names: Iterable[str]) -> "FiniteDistribution":
        names = tuple(names)
        if names == self.names:
            return self
        if set(names) != set(self.names):
            raise ValueError(f"cannot reorder {self.names} as {names}")
        perm = tuple(self.names.index(n) for n in names)
        return FiniteDistribution(names, np.transpose(self.table, perm))

