"""Two-player one-round games and their repeated index spaces.

A game is a question distribution mu over (x, y) plus a winning predicate
V[x, y, a, b].  Repetition is handled through index arithmetic on per-round
variables named x1..xn, y1..yn, a1..an, b1..bn; the n-fold predicate exists
only as the mask of `win_set`, laid out as the Born table is.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .prob import MAX_TABLE_ENTRIES, SUM_ATOL, WEIGHT_FLOOR, Event


def x_names(n: int) -> tuple:
    return tuple(f"x{i}" for i in range(1, n + 1))


def y_names(n: int) -> tuple:
    return tuple(f"y{i}" for i in range(1, n + 1))


def a_names(n: int) -> tuple:
    return tuple(f"a{i}" for i in range(1, n + 1))


def b_names(n: int) -> tuple:
    return tuple(f"b{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class Game:
    """A one-round game; it refuses non-positive sizes and a mu that is
    not a distribution.  A question of zero probability is allowed, and a
    weight between WEIGHT_FLOOR and 0 is rounding, clipped to 0."""
    x_size: int
    y_size: int
    a_size: int
    b_size: int
    mu: np.ndarray
    predicate: np.ndarray
    name: str = "custom"

    def __post_init__(self):
        if min(self.x_size, self.y_size, self.a_size, self.b_size) < 1:
            raise ValueError("alphabet sizes must be positive")
        mu = np.array(self.mu, dtype=np.float64)
        pred = np.array(self.predicate, dtype=bool)
        if mu.shape != (self.x_size, self.y_size):
            raise ValueError(f"mu shape {mu.shape} != ({self.x_size}, {self.y_size})")
        if pred.shape != (self.x_size, self.y_size, self.a_size, self.b_size):
            raise ValueError(f"predicate shape {pred.shape} is wrong")
        if not np.isfinite(mu).all():
            raise ValueError("mu has NaN or infinite weights")
        if float(mu.min()) < WEIGHT_FLOOR:
            raise ValueError(f"mu has negative weight {mu.min():.3e}")
        total = float(mu.sum())
        if abs(total - 1.0) > SUM_ATOL:
            raise ValueError(f"mu sums to {total!r}, not 1 within {SUM_ATOL:g}")
        np.clip(mu, 0.0, None, out=mu)   # rounding negatives, as in tables
        mu.setflags(write=False)
        pred.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "predicate", pred)


def tuple_digits(size: int, n: int) -> np.ndarray:
    """(size**n, n) array whose row k holds the k-th n-tuple over
    range(size) in `itertools.product` order (most significant first)."""
    return np.indices((size,) * n).reshape(n, size ** n).T


def question_weights(g: Game, n: int) -> np.ndarray:
    """mu^{(x)n} as a (x_size**n, y_size**n) array over flat question
    tuples, multiplied round by round in order as a per-tuple loop would."""
    xd, yd = tuple_digits(g.x_size, n), tuple_digits(g.y_size, n)
    w = np.ones((xd.shape[0], yd.shape[0]))
    for i in range(n):
        w *= g.mu[np.ix_(xd[:, i], yd[:, i])]
    return w


def win_set(g: Game, n: int, coords) -> Event:
    """Event 'every round in coords is won', laid out kind-major as the Born
    table is: x_C..., y_C..., a_C..., b_C... with C sorted.

    Coordinates are 0-based; variable names stay 1-based (round j maps to
    x{j+1}, y{j+1}, a{j+1}, b{j+1}).
    """
    coords = sorted(set(int(i) for i in coords))
    for i in coords:
        if not 0 <= i < n:
            raise ValueError(f"coordinate {i} outside 0..{n - 1}")
    m = len(coords)
    names = tuple(f"{kind}{i + 1}" for kind in "xyab" for i in coords)
    sizes = tuple(size for size in g.predicate.shape for _ in coords)
    if math.prod(sizes) > MAX_TABLE_ENTRIES:
        raise ValueError("win event mask exceeds the table entry cap")
    mask = np.array(True)
    for k in range(m):      # round k's x, y, a, b axes are k, m+k, 2m+k, 3m+k
        shape = [1] * (4 * m)
        shape[k::m] = g.predicate.shape
        mask = mask & g.predicate.reshape(shape)
    return Event(names, sizes, mask)


# ---------------------------------------------------------------------------
# fixtures

def chsh() -> Game:
    """Uniform questions; win iff a xor b = x and y."""
    mu = np.full((2, 2), 0.25)
    pred = np.zeros((2, 2, 2, 2), dtype=bool)
    for x, y, a, b in itertools.product(range(2), repeat=4):
        pred[x, y, a, b] = (a ^ b) == (x & y)
    return Game(2, 2, 2, 2, mu, pred, name="chsh")


def always_win() -> Game:
    """Uniform questions, identically true predicate."""
    mu = np.full((2, 2), 0.25)
    pred = np.ones((2, 2, 2, 2), dtype=bool)
    return Game(2, 2, 2, 2, mu, pred, name="always_win")


def asym3() -> Game:
    """Three questions per side, correlated nonuniform mu, parity predicate."""
    w = np.array([[4.0, 1.0, 1.0],
                  [1.0, 2.0, 1.0],
                  [1.0, 1.0, 3.0]])
    mu = w / w.sum()
    pred = np.zeros((3, 3, 2, 2), dtype=bool)
    for x, y, a, b in itertools.product(range(3), range(3), range(2), range(2)):
        pred[x, y, a, b] = (a ^ b) == ((x + y) % 2)
    return Game(3, 3, 2, 2, mu, pred, name="asym3")


_FIXTURES = {"chsh": chsh, "always_win": always_win, "asym3": asym3}


def fixture(name: str) -> Game:
    try:
        return _FIXTURES[name]()
    except KeyError:
        raise ValueError(f"unknown game fixture {name!r}; have {sorted(_FIXTURES)}") from None


# ---------------------------------------------------------------------------
# text round-trip

def _format_float(v: float) -> str:
    return repr(float(v))


def save_game(g: Game, path) -> None:
    lines = [
        f"name {g.name}",
        f"x_size {g.x_size}",
        f"y_size {g.y_size}",
        f"a_size {g.a_size}",
        f"b_size {g.b_size}",
        "mu " + " ".join(_format_float(v) for v in g.mu.reshape(-1)),
        "predicate " + " ".join(str(int(v)) for v in g.predicate.reshape(-1)),
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_weight(tok: str) -> float:
    if "/" in tok:
        try:
            return float(Fraction(tok))
        except ZeroDivisionError:
            raise ValueError(f"weight {tok!r} divides by zero") from None
    return float(tok)


def load_game(path) -> Game:
    fields = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        fields[key] = rest.strip()
    try:
        xs, ys = int(fields["x_size"]), int(fields["y_size"])
        as_, bs = int(fields["a_size"]), int(fields["b_size"])
        mu = np.array([_parse_weight(t) for t in fields["mu"].split()],
                      dtype=np.float64).reshape(xs, ys)
        pred = np.array([int(t) for t in fields["predicate"].split()],
                        dtype=bool).reshape(xs, ys, as_, bs)
    except KeyError as e:
        raise ValueError(f"game file missing field {e.args[0]!r}") from None
    try:
        return Game(xs, ys, as_, bs, mu, pred,
                    name=fields.get("name", "custom"))
    except ValueError as e:
        raise ValueError(f"invalid game file: {e}") from None
