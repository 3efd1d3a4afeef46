"""Strictly increasing positive measure functions and empirical bound checks.

A measure function serves two roles: as a runtime bound g and as a transform
T of the input length. Bound checking composes them in one of three modes:
plain g(x), outer g(T(x)), inner T(g(x)), and evaluates the bound once per
word length, not once per word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from tmbench.cost import CostModel
from tmbench.machine import DEFAULT_FUEL, Machine, Verdict, _compile, _drafts

# the measure families, each with the parameters parse_measure accepts for it
FAMILY_PARAMS = {"identity": (), "linear": ("a", "b"), "log": ("a", "b"),
                 "power": ("a", "k"), "exp2": ("a",)}

# slack for the integer step comparison; bounds computed through log/pow can
# land a hair under an exact integer
EPS = 1e-9


@dataclass(frozen=True)
class MeasureFunction:
    """One of: identity x; linear a*x+b; log a*log2(x+1)+b; power a*x^k; exp2 a*2^x."""

    family: str
    a: float = 1.0
    b: float = 0.0
    k: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILY_PARAMS:
            raise ValueError(f"unknown measure family {self.family!r}")
        for name in ("a", "b", "k"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")
        if self.a <= 0:
            raise ValueError("parameter a must be > 0")
        if self.b < 0:
            raise ValueError("parameter b must be >= 0")
        if self.k <= 0:
            raise ValueError("parameter k must be > 0")


IDENTITY = MeasureFunction("identity")


def evaluate(f: MeasureFunction, x: float) -> float:
    """Evaluate f at x > 0 in double precision. A value past the largest
    double saturates to inf."""
    if x <= 0:
        raise ValueError(f"measure functions are defined on (0, inf); got x={x}")
    try:
        if f.family == "identity":
            return float(x)
        if f.family == "linear":
            return f.a * x + f.b
        if f.family == "log":
            return f.a * math.log2(x + 1.0) + f.b
        if f.family == "power":
            return f.a * float(x) ** f.k
        return f.a * 2.0 ** x
    except OverflowError:
        # x^k or 2^x alone overflowed; a factor a < 1 can bring the value back
        try:
            return 2.0 ** _log2_evaluate(f, x)
        except OverflowError:
            return math.inf


def _log2_evaluate(f: MeasureFunction, x: float) -> float:
    """log2(f(x)) for finite x > 0, finite even where f(x) overflows."""
    if f.family == "identity":
        return math.log2(x)
    if f.family == "power":
        return math.log2(f.a) + f.k * math.log2(x)
    if f.family == "exp2":
        return math.log2(f.a) + x
    # a*u + b with u = x (linear) or log2(x + 1) (log)
    u = x if f.family == "linear" else math.log2(x + 1.0)
    head = math.log2(f.a) + math.log2(u)
    if f.b == 0:
        return head
    tail = math.log2(f.b)
    hi, lo = max(head, tail), min(head, tail)
    return hi + math.log2(1.0 + 2.0 ** (lo - hi))


def compose(outer: MeasureFunction, inner: MeasureFunction, x: float) -> float:
    """outer(inner(x)) for x > 0, saturating only the result: where inner(x)
    overflows and outer is a log, the log is taken in the log domain."""
    y = evaluate(inner, x)
    if y == math.inf and outer.family == "log":
        # log2(y + 1) equals log2(y) in double precision for any y this large
        return outer.a * _log2_evaluate(inner, x) + outer.b
    return evaluate(outer, y)


def check_monotone_sample(f: MeasureFunction, xs: Sequence[float]) -> bool:
    """Strict monotonicity probe on a strictly increasing positive sample."""
    if len(xs) < 2:
        raise ValueError("sample needs at least two points")
    if any(x <= 0 for x in xs):
        raise ValueError("sample points must be positive")
    if any(not (xs[i] < xs[i + 1]) for i in range(len(xs) - 1)):
        raise ValueError("sample must be strictly increasing")
    values = [evaluate(f, x) for x in xs]
    return all(values[i] < values[i + 1] for i in range(len(values) - 1))


MODE_PLAIN = "plain"
MODE_OUTER = "outer"
MODE_INNER = "inner"
MODES = (MODE_PLAIN, MODE_OUTER, MODE_INNER)


@dataclass(frozen=True)
class BoundSpec:
    g: MeasureFunction
    mode: str = MODE_PLAIN
    transform: Optional[MeasureFunction] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown bound mode {self.mode!r}")
        if (self.transform is not None) != (self.mode != MODE_PLAIN):
            raise ValueError("transform must be present exactly when mode is outer/inner")

    def bound(self, x: float) -> float:
        if self.mode == MODE_PLAIN:
            return evaluate(self.g, x)
        assert self.transform is not None
        if self.mode == MODE_OUTER:
            return compose(self.g, self.transform, x)
        return compose(self.transform, self.g, x)


@dataclass(frozen=True, slots=True)
class BoundRow:
    """One word's check: a slotted value, with no __dict__ and no weak
    references. check_bound builds it as a trace builds a StepRecord: a
    draft of its slots filled by plain stores, then retyped by assigning
    its __class__, which Python allows because the draft's class has
    exactly these slots (see tmbench.machine.StepRecord)."""

    input: str
    length: int
    counted_steps: int
    bound: float
    passed: bool


_BoundRowDraft = _drafts(BoundRow)


@dataclass(frozen=True)
class BoundReport:
    per_input: tuple[BoundRow, ...]
    verdict: bool
    worst_margin: float


def bound_limit(bound: float) -> float:
    """The most counted steps bound admits: floor(bound + EPS), or inf for an
    infinite bound."""
    return bound if bound == math.inf else math.floor(bound + EPS)


def check_bound(
    m: Machine,
    cost: CostModel,
    spec: BoundSpec,
    inputs: Iterable[str],
    fuel: int = DEFAULT_FUEL,
) -> BoundReport:
    """Run m on each input and compare counted steps against the bound.

    The bound is evaluated once per word length, and every row of one
    length holds that one float. The empty word lies outside the measure
    domain and is checked against the bound at length 1. inputs is read
    once, so an exhausted iterator is refused as empty rather than passed
    vacuously, and a string, whose letters would be the words, is refused.
    """
    if isinstance(inputs, str):
        raise TypeError("inputs must be a collection of words, not a string")
    inputs = list(inputs)
    if not inputs:
        raise ValueError("inputs must be non-empty")
    compiled = _compile(m, cost)
    bounds = {n: spec.bound(max(n, 1)) for n in set(map(len, inputs))}
    limits = {n: (b, bound_limit(b)) for n, b in bounds.items()}
    rows = []
    verdict, worst = True, -math.inf
    draft, exhausted = _BoundRowDraft, Verdict.FUEL_EXHAUSTED
    for word, end, _, counted in compiled.on_words(inputs, fuel):
        n = len(word)
        bound, limit = limits[n]
        # a run out of fuel fails with an unbounded margin
        halted = end is not exhausted
        passed = halted and counted <= limit
        margin = counted - bound if halted else math.inf
        if margin > worst:
            worst = margin
        verdict = verdict and passed
        row = draft()
        row.input, row.length, row.counted_steps, row.bound, row.passed = (
            word, n, counted, bound, passed)
        row.__class__ = BoundRow
        rows.append(row)
    return BoundReport(per_input=tuple(rows), verdict=verdict, worst_margin=worst)


def parse_params(text: str, names: tuple[str, ...], convert: Callable[[str], object],
                 what: str) -> dict:
    """Parse the 'name=value,...' that follows the first ':' of text, where
    each name is one of names, at most once, and each value converts; what
    names the syntax in the error texts."""
    params = {}
    for item in text.partition(":")[2].split(","):
        name, sep, value = item.partition("=")
        if not sep or name not in names:
            raise ValueError(f"bad {what} parameter {item!r} in {text!r}")
        if name in params:
            raise ValueError(f"repeated {what} parameter {name!r} in {text!r}")
        try:
            params[name] = convert(value)
        except ValueError:
            raise ValueError(f"bad value for {what} parameter {name!r} in {text!r}") from None
    return params


def parse_measure(text: str) -> MeasureFunction:
    """Parse the command-line syntax: identity | linear:a=..,b=.. | log:a=..,b=..
    | power:a=..,k=.. | exp2:a=.."""
    if text == "identity":
        return IDENTITY
    family, sep, _ = text.partition(":")
    if not sep:
        raise ValueError(f"bad measure syntax {text!r}")
    if family not in FAMILY_PARAMS:
        raise ValueError(f"unknown measure family {family!r}")
    return MeasureFunction(family, **parse_params(text, FAMILY_PARAMS[family], float, "measure"))
