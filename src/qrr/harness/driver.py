"""The one check driver: entries declare their checks as data.

An entry gives, per mode, a :class:`Check`: the callable that evaluates the
two sides, the points to evaluate it at (a fixed grid, a sampler's draws, or
the draws crossed with a grid), and optionally a second reading of the
identity as printed.  A point holds every value the sides receive, by
keyword, so the points are the one declaration of what a check evaluates;
numeric and formal sides also receive the context as ``ctx=``, so a kernel
whose parameters are the point's keys is the sides callable itself.
:func:`run_entry` does the rest in the same way for every entry:

* ``numeric`` — for each q of ``entry.q_list(rc)`` it builds the context
  once and evaluates every point, literals too, by :func:`~qrr.context.widening`
  (whole again, wider, if a sum cancels); the worst scale-aware residual is
  compared with ``rc.tol()``, 10^-(precision - 10) for every entry, and
  below precision 20 the check is SKIPPED unrun;
* ``exact`` — the two sides are compared with ``==``; the first unequal
  point fails the check and is reported;
* ``formal`` — the sides callable returns a difference series; the first
  nonzero one fails the check and its first differing coefficient is
  reported.

The reported ``params`` are derived from the run, never declared: the q list
(numeric) or the order and D (formal), and :func:`summarise` of the points
the sides were called with, the failing point merged in last.

Statuses come from :func:`status` alone: a literal reading that holds gives
PASS; one that fails while the corrected reading holds gives
DISCREPANCY_DOCUMENTED.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import mpmath as mp

from ..context import (DEFAULT_ORDER, DEFAULT_PRECISION, QContext, keeping_values,
                       scaled_deviation, widening)
from ..pochhammer import QPow
from .sampling import entry_rng

MODES = ("formal", "exact", "numeric")
# A numeric check compares against 10^-(precision - 10).  Looser than
# 10^-MIN_TOL_EXPONENT, that is below precision 20, the tolerance cannot tell
# a defect from a pass, so the check is SKIPPED instead of run.
MIN_TOL_EXPONENT = 10


@dataclass(frozen=True)
class RunSettings:
    """Knobs shared by every check in one run, made from a validated
    config by :meth:`.runner.SuiteConfig.settings`.

    ``precision`` fixes both the numeric working precision and the one pass
    tolerance :meth:`tol`; ``order`` caps formal series; ``q_values`` are the
    numeric bases, real or complex, of an entry without ``fixed_q``; ``seed``
    seeds every sampler.
    """

    precision: int = DEFAULT_PRECISION
    order: int = DEFAULT_ORDER
    q_values: tuple = ("0.2", "0.3")
    seed: int = 20240809

    def tol(self):
        return mp.mpf(10) ** -(self.precision - 10)


@dataclass
class CheckOutcome:
    status: str
    deviation: object = None          # worst scale-aware residual (numeric/exact)
    first_diff: int | None = None     # formal mode
    params: dict = field(default_factory=dict)
    note: str = ""


class Verdict(NamedTuple):
    """A residual that carries its own pass rule (a trend, not a tolerance)."""

    deviation: object
    ok: bool


# A literal note quotes the literal reading's worst residual here.
LITERAL = "{literal}"


def grid(**axes) -> tuple:
    """Every combination of the axis values as a point, first axis outermost.

    Numeric checks receive string values as ``mpf``, made inside the working
    precision; every other value is passed as it is.
    """
    return tuple(dict(zip(axes, values))
                 for values in itertools.product(*axes.values()))


@dataclass(frozen=True)
class Reading:
    """The identity as printed, evaluated beside the corrected reading."""

    sides: Callable
    points: tuple = ({},)
    first_q_only: bool = False    # numeric: one evaluation shows the defect
    decides: bool = True          # False: only quoted in the note


@dataclass(frozen=True)
class Check:
    """How one mode of an entry is checked.

    ``sides(**point, ctx=ctx)`` (numeric, formal) or ``sides(**point)``
    (exact) returns ``(lhs, rhs)``, or: numeric, a residual or a
    :class:`Verdict`; exact, a bool; formal, the difference series.  A
    kernel named here, bare or in a ``partial``, is called as its module
    binds it when the check runs.
    """

    sides: Callable
    points: tuple = ({},)
    sampler: Callable | None = None   # rng -> draws, each crossed with points
    note: str = ""
    literal: Reading | None = None
    order: int | None = None          # formal: cap on the configured order
    D: int = 1                        # formal: q = u^D


@dataclass(frozen=True)
class IdentityEntry:
    """One registered identity: metadata, q policy and a check per mode.

    ``domains`` holds the identity's true limits, each a ``(parameter,
    limit, reason)`` triple; the points themselves are declared only once,
    on the checks.
    """

    id: str
    title: str
    statement: str
    domains: tuple = ()
    fixed_q: tuple | None = None   # override the configured q list
    formal: Check | None = None
    exact: Check | None = None
    numeric: Check | None = None

    @property
    def modes(self) -> tuple:
        return tuple(m for m in MODES if getattr(self, m) is not None)

    def q_list(self, rc: RunSettings):
        return list(self.fixed_q or rc.q_values)


def status(ok: bool, literal_ok: bool | None = None) -> str:
    """Status from the corrected reading and, if one decides, the literal."""
    if literal_ok:
        return "PASS"
    if ok:
        return "PASS" if literal_ok is None else "DISCREPANCY_DOCUMENTED"
    return "FAIL"


def run_entry(entry: IdentityEntry, mode: str, rc: RunSettings) -> CheckOutcome:
    """Evaluate ``entry`` in ``mode`` and derive its outcome; the values of the
    kept kernels live for this one check (:func:`~qrr.context.keeping_values`)."""
    chk = _current_sides(getattr(entry, mode))
    exponent = rc.precision - 10
    if mode == "numeric" and exponent < MIN_TOL_EXPONENT:
        return CheckOutcome(
            "SKIPPED", note=f"vacuous tolerance: 10^-(precision - 10) = "
            f"10^-{exponent} is looser than 10^-{MIN_TOL_EXPONENT}")
    with keeping_values():
        rng = entry_rng(rc.seed, entry.id, mode)
        ran = []   # every point the sides were called with, as declared
        note, fail_point, first_diff, literal_ok = chk.note, None, None, None
        if mode == "numeric":
            qs = entry.q_list(rc)
            params = {"q": [str(q) for q in qs]}
            dev, ok, literal = _numeric(entry, chk, rc, rng, qs, ran)
            if literal is not None:
                note = note.replace(LITERAL, mp.nstr(literal, 3))
                literal_ok = literal < rc.tol()
        else:
            draws = chk.sampler(rng) if chk.sampler else [{}]
            if mode == "exact":
                params = {}
                fail_point = _first_unequal(chk.sides, _cross(draws, chk.points),
                                            ran)
                if chk.literal is not None:
                    literal_ok = _first_unequal(
                        chk.literal.sides,
                        _cross(draws, chk.literal.points), ran) is None
            else:
                ctx = QContext.formal(min(rc.order, chk.order or rc.order), chk.D)
                params = {"order": ctx.order, "D": chk.D}
                fail_point, first_diff = _first_nonzero(
                    chk.sides, ctx, _cross(draws, chk.points), ran)
            ok = fail_point is None
            dev = mp.mpf(0) if ok and mode == "exact" else None
        params.update(summarise(ran))
        if fail_point is not None:
            params.update(summarise([fail_point]))
        if chk.literal is None or not chk.literal.decides:
            literal_ok = None
        return CheckOutcome(status(ok, literal_ok), dev, first_diff, params, note)


def _current_sides(chk):
    """``chk`` with its sides and its reading's as their modules bind them now.

    A check that names its kernel holds the function bound when the registry
    was imported.  Looking it up again by name per run calls what the module
    binds under that name since (a profiler's span wrapper, a test's patch),
    as a lambda calling ``module.kernel(...)`` did.
    """
    literal = chk.literal and replace(chk.literal, sides=_current(chk.literal.sides))
    return replace(chk, sides=_current(chk.sides), literal=literal)


def _current(fn):
    if isinstance(fn, partial):
        return partial(_current(fn.func), *fn.args, **fn.keywords)
    return getattr(sys.modules[fn.__module__], fn.__qualname__, fn)


def summarise(points) -> dict:
    """Each key of ``points`` with its distinct values, in the order first met.

    One value prints bare, a run of consecutive ints as ``lo..hi`` and
    anything else as ``{a, b, ...}``; a QPow prints as a power of q.
    """
    seen = {}
    for point in points:
        for key, value in point.items():
            values = seen.setdefault(key, [])
            if value not in values:
                values.append(value)
    return {key: _span(values) for key, values in seen.items()}


def _span(values):
    if len(values) == 1:
        return _show(values[0])
    if (all(type(v) is int for v in values)
            and max(values) - min(values) == len(values) - 1):
        return f"{min(values)}..{max(values)}"
    return "{" + ", ".join(map(_show, values)) + "}"


def _show(value):
    if not isinstance(value, QPow):
        return str(value)
    c, e = value
    if e == 0:
        return str(c)
    power = "q" if e == 1 else f"q^({e})" if "/" in str(e) else f"q^{e}"
    return {1: power, -1: "-" + power}.get(c, f"{c}*{power}")


def _cross(draws, points):
    return [{**d, **p} for d in draws for p in points]


def _numeric(entry, chk, rc, rng, qs, ran):
    """(worst residual, all passed, worst literal residual or None)."""
    tol = rc.tol()
    reading = chk.literal
    worst, ok = mp.mpf(0), True
    literal = None if reading is None else mp.mpf(0)
    for i, q in enumerate(qs):
        ctx = QContext.numeric(q, precision=rc.precision)
        with ctx.workdps():
            draws = chk.sampler(rng) if chk.sampler else [{}]
        for point in _cross(draws, chk.points):
            ran.append(point)
            dev, passed = _residual(chk.sides, point, ctx, tol)
            worst, ok = max(worst, dev), ok and passed
        if reading is not None and not (reading.first_q_only and i):
            for point in _cross(draws, reading.points):
                ran.append(point)
                literal = max(literal, _residual(reading.sides, point, ctx, tol).deviation)
    return worst, ok, literal


def _residual(sides, point, ctx, tol) -> Verdict:
    """The verdict on ``sides(**point, ctx=ctx)``, rerun whole by ``widening``."""
    def evaluate(ctx):
        value = sides(**_as_mp(point), ctx=ctx)
        if isinstance(value, Verdict):
            return value
        if isinstance(value, tuple):
            value = scaled_deviation(*value)
        return Verdict(value, value < tol)

    return widening(evaluate, ctx)


def _as_mp(point):
    return {k: mp.mpf(v) if isinstance(v, str) else v
            for k, v in point.items()}


def _first_unequal(sides, points, ran):
    for point in points:
        ran.append(point)
        value = sides(**point)
        if not (value if isinstance(value, bool) else value[0] == value[1]):
            return point
    return None


def _first_nonzero(sides, ctx, points, ran):
    for point in points:
        ran.append(point)
        diff = sides(**point, ctx=ctx)
        if not diff.is_zero():
            return point, diff.first_difference(type(diff)(diff.D, diff.N))
    return None, None
