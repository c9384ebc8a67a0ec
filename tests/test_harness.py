"""Registry coverage, runner behavior, reports, and the CLI."""

import contextlib
import importlib
import json
import re
from dataclasses import replace
from fractions import Fraction as F
from itertools import count

import mpmath as mp
import pytest

from qrr import ConfigError, PrecisionLossError, UnknownIdentityError, UnsupportedModeError
from qrr.cli import main
from qrr.harness import (CENSUS, ENTRIES, IdentityReport, RunSettings,
                         SuiteConfig, emit_report, get_entry, list_identities,
                         planned_checks, run_check, run_info, run_suite)
from qrr.formal import FormalSeries
from qrr.context import QContext, scaled_deviation, widening
from qrr import qpolynomials, slices, summation
from qrr.harness import driver, registry
from qrr.harness.driver import (LITERAL, Check, IdentityEntry, Reading,
                                Verdict, _as_mp, grid, run_entry, status,
                                summarise)
from qrr.pochhammer import QPow
from qrr.harness.sampling import annulus_pair, entry_rng, rational_in

FAST_IDS = ["st-5.7", "sw-symmetry", "finite-qbinom", "schur-cd"]


def test_registry_size_and_ordering():
    entries = list_identities()
    assert len(entries) >= 30
    assert [e.id for e in entries] == sorted(e.id for e in entries)
    assert get_entry("RR1").statement.startswith("sum q^{n^2}")
    assert any(e.id == "ms-17" for e in entries)


@pytest.mark.parametrize("module", ["qrr", "qrr.harness"])
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its definition went breaks `import *`
    mod = importlib.import_module(module)
    for name in mod.__all__:
        getattr(mod, name)


def test_census_covers_registry():
    ids = {e.id for e in ENTRIES}
    seen = set()
    for tag, kind, target in CENSUS:
        assert kind in ("entry", "def", "oos"), tag
        assert tag not in seen, f"duplicate census tag {tag}"
        seen.add(tag)
        if kind == "entry":
            for eid in target:
                assert eid in ids, f"census {tag} points at unknown {eid}"
    covered = {eid for _, kind, target in CENSUS if kind == "entry"
               for eid in target}
    assert covered == ids, ids ^ covered  # census and registry agree exactly


def test_every_entry_has_modes_and_checker():
    for e in ENTRIES:
        assert e.modes and all(m in ("formal", "exact", "numeric")
                               for m in e.modes)
        assert all(callable(getattr(e, m).sides) for m in e.modes)
        assert e.statement and e.title


def test_unknown_identity():
    with pytest.raises(UnknownIdentityError):
        get_entry("definitely-not-registered")


def test_unsupported_mode():
    with pytest.raises(UnsupportedModeError):
        run_check("ms-14", "formal", RunSettings())


def test_evaluator_error_becomes_skipped():
    rep = run_check("RR1", "numeric", RunSettings(q_values=("1.5",)))
    assert rep.status == "SKIPPED"
    assert "DomainError" in rep.note


def test_undeclared_exception_is_error_and_fails_the_suite(monkeypatch, capsys):
    from qrr import cli
    from qrr.harness import runner
    stub = _stub(numeric=Check(lambda ctx: 1 / 0))
    for module in (runner, cli):
        monkeypatch.setattr(module, "get_entry", lambda entry_id: stub)
    monkeypatch.setattr(runner, "list_identities", lambda: [stub])
    report = run_check("stub", "numeric", RunSettings())
    assert report.status == "ERROR"
    assert report.note == "ZeroDivisionError: division by zero"
    cfg = SuiteConfig()
    reports, summary, exit_code = run_suite(cfg)
    assert [r.status for r in reports] == ["ERROR"]
    assert summary == {"total": 1, "ERROR": 1} and exit_code == 1
    footer = emit_report(reports, run_info(cfg), fmt="text").splitlines()[-1]
    assert footer.endswith(" SKIPPED=0 ERROR=1"), footer
    assert main(["check", "stub"]) == 1
    assert "ERROR" in capsys.readouterr().out


def test_poisson_kernel_certificate_failure_is_error():
    # at q = -0.6 the ratio test cannot certify the kernel's sum: a crash of
    # the engine, not a declared limit of the identity
    report = run_check("poisson-kernel", "numeric",
                       RunSettings(precision=20, q_values=("-0.6",)))
    assert report.status == "ERROR"
    assert report.note.startswith("RatioTestError: "), report.note


@pytest.mark.parametrize("entry_id, q, status", [
    ("poisson-kernel", "-0.3", "PASS"),
    ("hermite-gf", "0.7", "DISCREPANCY_DOCUMENTED"),
])
def test_parity_certificate_certifies_a_kernel_sum(entry_id, q, status, monkeypatch):
    # these kernels' sums alternate between two decay levels, so only the
    # parity rule certifies them; no sum reaches it at the default q
    rates = []
    parity = summation._parity_decay_rate
    monkeypatch.setattr(summation, "_parity_decay_rate",
                        lambda mags, tol: rates.append(parity(mags, tol)) or rates[-1])
    report = run_check(entry_id, "numeric", RunSettings(q_values=(q,)))
    assert rates and None not in rates
    assert report.status == status, (report.max_abs_deviation, report.note)


@pytest.mark.parametrize("precision", [20, 50])
@pytest.mark.parametrize("q", ["0.1", "0.05", "1e-6", "1e-30"])
def test_m_shifted_resolutions_hold_at_small_q(q, precision):
    # q^(-m(m-1)/2) times a difference that cancels m(m-1)/2 log10(1/q)
    # digits: 28 at m = 8 and q = 0.1, more than the guard digits, and 168
    # and 840 at q = 1e-6 and 1e-30, past four times the first width, the
    # rerun cap, which the cancellation named a priori raises
    for entry_id in ("mform", "um-mform"):
        report = run_check(entry_id, "numeric",
                           RunSettings(precision=precision, q_values=(q,)))
        assert report.status in ("PASS", "DISCREPANCY_DOCUMENTED"), \
            (entry_id, report.max_abs_deviation, report.note)


@pytest.mark.parametrize("sides", [
    lambda ctx: registry._mform(ctx, 8),
    lambda ctx: qpolynomials.bilateral_m_version_sides(QPow(1, 0), 8, ctx)],
    ids=["mform", "um-mform"])
def test_m_shifted_difference_is_rerun_deeper(sides):
    # at q = 0.05 and m = 8 the right side's difference cancels about
    # 28 log2(20) = 121 bits: the first pass raises, naming the bits, and
    # the rerun that widening makes passes at the check's tolerance
    ctx = QContext.numeric("0.05", precision=50)
    with ctx.workdps(), pytest.raises(PrecisionLossError, match="finite sum cancelled 12") as exc:
        sides(ctx)
    assert exc.value.bits > 100
    lhs, rhs = widening(sides, ctx)
    assert scaled_deviation(lhs, rhs) < RunSettings(precision=50).tol()


@pytest.mark.parametrize("precision", [20, 50])
@pytest.mark.parametrize("q", ["0.05"])
def test_sw_hermite_bridge_is_scaled_at_small_q(q, precision):
    # both sides of the S_n / h_n bridge grow like powers of 1/q, so only a
    # residual scaled by their size meets 10^-(precision - 10)
    report = run_check("sw-hermite", "numeric",
                       RunSettings(precision=precision, q_values=(q,)))
    assert report.status == "DISCREPANCY_DOCUMENTED", \
        (report.max_abs_deviation, report.note)


def test_sampling_is_deterministic_and_respects_margins():
    r1 = entry_rng(7, "psi11", "numeric")
    r2 = entry_rng(7, "psi11", "numeric")
    for _ in range(5):
        assert annulus_pair(r1) == annulus_pair(r2)
    rng = entry_rng(7, "other", "numeric")
    for _ in range(50):
        a, b, z = annulus_pair(rng)
        assert b / a < z < 1
        assert z - b / a >= 1 / 20 and 1 - z >= 1 / 20
    assert entry_rng(7, "x", "numeric").random() != entry_rng(8, "x", "numeric").random()


def test_rational_in_is_strictly_inside():
    rng = entry_rng(3, "bounds", "exact")
    for _ in range(100):
        v = rational_in(rng, 0, 1)
        assert 0 < v < 1


def _first_sample(entry_id, seed, mode=None):
    """The first point a check evaluates by the registry's rule: its first
    draw crossed with its first grid point; ``mode`` defaults to the entry's
    first mode."""
    entry = get_entry(entry_id)
    mode = mode or entry.modes[0]
    chk = getattr(entry, mode)
    draws = chk.sampler(entry_rng(seed, entry_id, mode)) if chk.sampler else [{}]
    return {**draws[0], **chk.points[0]}


def test_sample_params_annulus_and_determinism():
    draw = _first_sample("psi11", 42)
    assert draw == _first_sample("psi11", 42)
    assert draw["b"] / draw["a"] + F(1, 20) <= draw["z"] <= F(19, 20)
    assert _first_sample("psi11", 43) != draw


class _FirstPoint(Exception):
    pass


def _first_point(entry, mode, seed):
    """The keyword point the check passes to its sides callable first, with
    the working precision it was passed at."""
    chk = getattr(entry, mode)

    def spy(*args, **point):
        raise _FirstPoint(point, mp.mp.prec)

    spied = replace(entry, **{mode: replace(chk, sides=spy)})
    with pytest.raises(_FirstPoint) as caught:
        run_entry(spied, mode, RunSettings(seed=seed))
    return caught.value.args


def test_sample_params_is_first_evaluated_point():
    sampled = [(e, m) for e in ENTRIES for m in e.modes
               if getattr(e, m).sampler is not None]
    assert {(e.id, m) for e, m in sampled} >= {
        ("psi11", "numeric"), ("heine", "numeric"), ("ms-1", "exact"),
        ("GFhn0", "formal"), ("st-5.1", "formal"), ("sw-hermite", "exact")}
    # one rule for every check: the first draw crossed with the first point
    for entry in ENTRIES:
        for mode in entry.modes:
            for seed in (0, 42, 20240809):
                sample = _first_sample(entry.id, seed, mode)
                first, prec = _first_point(entry, mode, seed)
                with mp.workprec(prec):
                    expected = _as_mp(sample) if mode == "numeric" else sample
                assert first == expected, (entry.id, mode, seed)
    assert _first_sample("um-mform", 3) == {"a": "0.5", "m": 0}
    assert _first_sample("GFhn0", 3) == _first_sample("GFhn0", 3, "formal")


def test_gfhn0_formal_runs_three_nonzero_samples():
    entry = get_entry("GFhn0")
    default = [d["b"] for d in entry.formal.sampler(
        entry_rng(20240809, "GFhn0", "formal"))]
    assert default == [F(-7, 24), F(-11, 24), F(-17, 48)]
    for seed in (42, 20240809):
        seen = []

        def sides(ctx, b, real=entry.formal.sides):
            seen.append(b)
            return real(ctx, b=b)

        spied = replace(entry, formal=replace(entry.formal, sides=sides))
        outcome = run_entry(spied, "formal", RunSettings(seed=seed))
        assert outcome.status == "PASS"
        assert outcome.params["b"] == "{" + ", ".join(map(str, seen)) + "}"
        assert len(seen) == 3 and 0 not in seen, (seed, seen)


def _stub(**fields):
    return IdentityEntry("stub", "stub", "stub", **fields)


def test_st51_formal_draws_nonzero_t():
    # seed 4 is the first seed whose plain draw gives t = 0, where both sides
    # are 1 and the sample checks nothing
    entry = get_entry("st-5.1")
    draws = entry.formal.sampler(entry_rng(4, "st-5.1", "formal"))
    assert len(draws) == 3 and all(d["t"] != 0 for d in draws)
    assert draws[0] == {"x": F(-25, 48), "t": F(-31, 48)}
    # the default seed and seed 42 draw what they drew before
    assert entry.formal.sampler(entry_rng(20240809, "st-5.1", "formal"))[0] \
        == {"x": F(23, 48), "t": F(-1, 6)}
    assert entry.formal.sampler(entry_rng(42, "st-5.1", "formal"))[0] \
        == {"x": F(23, 48), "t": F(11, 48)}
    assert run_entry(entry, "formal", RunSettings(seed=4)).status == "PASS"


def test_ms6_declares_the_t_it_evaluates():
    assert run_check("ms-6", "formal", RunSettings()).params == {
        "order": "60", "D": "1", "a": "{q, None}", "t": "2/3"}
    assert run_check("ms-6", "numeric", RunSettings()).params == {
        "q": "['0.2', '0.3']", "t": "0.6"}


# The entries whose checks repeat calls of the kept kernels (infinite
# products, q-Bessel values, u_m sums, slice cutoffs and ratio tables, the
# hermite-gf series): a kept value must read as a fresh one.
@pytest.mark.parametrize("entry_id", [
    "bessel-sv-4", "bessel-sv-5", "lommel-i", "lommel-j", "bessel-gf",
    "bessel-i1-continuation", "um-recurrence", "RR1", "ms-3", "ms-4", "ms-5",
    "hermite-gf", "st-5.3"])
def test_kept_values_leave_the_report_unchanged(entry_id, monkeypatch):
    kept = run_check(entry_id, "numeric", RunSettings())
    monkeypatch.setattr(driver, "keeping_values", contextlib.nullcontext)
    fresh = run_check(entry_id, "numeric", RunSettings())
    assert kept.status == fresh.status and kept.status in ("PASS", "DISCREPANCY_DOCUMENTED")
    assert kept.max_abs_deviation == fresh.max_abs_deviation
    assert kept.params == fresh.params


def test_st53_sums_each_shifted_entire_value_once(monkeypatch):
    # every n of the check reads A_q(x q^k) off one kept stream per (x,
    # ctx), each value one ramanujan_A sum: each distinct (q, k) is summed
    # once across n = 0, 2 and 4
    made = []
    real = qpolynomials.ramanujan_A

    def spy(z, ctx):
        made.append((str(ctx.q), ctx.extra_bits, str(z)))
        return real(z, ctx)

    monkeypatch.setattr(qpolynomials, "ramanujan_A", spy)
    report = run_check("st-5.3", "numeric", RunSettings())
    assert report.status == "PASS", report.note
    assert len(made) == len(set(made)) == 38
    assert {q for q, _, _ in made} == {"0.2", "0.3"}


def qp_bessel_direct(ctx, kind, z):
    """(sum, last n) of the bessel-defs direct sum as each term once divided
    by a fresh mp.qp(q, q, n)^2."""
    qv = ctx.q
    weight = {1: lambda n: mp.mpf(0), 2: lambda n: mp.mpf(n * n),
              3: lambda n: mp.mpf(n * (n - 1)) / 2}[kind]
    direct = mp.mpf(0)
    for n in count():
        term = qv ** weight(n) * (z / 2) ** (2 * n) / mp.qp(qv, qv, n) ** 2
        direct += term
        if abs(term) < ctx.stop_tol * abs(direct):
            return direct, n


@pytest.mark.parametrize("precision", [20, 50, 100])
@pytest.mark.parametrize("q", ["0.2", "0.3", "-0.3", "0.99"])
def test_bessel_defs_oracle_matches_the_qp_form(q, precision, monkeypatch):
    """The running (q;q)_n of the bessel-defs oracle stops where the mp.qp
    form stops and agrees with it far below the working precision."""
    ctx = QContext.numeric(q, precision)
    z, tol = mp.mpf("0.8"), mp.mpf(10) ** -(precision + 10)
    seen = []

    def counting():
        for n in count():
            seen.append(n)
            yield n

    monkeypatch.setattr(registry, "count", counting)
    for kind in (1, 2, 3):
        seen.clear()
        with ctx.workdps():
            _, direct = registry._bessel_defs(ctx, kind, z)
            old, stop = qp_bessel_direct(ctx, kind, z)
            assert seen[-1] == stop, kind
            assert abs(direct - old) <= tol * abs(old), kind


# Entries that used to raise RatioTestError (a short series that rises before
# it decays) or stop a direct oracle at a fixed term count at these settings.
@pytest.mark.parametrize("entry_id, precision", [
    ("bessel-sv-4", 20), ("bessel-sv-5", 20), ("bessel-sv-series", 20),
    ("lommel-i", 20), ("lommel-j", 20), ("ms-10", 20), ("bessel-defs", 100)])
def test_config_sweep_passes(entry_id, precision):
    report = run_check(entry_id, "numeric", RunSettings(precision=precision))
    assert report.status == "PASS", report.note


# Entries that used to swap a configured q above 0.3 for 0.3, and entries
# whose tolerance used to be 10^-(precision - 15) or 10^-(precision - 25).
# At q = 0.5 and q = +-0.6 the fixed points a = 0.5 and a = 0.6 sit on poles,
# which must show as PoleError, not as a FAIL or a ZeroDivisionError; at
# q = 0.7 the fixed x = 0.6 is outside q < |x| < 1.
FORMERLY_CAPPED = ("ms-3", "ms-4", "ms-5", "ms-11", "ms-12", "ms-13", "ms-14",
                   "ms-15", "ms-16", "ms-17")
FORMERLY_RELAXED = FORMERLY_CAPPED + ("ms-7", "ms-8", "bessel-gf", "bessel-ml")
DECLARED_EXCEPTIONS = ("PoleError", "DomainError", "AnnulusError")


@pytest.mark.parametrize("q", ["0.5", "0.7", "0.6", "-0.6"])
def test_configured_q_is_evaluated_or_declared_out_of_domain(q):
    for entry_id in FORMERLY_CAPPED:
        report = run_check(entry_id, "numeric",
                           RunSettings(precision=20, q_values=(q,)))
        if report.status == "SKIPPED":
            assert report.note.startswith(DECLARED_EXCEPTIONS), (entry_id, report.note)
        else:
            assert report.params["q"] == str([q]), (entry_id, report.params)
            assert report.status in ("PASS", "DISCREPANCY_DOCUMENTED"), (entry_id, report.note)


def test_formerly_relaxed_entries_hold_the_default_tolerance_at_precision_20():
    for entry_id in FORMERLY_RELAXED:
        report = run_check(entry_id, "numeric", RunSettings(precision=20))
        assert report.status in ("PASS", "DISCREPANCY_DOCUMENTED"), (entry_id, report.note)


# Settings where ms-3/ms-5 used to FAIL (their slice sums were truncated at a
# fixed 34 digits whatever the precision), where a series whose even and odd
# terms decay at different levels raised RatioTestError (SKIPPED), or where
# lommel-i/lommel-j judged |lhs - rhs| unscaled on sides of order 10^21.  Near
# |q| = 1 a product beyond the term budget was an ERROR, and psi11 passed
# on bilateral sums below their own tail bounds: the first is SKIPPED now,
# with a NonConvergenceError note, and psi11 at q = 0.99 is certified since
# a bilateral block reads its first tail on below the sum of both.  A pole
# of the theta pole sums (a = 0.5 = q)
# names its factor.  ``expected`` is a status, optionally followed by
# ": " and a fragment of the note.
@pytest.mark.parametrize("entry_id, settings, expected", [
    ("ms-3", {"precision": 100}, "PASS"),
    ("ms-5", {"precision": 100}, "PASS"),
    ("hermite-gf", {"q_values": ("0.5",)}, "DISCREPANCY_DOCUMENTED"),
    ("hermite-gf", {"q_values": ("0.7",)}, "DISCREPANCY_DOCUMENTED"),
    ("poisson-kernel", {"q_values": ("-0.3",)}, "PASS"),
    ("lommel-i", {"precision": 20, "q_values": ("-0.99",)}, "PASS"),
    ("lommel-j", {"precision": 20, "q_values": ("-0.99",)}, "PASS"),
    ("st-5.1", {"q_values": ("0.99",)},
     "SKIPPED: NonConvergenceError: (a;q)_inf needs 13606 factors, over the budget of 8000"),
    ("hermite-gf", {"precision": 20, "q_values": ("-0.99",)},
     "SKIPPED: NonConvergenceError: (a;q)_inf needs 13370 factors"),
    # the first tail of the bilateral block is read on below the sum of both
    ("psi11", {"precision": 20, "q_values": ("0.99",)}, "PASS"),
    ("ms-15", {"precision": 20, "q_values": ("0.5",)},
     "SKIPPED: PoleError: denominator factor 1 - 0.125 q^(-3) of the pole sum vanished"),
    # the odd slices cancel exactly on the table's own exponent
    ("ms-3", {"precision": 20, "q_values": ("0.99",)}, "PASS"),
    # the cube slices' residue classes agree exactly when 3 does not divide n
    ("ms-4", {"precision": 20, "q_values": ("0.96",)}, "PASS"),
    ("ms-4", {"precision": 20, "q_values": ("0.97",)}, "PASS"),
    ("ms-4", {"q_values": ("0.97",)}, "PASS"),
    ("ms-4", {"precision": 20, "q_values": ("0.99",)}, "PASS"),
    ("ms-4", {"precision": 20, "q_values": ("-0.99",)}, "PASS"),
    # the Gaussian ratio-table sums of ms-11 and ms-12 near q = 1
    ("ms-11", {"precision": 20, "q_values": ("0.99",)}, "PASS"),
    ("ms-12", {"precision": 20, "q_values": ("0.99",)}, "DISCREPANCY_DOCUMENTED"),
    ("ms-11", {"precision": 20, "q_values": ("0.9",)}, "PASS"),
    ("ms-12", {"precision": 20, "q_values": ("0.9",)}, "DISCREPANCY_DOCUMENTED"),
    # the positive-side entries kept about 22 bits on an exponent fixed 2 wp
    # below the peak (FAIL 5.1e-9); the floor bound floors the table finer
    ("ms-5", {"precision": 20, "q_values": ("0.99",)}, "PASS"),
    # at z = 0.8, t = -2 the outer terms reach 2.6e36 against a value of
    # 1.4e-56: a rerun that only widened left the inner values' truncation
    # (FAIL 7.0e-8); one that also sums deeper closes it
    ("bessel-gf", {"precision": 20, "q_values": ("0.99",)}, "PASS")])
def test_config_probe_fixes(entry_id, settings, expected):
    report = run_check(entry_id, "numeric", RunSettings(**settings))
    status, _, note = expected.partition(": ")
    assert report.status == status, report.note
    assert report.note.startswith(note), report.note


SLICE_CHECKS = ("ms-3", "ms-4", "ms-5", "ms-7", "ms-8", "ms-11", "ms-12", "ms-13", "ms-14",
                "ms-15", "ms-16", "ms-17")


def test_slice_tables_keep_their_first_exponent_and_cutoff_at_the_default(monkeypatch):
    # at the default config every slice sum holds its floor bound on the
    # table's a-priori exponent, and every Gaussian slice sum (ms-7, ms-8,
    # ms-11, ms-12 and the theta sums) and every nonzero slice of ms-3 and
    # ms-5 its cutoffs on its first table: no table is floored again or
    # grown, no check rerun wider.  The 47 tables,
    # at q = 0.2 and 0.3: ms-3 (n = 0..5), ms-4 (4 n), ms-5 (3 n; its literal
    # reading at n = 3 reads the kept slice), ms-7 (two alpha), ms-8, ms-11,
    # the five theta sums (one each) and ms-12, with the literal reading of
    # ms-12 at the first q
    from qrr import slices
    counts = {"floors": 0, "refloors": 0, "theta": 0, "cutoffs": 0, "wider": 0}

    def counting(key, real, check=None):
        def call(*args):
            counts[key] += 1
            if check and check(*args):
                counts["re" + key] += 1
            return real(*args)
        return call

    monkeypatch.setattr(slices._Table, "floor", counting(
        "floors", slices._Table.floor, lambda t, E: hasattr(t, "E")))
    # one pole table per theta sum, and the cutoff check of every bilateral table
    monkeypatch.setattr(slices, "_pole_factors", counting("theta", slices._pole_factors))
    monkeypatch.setattr(slices, "_theta_cutoff", counting("cutoffs", slices._theta_cutoff))
    monkeypatch.setattr(QContext, "wider", counting("wider", QContext.wider))
    for entry_id in SLICE_CHECKS:
        report = run_check(entry_id, "numeric", RunSettings())
        assert report.status in ("PASS", "DISCREPANCY_DOCUMENTED"), (entry_id, report.note)
    assert counts["floors"] == 47 and counts["theta"] == 10
    # one cutoff check per theta sum, and one per ratio table of ms-11 and
    # ms-12 (two each, and ms-12's literal reading) and of the nonzero slices
    # of ms-3 (n = 0, 2, 4) and ms-5 (3 n) at each q
    assert counts["refloors"] == 0 and counts["cutoffs"] == counts["theta"] + 5 + 2 * (3 + 3)
    assert counts["wider"] == 0


def test_ms5_near_one_grows_its_cutoff_past_the_start(monkeypatch):
    # at q = 0.9, precision 20 the start K = slice_truncation(|b/a|) + n of
    # ms-5's tables misses the cutoff bound: the check grows its tables past
    # the start and the slices PASS
    from qrr import slices
    ctx = QContext.numeric("0.9", precision=20)
    start = slices.slice_truncation(mp.mpf("0.1") / mp.mpf("0.5"), ctx)
    built, real = [], slices._bilateral_ratio_array

    def table(a, b, K, k, ctx):
        built.append(K)
        return real(a, b, K, k, ctx)

    monkeypatch.setattr(slices, "_bilateral_ratio_array", table)
    report = run_check("ms-5", "numeric", RunSettings(precision=20, q_values=("0.9",)))
    assert report.status == "PASS", report.note
    assert built[0] == start and max(built) > start + 6


def test_ms15_theta_truncation_follows_precision_100():
    # the triple pole-sums used to stop at a fixed 32 digits (about 1e-78)
    report = run_check("ms-15", "numeric", RunSettings(precision=100, q_values=("0.3",)))
    assert report.status == "PASS", report.note
    assert mp.mpf(report.max_abs_deviation) < mp.mpf(10) ** -100


def test_ms12_at_precision_20_is_not_pass():
    # the tolerance is 10^-10; the literal reading misses by 0.19
    report = run_check("ms-12", "numeric", RunSettings(precision=20))
    assert report.status == "DISCREPANCY_DOCUMENTED", report.note
    assert report.note.endswith("literal residual 0.194"), report.note


@pytest.mark.parametrize("precision, status", [(20, "PASS"), (19, "SKIPPED")])
def test_driver_skips_a_vacuous_tolerance_at_the_boundary(precision, status):
    # tolerance exponent precision - 10: 10 is still checked, 9 is not run
    evaluated = []
    entry = _stub(numeric=Check(
        lambda ctx: evaluated.append(ctx.q) or (ctx.q, ctx.q)))
    out = run_entry(entry, "numeric", RunSettings(precision=precision))
    assert out.status == status
    assert bool(evaluated) == (status == "PASS")
    if status == "SKIPPED":
        assert out.note == ("vacuous tolerance: 10^-(precision - 10) = 10^-9 "
                            "is looser than 10^-10")


def test_driver_numeric_tolerance_follows_precision():
    rc = RunSettings(precision=25, q_values=("0.2", "0.3"))
    assert rc.tol() == mp.mpf(10) ** -15
    for residual, status in (("5e-16", "PASS"), ("2e-15", "FAIL")):
        entry = _stub(numeric=Check(
            lambda ctx, r: r, grid(r=("1e-30", residual))))
        out = run_entry(entry, "numeric", rc)
        assert out.status == status
        assert mp.nstr(out.deviation, 3) == mp.nstr(mp.mpf(residual), 3)
        assert out.params == {"q": ["0.2", "0.3"],
                              "r": "{1e-30, %s}" % residual}
    # a (lhs, rhs) pair is folded by scale-aware deviation
    entry = _stub(numeric=Check(lambda ctx: (ctx.q, ctx.q)))
    assert run_entry(entry, "numeric", rc).status == "PASS"


def test_driver_literal_readings():
    rc = RunSettings(precision=20, q_values=("0.2", "0.3"))
    calls = []

    def literal(ctx, r):
        calls.append(ctx.q)
        return r

    def entry(literal_residual, **reading):
        return _stub(numeric=Check(
            lambda ctx: mp.mpf(0), note=f"literal residual {LITERAL}",
            literal=Reading(literal, grid(r=(literal_residual,)),
                            **reading)))

    out = run_entry(entry("0.25"), "numeric", rc)
    assert out.status == "DISCREPANCY_DOCUMENTED"
    assert out.note == "literal residual 0.25"
    # the literal reading's points ran, so they are reported too
    assert out.params == {"q": ["0.2", "0.3"], "r": "0.25"}
    assert run_entry(entry("1e-40"), "numeric", rc).status == "PASS"
    # a literal reading that does not decide is only quoted in the note
    assert run_entry(entry("0.25", decides=False), "numeric", rc).status == "PASS"
    calls.clear()
    run_entry(entry("0.25", first_q_only=True), "numeric", rc)
    assert len(calls) == 1
    assert status(False, False) == "FAIL" and status(False) == "FAIL"
    assert status(True) == "PASS" and status(False, True) == "PASS"


def test_literal_note_reports_worst_q():
    # ms-5 quotes the worst literal deviation over q, whatever the q order
    out = run_check("ms-5", "numeric", RunSettings(q_values=("0.3", "0.2")))
    assert out.status == "PASS"
    assert out.note.endswith("deviates by 0.000971"), out.note


def test_driver_exact_fail_names_point():
    entry = _stub(exact=Check(lambda a, n: (n, n if n != 3 else -1),
                              grid(n=range(6)),
                              sampler=lambda rng: [{"a": F(1, 2)}]))
    out = run_entry(entry, "exact", RunSettings())
    assert out.status == "FAIL" and out.deviation is None
    assert out.params == {"a": "1/2", "n": "3"}
    ok = run_entry(_stub(exact=Check(lambda n: n == n, grid(n=range(3)))),
                   "exact", RunSettings())
    assert ok.status == "PASS" and ok.deviation == 0
    assert ok.params == {"n": "0..2"}


def test_driver_formal_reports_first_differing_coefficient():
    def diff(ctx, n):
        return FormalSeries(ctx.base_exponent, ctx.u_order,
                            [0] * 4 + [n] if n else [])

    entry = _stub(formal=Check(diff, grid(n=(0, 5, 7)), order=10, D=2))
    out = run_entry(entry, "formal", RunSettings())
    assert out.status == "FAIL" and out.first_diff == 4
    assert out.params == {"order": 10, "D": 2, "n": "5"}


def test_q_list_policies():
    rc = RunSettings(q_values=("0.2", "0.5"))
    assert _stub(fixed_q=("0.25",)).q_list(rc) == ["0.25"]
    assert _stub().q_list(rc) == ["0.2", "0.5"]
    assert get_entry("bessel-asymptotic").q_list(rc) == ["0.5"]


def test_sample_params_fixed_grid_entries():
    assert _first_sample("bessel-sv-4", 0) == {"nu": F(0), "n": 0}
    assert _first_sample("ms-16", 0) == {"a": QPow(1, F(1, 3)), "x": "0.6"}
    assert _first_sample("bessel-ml", 0) == {}
    with pytest.raises(UnsupportedModeError):
        run_check("ms-14", "formal", RunSettings())


def test_summarise_points():
    points = [{"n": n, "x": "0.7", "a": a} for a in (F(1, 2), F(3, 2))
              for n in (2, 0, 1)]
    assert summarise(points) == {"n": "0..2", "x": "0.7", "a": "{1/2, 3/2}"}
    # ints that are not one run, draws in draw order, powers of q
    assert summarise([{"n": 0}, {"n": 3}, {"n": 6}]) == {"n": "{0, 3, 6}"}
    assert summarise([{"b": v} for v in (F(5, 6), F(-1, 3), F(5, 6))]) \
        == {"b": "{5/6, -1/3}"}
    assert summarise([{"a": QPow(1, F(1, 3))}, {"a": QPow(-1, F(1, 3))},
                      {"a": QPow(1, 1)}, {"a": QPow(2, 2)},
                      {"a": QPow(1, 0)}]) \
        == {"a": "{q^(1/3), -q^(1/3), q, 2*q^2, 1}"}
    assert summarise([{"kind": 2}, {"kind": 1}, {"kind": 2}]) \
        == {"kind": "1..2"}
    assert summarise([{}]) == {}


def _points_spy(calls, mode):
    """A sides stand-in that records each point and passes."""
    def spy(*ctx, **point):
        calls.append(point)
        if mode == "numeric":
            return Verdict(mp.mpf(0), True)
        return True if mode == "exact" else FormalSeries.zero(ctx[0])
    return spy


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.id)
def test_reported_params_name_every_evaluated_key(entry):
    for mode in entry.modes:
        chk, calls = getattr(entry, mode), []
        spy = _points_spy(calls, mode)
        literal = chk.literal and replace(chk.literal, sides=spy)
        spied = replace(entry, **{mode: replace(
            chk, sides=spy, literal=literal)})
        params = run_entry(spied, mode, RunSettings()).params
        assert calls, (entry.id, mode)
        assert {k for point in calls for k in point} <= set(params), \
            (entry.id, mode, params)
        required = {"numeric": {"q"}, "formal": {"order", "D"}}
        assert required.get(mode, set()) <= set(params), (entry.id, mode)


def test_emit_report_propagates_io_errors():
    with pytest.raises(OSError):
        emit_report([], {}, fmt="json", path="/no/such/dir/report.json")


def test_run_defaults_are_spelled_once():
    from qrr.context import DEFAULT_ORDER, DEFAULT_PRECISION, QContext
    assert SuiteConfig().settings() == RunSettings() == RunSettings(
        DEFAULT_PRECISION, DEFAULT_ORDER, ("0.2", "0.3"), 20240809)
    assert QContext.numeric("0.3").precision == RunSettings().precision
    assert QContext.formal().order == RunSettings().order
    assert SuiteConfig().q is not SuiteConfig().q


def test_planned_checks_filters_modes():
    cfg = SuiteConfig.from_dict({"ids": ["RR1", "st-5.7"], "modes": ["formal"]})
    assert planned_checks(cfg) == [("RR1", "formal"), ("st-5.7", "formal")]


def test_empty_selection_is_a_config_error(capsys):
    # ms-14 has no formal check, so this selection plans none: not a pass
    cfg = SuiteConfig.from_dict({"ids": ["ms-14"], "modes": ["formal"]})
    with pytest.raises(ConfigError, match="ms-14.*formal"):
        run_suite(cfg)
    assert main(["suite", "--ids", "ms-14", "--mode", "formal"]) == 2
    assert "no check" in capsys.readouterr().err


def test_worker_count_is_capped_at_the_plan(monkeypatch):
    import concurrent.futures
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    # run_suite imports the pool only where it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    for jobs in (64, 2):
        cfg = SuiteConfig.from_dict({"ids": FAST_IDS, "modes": ["exact"], "jobs": jobs})
        reports, summary, code = run_suite(cfg)
        assert code == 0 and summary == {"total": 4, "PASS": 4}
    assert started == [4, 2]


def test_failing_check_fails_suite(monkeypatch):
    from qrr.harness import runner
    stub = _stub(numeric=Check(lambda ctx: (ctx.q, 2 * ctx.q)))
    monkeypatch.setattr(runner, "get_entry", lambda entry_id: stub)
    monkeypatch.setattr(runner, "list_identities", lambda: [stub])
    reports, summary, code = run_suite(SuiteConfig())
    assert [r.status for r in reports] == ["FAIL"]
    assert summary == {"total": 1, "FAIL": 1} and code == 1


def test_suite_parallel_matches_sequential():
    seq = SuiteConfig.from_dict({"ids": FAST_IDS})
    par = SuiteConfig.from_dict({"ids": FAST_IDS, "jobs": 2})
    rs, *_ = run_suite(seq)
    rp, *_ = run_suite(par)
    strip = lambda r: (r.id, r.mode, r.status, r.max_abs_deviation, r.params)
    assert [strip(r) for r in rs] == [strip(r) for r in rp]


def _normalized_json(cfg):
    reports, _, _ = run_suite(cfg)
    text = emit_report(reports, run_info(cfg, timestamp="T"), fmt="json")
    return re.sub(r'"wall_time_ms": [0-9.]+', '"wall_time_ms": 0', text)


def test_json_determinism_modulo_timing():
    cfg = SuiteConfig.from_dict({"ids": FAST_IDS, "seed": 99})
    assert _normalized_json(cfg) == _normalized_json(cfg)


def test_seed_changes_sampled_parameters():
    a = run_check("ms-1", "exact", RunSettings(seed=1))
    b = run_check("ms-1", "exact", RunSettings(seed=2))
    assert a.params != b.params
    assert a.status == b.status == "PASS"


def test_report_round_trip():
    cfg = SuiteConfig.from_dict({"ids": FAST_IDS})
    reports, _, _ = run_suite(cfg)
    info = run_info(cfg, timestamp="T0")
    text = emit_report(reports, info, fmt="json")
    payload = json.loads(text)
    assert payload["run"] == info
    assert [IdentityReport(**r) for r in payload["results"]] == reports


def test_empty_report_is_valid_json():
    text = emit_report([], {"q": ["0.3"]}, fmt="json")
    payload = json.loads(text)
    assert payload["results"] == [] and payload["run"]["q"] == ["0.3"]


def test_text_table_shape():
    cfg = SuiteConfig.from_dict({"ids": ["st-5.7"]})
    reports, _, _ = run_suite(cfg)
    text = emit_report(reports, run_info(cfg), fmt="text")
    assert "status" in text.splitlines()[1]
    assert any("st-5.7" in line for line in text.splitlines())


def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"nope": 1})
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"modes": ["sideways"]})
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"ids": 17})
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"precision": -3})
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"q": []})
    # an empty id or mode list would plan no check and pass vacuously
    for data in ({"ids": []}, {"modes": []}, {"ids": [["RR1"]]}, {"modes": 5},
                 {"modes": [["numeric"]]}):
        with pytest.raises(ConfigError):
            SuiteConfig.from_dict(data)


@pytest.mark.parametrize("data", [
    {"q": "abc"}, {"q": "1.5"}, {"q": "0"}, {"q": True}, {"q": ["0.2", "1"]},
    {"precision": True}, {"order": False}, {"jobs": True},
    {"tolerance_exponent": 30}, {"q": "0.8+0.8j"}, {"q": "1j"}, {"q": "0j"},
    {"q": "2/3j"}])
def test_config_rejects_q_outside_the_unit_disk_and_bools(data):
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict(data)


def test_config_accepts_real_q_inside_the_unit_disk():
    assert SuiteConfig.from_dict({"q": "-0.3"}).q == ["-0.3"]
    assert SuiteConfig.from_dict({"q": ["0.7", 0.2]}).q == ["0.7", 0.2]
    # 1 - 10^-17 is inside the disk, though a double rounds it to 1
    assert SuiteConfig.from_dict({"q": "0.99999999999999999"}).q == ["0.99999999999999999"]


def test_config_accepts_complex_q_inside_the_unit_disk():
    qs = ["0.2+0.1j", "0.5j", "-0.4+0.6j", complex(0.2, 0.1)]
    assert SuiteConfig.from_dict({"q": qs}).q == qs


def test_complex_q_runs_through_config_and_suite():
    # the complex sample the default suite does not run: every check PASSes
    cfg = SuiteConfig.from_dict({"ids": ["RR1", "RR2", "heine", "psi11"],
                                 "modes": ["numeric"], "q": "0.2+0.1j",
                                 "precision": 50})
    reports, summary, code = run_suite(cfg)
    assert [r.status for r in reports] == ["PASS"] * 4 and code == 0
    assert all(r.params["q"] == "['0.2+0.1j']" for r in reports)


@pytest.mark.parametrize("q", ["abc", "1.5", "0.8+0.8j"])
def test_cli_rejects_a_bad_q(q, capsys):
    assert main(["suite", "--ids", "RR1", "--q", q]) == 2
    assert "0 < |q| < 1" in capsys.readouterr().err


def test_cli_complex_q_that_starts_with_a_minus(capsys):
    # as --help says: argparse reads "-0.4+0.6j" after a space as an option
    assert main(["suite", "--ids", "RR1", "--mode", "numeric",
                 "--q=-0.4+0.6j"]) == 0
    assert "-0.4+0.6j" in capsys.readouterr().out
    assert main(["suite", "--ids", "RR1", "--q", "-0.4+0.6j"]) == 2


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "RR1" in out and len(out.splitlines()) >= 30


def test_cli_check_pass_and_usage(capsys):
    assert main(["check", "st-5.7", "--mode", "exact"]) == 0
    assert main(["check", "no-such-id"]) == 2
    assert main(["check", "ms-14", "--mode", "formal"]) == 2


def test_cli_suite_json_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["suite", "--ids", "st-5.7", "sw-symmetry", "--format",
                 "json", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())["results"]
    assert {r["id"] for r in reports} == {"st-5.7", "sw-symmetry"}
    assert all(r["status"] == "PASS" for r in reports)


def test_cli_suite_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ids": ["finite-qbinom"],
                                    "modes": ["exact"], "seed": 5}))
    assert main(["suite", "--config", str(cfg_path)]) == 0
    cfg_path.write_text(json.dumps({"bogus": True}))
    assert main(["suite", "--config", str(cfg_path)]) == 2
    cfg_path.write_text(json.dumps({"tolerance_exponent": 30}))
    assert main(["suite", "--config", str(cfg_path)]) == 2


def test_cli_flags_overlay_the_config_file(tmp_path, monkeypatch):
    from qrr import cli
    seen = []
    monkeypatch.setattr(cli, "run_suite",
                        lambda cfg: seen.append(cfg) or ([], {"total": 0}, 0))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"jobs": 2, "precision": 30}))
    assert main(["suite", "--config", str(cfg_path)]) == 0
    assert main(["suite", "--config", str(cfg_path), "--precision", "40"]) == 0
    assert seen == [SuiteConfig(jobs=2, precision=30),
                    SuiteConfig(jobs=2, precision=40)]


def test_cli_bad_usage_exit_code():
    assert main(["not-a-command"]) == 2


def test_cli_subprocess_end_to_end(tmp_path):
    import subprocess
    import sys

    base = [sys.executable, "-m", "qrr.cli"]
    out = subprocess.run(base + ["list"], capture_output=True, text=True)
    assert out.returncode == 0 and "RR1" in out.stdout

    rep = tmp_path / "r.json"
    out = subprocess.run(
        base + ["suite", "--ids", "st-5.7", "--format", "json",
                "--out", str(rep), "--jobs", "2"],
        capture_output=True, text=True)
    assert out.returncode == 0
    reports = json.loads(rep.read_text())["results"]
    assert all(r["status"] == "PASS" for r in reports)

    out = subprocess.run(base + ["check", "unknown-thing"],
                         capture_output=True, text=True)
    assert out.returncode == 2 and "error" in out.stderr


def test_ms5_literal_reading_reuses_the_checked_slice(monkeypatch):
    """The literal reading of ms-5 reads the n = 3 slice that the check
    summed (a kept value): one cutoff check per slice n = 0, 3, 6 and q."""
    cuts, real = [], slices._cut

    def spy(*args, **kwargs):
        cuts.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(slices, "_cut", spy)
    report = run_check("ms-5", "numeric", RunSettings())
    assert report.status == "PASS" and "deviates by" in report.note
    assert sorted(cuts) == [[0], [0], [3], [3], [6], [6]]
