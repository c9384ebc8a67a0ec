"""Registry coverage, runner behavior, reports, and the CLI."""

import json
import re
from dataclasses import replace
from fractions import Fraction as F

import mpmath as mp
import pytest

from qrr import ConfigError, UnknownIdentityError, UnsupportedModeError
from qrr.cli import main
from qrr.harness import (CENSUS, ENTRIES, RunSettings, SuiteConfig,
                         emit_report, get_entry, list_identities,
                         parse_report, planned_checks, run_check, run_info,
                         run_suite, sample_params)
from qrr.formal import FormalSeries
from qrr.harness.driver import (COMPLEX_Q, LITERAL, Check, IdentityEntry,
                                Reading, Verdict, _as_mp, grid, run_entry,
                                status, summarise)
from qrr.pochhammer import QPow
from qrr.harness.sampling import annulus_pair, entry_rng, rational_in

FAST_IDS = ["st-5.7", "sw-symmetry", "finite-qbinom", "schur-cd"]


def test_registry_size_and_ordering():
    entries = list_identities()
    assert len(entries) >= 30
    assert [e.id for e in entries] == sorted(e.id for e in entries)
    assert get_entry("RR1").statement.startswith("sum q^{n^2}")
    assert any(e.id == "ms-17" for e in entries)


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


@pytest.mark.parametrize("precision", [20, 50])
@pytest.mark.parametrize("q", ["0.1", "0.05"])
def test_m_shifted_resolutions_hold_at_small_q(q, precision):
    # q^(-m(m-1)/2) times a difference that cancels m(m-1)/2 log10(1/q)
    # digits: 28 at m = 8 and q = 0.1, more than the guard digits
    for entry_id in ("mform", "um-mform"):
        report = run_check(entry_id, "numeric",
                           RunSettings(precision=precision, q_values=(q,)))
        assert report.status in ("PASS", "DISCREPANCY_DOCUMENTED"), \
            (entry_id, report.max_abs_deviation, report.note)


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


def test_sample_params_annulus_and_determinism():
    draw = sample_params("psi11", 42)
    assert draw == sample_params("psi11", 42)
    assert draw["b"] / draw["a"] + F(1, 20) <= draw["z"] <= F(19, 20)
    assert sample_params("psi11", 43) != draw


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
                sample = sample_params(entry.id, seed, mode)
                first, prec = _first_point(entry, mode, seed)
                with mp.workprec(prec):
                    expected = _as_mp(sample) if mode == "numeric" else sample
                assert first == expected, (entry.id, mode, seed)
    assert sample_params("um-mform", 3) == {"a": "0.5", "m": 0}
    assert sample_params("GFhn0", 3) == sample_params("GFhn0", 3, "formal")


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
# on bilateral sums below their own tail bounds: both are SKIPPED now, with a
# NonConvergenceError note.  ``expected`` is a status, optionally followed by
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
    ("psi11", {"precision": 20, "q_values": ("0.99",)},
     "SKIPPED: NonConvergenceError: sum not certified")])
def test_config_probe_fixes(entry_id, settings, expected):
    report = run_check(entry_id, "numeric", RunSettings(**settings))
    status, _, note = expected.partition(": ")
    assert report.status == status, report.note
    assert report.note.startswith(note), report.note


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
    assert _stub(complex_ok=True).q_list(rc) == ["0.2", "0.5", COMPLEX_Q]
    assert _stub(fixed_q=("0.7",),
                 complex_ok=True).q_list(rc) == ["0.7", COMPLEX_Q]
    assert get_entry("bessel-asymptotic").q_list(rc) == ["0.5"]


def test_sample_params_fixed_grid_entries():
    assert sample_params("bessel-sv-4", 0) == {"nu": F(0), "n": 0}
    assert sample_params("ms-16", 0) == {"a": QPow(1, F(1, 3)), "x": "0.6"}
    assert sample_params("bessel-ml", 0) == {}
    with pytest.raises(UnsupportedModeError):
        sample_params("ms-14", 0, "formal")


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


def test_planned_checks_filters_modes():
    cfg = SuiteConfig.from_dict({"ids": ["RR1", "st-5.7"], "modes": ["formal"]})
    assert planned_checks(cfg) == [("RR1", "formal"), ("st-5.7", "formal")]


def test_empty_selection_exits_zero():
    reports, summary, code = run_suite(SuiteConfig.from_dict({"ids": []}))
    assert reports == [] and code == 0 and summary["total"] == 0


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
    info2, reports2 = parse_report(text)
    assert info2 == info
    assert reports2 == reports


def test_empty_report_is_valid_json():
    text = emit_report([], {"q": ["0.3"]}, fmt="json")
    info, reports = parse_report(text)
    assert reports == [] and info["q"] == ["0.3"]


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


@pytest.mark.parametrize("data", [
    {"q": "abc"}, {"q": "1.5"}, {"q": "0"}, {"q": True}, {"q": ["0.2", "1"]},
    {"precision": True}, {"order": False}, {"jobs": True},
    {"tolerance_exponent": 30}])
def test_config_rejects_q_outside_the_unit_disk_and_bools(data):
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict(data)


def test_config_accepts_real_q_inside_the_unit_disk():
    assert SuiteConfig.from_dict({"q": "-0.3"}).q == ["-0.3"]
    assert SuiteConfig.from_dict({"q": ["0.7", 0.2]}).q == ["0.7", 0.2]


@pytest.mark.parametrize("q", ["abc", "1.5"])
def test_cli_rejects_a_bad_q(q, capsys):
    assert main(["suite", "--ids", "RR1", "--q", q]) == 2
    assert "0 < |q| < 1" in capsys.readouterr().err


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
    info, reports = parse_report(out.read_text())
    assert {r.id for r in reports} == {"st-5.7", "sw-symmetry"}
    assert all(r.status == "PASS" for r in reports)


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
    _, reports = parse_report(rep.read_text())
    assert all(r.status == "PASS" for r in reports)

    out = subprocess.run(base + ["check", "unknown-thing"],
                         capture_output=True, text=True)
    assert out.returncode == 2 and "error" in out.stderr
