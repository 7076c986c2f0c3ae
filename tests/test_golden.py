"""The CLI's figure CSVs and the library's traces pinned as files under
``tests/golden``.

Each ``GOLDEN`` file was written by ``proxpoint.cli`` with one OpenBLAS
thread; each test reruns its configuration in-process and compares every
field. Each ``trace.*.csv`` file pins engine paths that no CLI run takes
(restarts of the plain and Guler variants, every subproblem kind of the
splitting engines, Douglas-Rachford): ``write_traces`` wrote it once
through ``cli._run_method``, in the CLI's schema, and a test of its own
reruns each of its ``TRACES`` cases the same way. A change that moves a
CSV on purpose updates its golden file in the same diff (for a trace,
``PYTHONPATH=src:tests python -c "import test_golden;
test_golden.write_traces('tests/golden')"``), so the change can be
reviewed as data.

Bytes cannot gate: another BLAS build or thread count sums in another
order and moves the last digits. Numbers are therefore compared to a
relative tolerance of ``RTOL = 1e-9``. Every run here is a nonexpansive
iteration of at most a few hundred steps, so rounding differences of a
few ulps per operation stay many orders below it, while a change of
method, rate, restart rule or reference moves values far beyond it.
Residual, infeasibility and gap values are differences of iterates, so
their rounding scales with the iterates rather than with the value: each
of these columns also allows an absolute ``FLOOR = 1e-15`` times its
largest magnitude for the same method (the late, tiny residuals), a few
ulps of that magnitude. Header numbers get the same floor times
``max(1, R)``. Integers, labels and restart lists must match exactly.
Whether the bytes match is reported (a warning and the
``bytes_identical`` property), not asserted.

The certificate CSV has its own rule. ``N`` and ``dual_value`` (``1/N^2``)
must match exactly. ``deviation`` and ``min_eig`` are rounding-level
numbers, zero in exact arithmetic, so a relative tolerance means nothing
for them: they are compared to the absolute ``CERT_ATOL = 1e-13``. That is
above ``N * eps`` for ``N <= 60`` and below the certificate's own gates
(1e-12 on the deviation, 1e-10 on the eigenvalue), so a certificate that
moved toward failing is caught before it fails.
"""

import functools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from proxpoint import (AffineConstraint, ProxDescriptor, QuadraticSaddle, SplitMix64, cli,
                       iterate, linear_resolvent, operator_norm, splitting as sp)
from conftest import random_monotone_operator

GOLDEN_DIR = Path(__file__).parent / "golden"
RTOL = 1e-9
FLOOR = 1e-15
# The relative size of a planted move of one value.
MOVE = 1e-7
CERT_ATOL = 1e-13

# golden file -> CLI arguments. At the preset's 100 iterations no adaptive
# restart fires on fig5-desk, so that run takes 200 (restarts 170, 178, 199).
GOLDEN = {
    "fig1.csv": ["--experiment", "fig1"],
    "fig2.csv": ["--experiment", "fig2"],
    "fig3-desk.csv": ["--experiment", "fig3-desk"],
    "fig4-desk.csv": ["--experiment", "fig4-desk"],
    "fig5-desk.csv": ["--experiment", "fig5-desk"],
    "cert-nmax60.csv": ["--experiment", "cert", "--nmax", "60"],
    "fig2.restarted-adaptive.csv": ["--experiment", "fig2", "--method", "restarted",
                                    "--restart", "adaptive"],
    "fig5-desk.restarted-adaptive.csv": ["--experiment", "fig5-desk", "--method",
                                         "restarted", "--restart", "adaptive",
                                         "--iters", "200"],
    # The Guler variants and a fixed restart interval on every figure that
    # defines them (fig5 has no Guler variant), and adaptive restarts on
    # fig1 and the fig3/fig4 desks. At fig3-desk's preset 60 iterations no
    # adaptive restart fires; at 200 the first fires at 180.
    **{f"{p}.guler-restarted-7.csv": ["--experiment", p, "--method", "guler1", "--method",
                                      "guler2", "--method", "restarted", "--restart", "7"]
       for p in ("fig1", "fig2", "fig3-desk", "fig4-desk")},
    "fig5-desk.restarted-7.csv": ["--experiment", "fig5-desk", "--method", "restarted",
                                  "--restart", "7"],
    "fig1.restarted-adaptive.csv": ["--experiment", "fig1", "--method", "restarted",
                                    "--restart", "adaptive"],
    "fig4-desk.restarted-adaptive.csv": ["--experiment", "fig4-desk", "--method",
                                         "restarted", "--restart", "adaptive"],
    "fig3-desk.restarted-adaptive.csv": ["--experiment", "fig3-desk", "--method",
                                         "restarted", "--restart", "adaptive",
                                         "--iters", "200"],
}


# Library traces: paths no CLI run takes, each written through cli._run_method
# in the CLI's CSV schema. A case is _run_method's arguments, (experiment,
# engine, start, iters, R, label, variant, restart), with the problem bound
# into the engine by functools.partial as the figure runners bind theirs.
# Labels are unique within a file, so each has its own restarts line and
# residual floor. Linear monotone operators have the origin as a zero, so
# R = ||x0|| bounds the distance to a fixed point (of drs too).
SUBPROBLEM_KINDS = ("quadratic", "linear", "zero", "l1")
# The variants the CLI never restarts, under both restart rules.
RESTARTED_VARIANTS = [(v, r) for v in ("plain", "guler1", "guler2") for r in (7, "adaptive")]


def random_prox(kind, dim, rng):
    if kind == "quadratic":
        return ProxDescriptor.quadratic(rng.normal_matrix(dim + 1, dim),
                                        rng.normals(dim + 1))
    if kind == "linear":
        return ProxDescriptor.linear(rng.normals(dim))
    if kind == "zero":
        return ProxDescriptor.zero(dim)
    return ProxDescriptor.l1(dim, 0.7)


def _iterate_cases():
    """Restarts of the variants the CLI never restarts, on iterate, the
    saddle engine (with its gap column) and pdhg (preconditioned residual);
    and an interval past the last iteration, which keeps the bound column."""
    rng = SplitMix64(27)
    for d in (2, 5):
        engine = functools.partial(
            iterate, linear_resolvent(random_monotone_operator(rng, d, mu=0.05), 0.8))
        x0 = rng.normals(d)
        radius = float(np.linalg.norm(x0))
        for variant, restart in RESTARTED_VARIANTS:
            yield ("iterate", engine, (x0,), 50, radius, f"d{d}-{variant}-{restart}",
                   variant, restart)
        yield "iterate", engine, (x0,), 50, radius, f"d{d}-proposed-50", "proposed", 50
    b1, b2 = rng.normal_matrix(2, 2), rng.normal_matrix(3, 3)
    phi = QuadraticSaddle(b1 @ b1.T / 2, rng.normal_matrix(3, 2), b2 @ b2.T / 3,
                          a=rng.normals(2), b=rng.normals(3))
    linear, shift = phi.stacked_operator()
    f = ProxDescriptor.quadratic(rng.normal_matrix(4, 2), rng.normals(4))
    g = ProxDescriptor.quadratic(rng.normal_matrix(3, 3))
    tau = 0.7 / operator_norm(phi.k)
    start = rng.normals(2), rng.normals(3)
    engines = {
        "saddle": functools.partial(sp.accelerated_saddle_ppm, phi, 0.9, saddle=np.split(
            np.linalg.solve(linear, -shift), [2])),
        "pdhg": functools.partial(sp.pdhg, f, g, phi.k, tau, tau),
    }
    for name, engine in engines.items():
        for variant, restart in RESTARTED_VARIANTS:
            yield (name, engine, start, 50, None, f"{name}-{variant}-{restart}",
                   variant, restart)


def _admm_cases():
    """Every f and g kind of ADMM's subproblem rule, alternately plain and
    accelerated; an l1 g takes B = I on accelerated runs, B = -I on plain."""
    d1, d2 = 4, 6
    for i, f_kind in enumerate(SUBPROBLEM_KINDS):
        for j, g_kind in enumerate(SUBPROBLEM_KINDS):
            rng = SplitMix64(100 + 4 * i + j)
            variant = ("plain", "proposed")[(i + j) % 2]
            b_mat = ((1.0 if variant == "proposed" else -1.0) * np.eye(d2) if g_kind == "l1"
                     else rng.normal_matrix(d2, d2))
            cons = AffineConstraint(rng.normal_matrix(d2, d1), b_mat, rng.normals(d2))
            f, g = random_prox(f_kind, d1, rng), random_prox(g_kind, d2, rng)
            start = rng.normals(d1), rng.normals(d2), rng.normals(d2)
            yield ("admm", functools.partial(sp.admm, f, g, cons, 0.7), start, 30, None,
                   f"{f_kind}-{g_kind}", variant, None)


def _prox_multipliers_cases():
    """The u-update of the proximal method of multipliers for every f kind."""
    d1, d2 = 8, 3
    for i, kind in enumerate(SUBPROBLEM_KINDS):
        rng = SplitMix64(1 + i)
        a_mat, b = rng.normal_matrix(d2, d1), rng.normals(d2)
        engine = functools.partial(sp.accelerated_prox_multipliers,
                                   random_prox(kind, d1, rng), a_mat, b, 0.6)
        start = rng.normals(d1), rng.normals(d2)
        yield "prox-multipliers", engine, start, 30, None, kind, "proposed", 12


def _drs_cases():
    """The Douglas-Rachford step under every variant and restart rule."""
    rng = SplitMix64(31)
    for d in (2, 5, 40):
        j1 = linear_resolvent(random_monotone_operator(rng, d), 0.8)
        j2 = linear_resolvent(random_monotone_operator(rng, d), 0.8)
        nu0 = rng.normals(d)
        engine = functools.partial(sp.drs, j1, j2, 0.8)
        for variant, restart in (("plain", None), ("proposed", None), ("guler1", None),
                                 ("guler2", None), ("proposed", 7), ("proposed", "adaptive")):
            yield ("drs", engine, (nu0,), 30, float(np.linalg.norm(nu0)),
                   f"d{d}-{variant}" + ("" if restart is None else f"-{restart}"),
                   variant, restart)


# trace file -> its cases.
TRACES = {
    "trace.iterate.csv": _iterate_cases,
    "trace.admm.csv": _admm_cases,
    "trace.prox-multipliers.csv": _prox_multipliers_cases,
    "trace.drs.csv": _drs_cases,
}


# Every trace case with its file, one test id each, so a failure names the case.
TRACE_CASES = [pytest.param(name, case, id=f"{name}-{case[5]}")
               for name in sorted(TRACES) for case in TRACES[name]()]


def _layout(results):
    """Restart lines, header, rows, as the CLI lays out a figure, from
    ``_run_method``'s ``(restarts, rows)`` pairs."""
    lines = [restarts for restarts, _ in results if restarts]
    lines.append("experiment,method,iteration,residual,bound,infeasibility,gap")
    for _, rows in results:
        lines += rows
    return "\n".join(lines) + "\n"


def golden_case(name, label):
    """``label``'s restarts line and rows in a trace file, as ``_run_method``
    returns them."""
    lines = (GOLDEN_DIR / name).read_text().splitlines()
    restarts = next((ln for ln in lines if ln.startswith(f"# restarts[{label}]=")), None)
    rows = [ln for ln in lines if not ln.startswith("#") and ln.split(",")[1] == label]
    return restarts, rows


def write_traces(directory):
    """Write every trace file into ``directory``: run once, and again only to
    move a trace on purpose."""
    for name in TRACES:
        results = [cli._run_method(*case) for case in TRACES[name]()]
        (Path(directory) / name).write_text(_layout(results))


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _close(got, want, floor):
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return got == want
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=floor)


def _split(text):
    lines = text.splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    table = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return meta, table[0], table[1:]


def assert_csv_matches(got_text, want_text):
    got_meta, got_cols, got_rows = _split(got_text)
    want_meta, want_cols, want_rows = _split(want_text)
    assert got_cols == want_cols
    radius = next((float(tok[2:]) for ln in want_meta for tok in ln.split()
                   if tok.startswith("R=")), 1.0)
    assert len(got_meta) == len(want_meta)
    for got, want in zip(got_meta, want_meta):
        got_tokens, want_tokens = got.split(), want.split()
        assert len(got_tokens) == len(want_tokens), (got, want)
        for g, w in zip(got_tokens, want_tokens):
            g_key, _, g_val = g.partition("=")
            w_key, _, w_val = w.partition("=")
            assert g_key == w_key and _close(g_val, w_val, FLOOR * max(1.0, radius)), (g, w)

    assert [r[:3] for r in got_rows] == [r[:3] for r in want_rows]
    scale = {}
    for row in want_rows:
        for j, text in enumerate(row[3:], 3):
            value = _number(text)
            if value is not None:
                key = (row[1], j)
                scale[key] = max(scale.get(key, 0.0), abs(value))
    for got, want in zip(got_rows, want_rows):
        for j in range(3, len(want_cols)):
            floor = FLOOR * scale.get((want[1], j), 0.0)
            assert _close(got[j], want[j], floor), (want_cols[j], want[:3], got[j], want[j])


def assert_cert_matches(got_text, want_text):
    got, want = got_text.splitlines(), want_text.splitlines()
    assert got[:2] == want[:2] and len(got) == len(want)
    for got_row, want_row in zip(got[2:], want[2:]):
        n, deviation, min_eig, dual_value = got_row.split(",")
        want_n, want_deviation, want_min_eig, want_dual_value = want_row.split(",")
        assert (n, dual_value) == (want_n, want_dual_value), (got_row, want_row)
        for g, w in ((deviation, want_deviation), (min_eig, want_min_eig)):
            assert abs(float(g) - float(w)) <= CERT_ATOL, (got_row, want_row)


def _check(name, got_text, want_text, compare, record_property):
    compare(got_text, want_text)
    identical = got_text == want_text
    record_property("bytes_identical", identical)
    if not identical:
        warnings.warn(f"{name}: every value is within tolerance of its golden "
                      "copy, but the bytes differ", stacklevel=2)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_reproduces_the_golden_csv(name, tmp_path, record_property):
    out = tmp_path / name
    assert cli.main(GOLDEN[name] + ["--out", str(out)]) == 0
    compare = assert_cert_matches if name.startswith("cert") else assert_csv_matches
    _check(name, out.read_text(), (GOLDEN_DIR / name).read_text(), compare, record_property)


@pytest.mark.parametrize("name,case", TRACE_CASES)
def test_library_reproduces_the_trace(name, case, record_property):
    label = case[5]
    _check(f"{name}[{label}]", _layout([cli._run_method(*case)]),
           _layout([golden_case(name, label)]), assert_csv_matches, record_property)


@pytest.mark.parametrize("name", sorted(TRACES))
def test_a_trace_file_is_its_cases_and_nothing_else(name):
    assert (_layout([golden_case(name, case[5]) for case in TRACES[name]()])
            == (GOLDEN_DIR / name).read_text())


# A fixed interval k restarts after steps k, 2k, ... below the last step, on
# every engine: the schedule is the rule's, not only the trace file's.
@pytest.mark.parametrize("name,case", [p for p in TRACE_CASES
                                       if isinstance(p.values[1][7], int)])
def test_a_fixed_interval_restarts_at_its_multiples(name, case):
    _, engine, start, iters, radius, _, variant, interval = case
    trace = engine(*start, iters, variant, interval, radius)
    assert list(trace.restarts) == list(range(interval, iters, interval))


def test_every_golden_file_has_an_entry_and_every_entry_a_file():
    assert {p.name for p in GOLDEN_DIR.iterdir()} == set(GOLDEN) | set(TRACES)


@pytest.mark.parametrize("name", sorted(
    [n for n in GOLDEN if "restarted" in GOLDEN[n]]
    + [n for n in TRACES if any(case[-1] is not None for case in TRACES[n]())]))
def test_restarted_golden_files_record_restarts(name):
    lines = (GOLDEN_DIR / name).read_text().splitlines()
    assert any(ln.startswith("# restarts[") for ln in lines)


def _last_rows():
    """The last row of each method of a figure or trace CSV whose last
    residual is above ``FLOOR / MOVE`` of its largest, so that a move of
    ``MOVE`` relative exceeds the floor. The other methods end too close
    to zero for the floor to gate their last rows."""
    cases = []
    for name in sorted(set(GOLDEN) | set(TRACES)):
        if name.startswith("cert"):
            continue
        _, _, rows = _split((GOLDEN_DIR / name).read_text())
        last, largest = {}, {}
        for row, fields in enumerate(rows, 1):
            value = float(fields[3])
            last[fields[1]] = row, value
            largest[fields[1]] = max(largest.get(fields[1], 0.0), abs(value))
        cases += [pytest.param(name, row, id=f"{name}-{label}-last")
                  for label, (row, value) in last.items()
                  if MOVE * value > FLOOR * largest[label]]
    return cases


# A row whose residual is well above its method's floor: fig2's row 50, the
# first row of the trace (the largest residual of a plain run), and the last
# row of every method that ends above the floor.
@pytest.mark.parametrize("name,row", [("fig2.restarted-adaptive.csv", 50),
                                      ("trace.iterate.csv", 1)] + _last_rows())
def test_a_moved_value_fails_the_comparison(name, row):
    text = (GOLDEN_DIR / name).read_text()
    with pytest.raises(AssertionError):
        assert_csv_matches(_moved_value(text, row), text)


@pytest.mark.parametrize("name", ["fig2.restarted-adaptive.csv", "trace.iterate.csv"])
def test_a_shifted_restart_fails_the_comparison(name):
    text = (GOLDEN_DIR / name).read_text()
    with pytest.raises(AssertionError):
        assert_csv_matches(_shifted_restart(text), text)


def _moved_value(text, row):
    lines = text.splitlines()
    at = row + next(i for i, ln in enumerate(lines) if ln.startswith("experiment,"))
    fields = lines[at].split(",")
    fields[3] = repr(float(fields[3]) * (1.0 + MOVE))
    return "\n".join(lines[:at] + [",".join(fields)] + lines[at + 1:])


def _shifted_restart(text):
    lines = text.splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("# restarts"))
    key, _, steps = lines[at].partition("=")
    first, _, rest = steps.partition(",")
    return "\n".join(lines[:at] + [f"{key}={int(first) + 1},{rest}"] + lines[at + 1:])


# Each trace case pins its values and its restarts: the comparison fails when
# its largest residual moves by MOVE relative, when its first restart comes a
# step later, and when a case without restarts records one.
@pytest.mark.parametrize("move", ["value", "restart"])
@pytest.mark.parametrize("name,case", TRACE_CASES)
def test_a_moved_trace_case_fails_the_comparison(name, case, move):
    restarts, rows = golden_case(name, case[5])
    text = _layout([(restarts, rows)])
    largest = max(range(len(rows)), key=lambda i: float(rows[i].split(",")[3]))
    moved = (_moved_value(text, 1 + largest) if move == "value"
             else _shifted_restart(text) if restarts else f"# restarts[{case[5]}]=1\n" + text)
    with pytest.raises(AssertionError):
        assert_csv_matches(moved, text)


def test_a_moved_certificate_value_fails_the_comparison():
    text = (GOLDEN_DIR / "cert-nmax60.csv").read_text()
    lines = text.splitlines()
    n, deviation, min_eig, dual_value = lines[20].split(",")
    for moved in ([n, deviation, repr(float(min_eig) - 2 * CERT_ATOL), dual_value],
                  [n, repr(float(deviation) + 2 * CERT_ATOL), min_eig, dual_value],
                  [n, deviation, min_eig, repr(float(dual_value) * (1.0 + 1e-15))]):
        with pytest.raises(AssertionError):
            assert_cert_matches("\n".join(lines[:20] + [",".join(moved)] + lines[21:]), text)
