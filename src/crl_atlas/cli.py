"""Command-line front end: every operation, three output formats.

Usage sketches:
    crl-atlas tables 1 --max-r 7
    crl-atlas degree --partition 3,2
    crl-atlas dual-degree --partition 5,4,3,2
    crl-atlas polar-degree --partition 4,3,2,2 --j 1
    crl-atlas pullback --partition 3,2 --j 1
    crl-atlas rank --degree 5 --coeffs "1,0,0,0,1,0" --field real
    crl-atlas --seed 0 histogram --d 4 --samples 500
    crl-atlas boundary candidates --d 7 --r 5 --mode theorem
    crl-atlas boundary membership --mu 3,2 --coeffs "1,0,0,0,1,0"
    crl-atlas boundary cross --d 5 --from "..." --to "..." --steps 200
    crl-atlas selfcheck

Global options (seed, budgets, tolerances, format, threads) go before
the subcommand, and only there.  Every artifact echoes the full run
configuration.  Exit codes: 0 success, 1 check failure, 2 usage error,
3 inconclusive-verdict-only results.  All randomness is seeded (default
0); outputs carry no wall-clock entropy, so identical invocations produce
identical bytes.
"""
from __future__ import annotations

import csv
import io
import json
import os
from fractions import Fraction

import click

from .boundary import candidate_components, crossing_scan, dual_membership
from .config import RunConfig
from .crl import (
    CONJECTURAL_STATUS,
    crl_degree,
    dual_degree,
    polar_degree,
    pullback_decomposition,
    regenerate_table1,
)
from .partitions import Partition, count_table, format_partition, parse_partition
from .poly_core import BinaryForm, format_rational, parse_rational
from .rank import SearchBudget, complex_rank, rank_histogram, real_rank
from .selfcheck import run_selfcheck

__all__ = ["main"]

EXIT_CHECK_FAILURE = 1
EXIT_INCONCLUSIVE = 3


def _resolve_threads(flag: int | None) -> int:
    env = os.environ.get("CRL_ATLAS_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise click.UsageError(
                f"CRL_ATLAS_THREADS must be an integer, got {env!r}"
            )
        if value < 1:
            raise click.UsageError("CRL_ATLAS_THREADS must be at least 1")
        return value
    if flag is not None:
        if flag < 1:
            raise click.UsageError("--threads must be at least 1")
        return flag
    return os.cpu_count() or 1


def _parse_form(coeffs: str, degree: int | None = None) -> BinaryForm:
    try:
        values = [parse_rational(part) for part in coeffs.split(",")]
    except (ValueError, ZeroDivisionError) as err:
        raise click.BadParameter(f"bad coefficient list {coeffs!r}: {err}")
    if degree is not None and len(values) != degree + 1:
        raise click.BadParameter(
            f"degree {degree} needs {degree + 1} coefficients, got {len(values)}"
        )
    if not values:
        raise click.BadParameter("empty coefficient list")
    return BinaryForm.from_coeffs(values)


def _parse_partition_arg(text: str) -> Partition:
    try:
        return parse_partition(text)
    except ValueError as err:
        raise click.BadParameter(f"bad partition {text!r}: {err}")


def _flatten(value) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return str(value)


def _emit(
    config: RunConfig,
    payload: dict,
    csv_table: tuple[list[str], list[list]] | None = None,
    text_lines: list[str] | None = None,
) -> None:
    fmt = config.output_format
    if fmt == "json":
        doc = {"config": config.to_json()}
        doc.update(payload)
        click.echo(json.dumps(doc, indent=2))
        return
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        for key, value in config.to_json().items():
            writer.writerow([f"config.{key}", _flatten(value)])
        if csv_table is None:
            header, rows = ["key", "value"], [
                [k, _flatten(v)] for k, v in payload.items()
            ]
        else:
            header, rows = csv_table
        writer.writerow(header)
        writer.writerows(rows)
        click.echo(buffer.getvalue(), nl=False)
        return
    cfg = " ".join(f"{k}={v}" for k, v in config.to_json().items())
    click.echo(f"config: {cfg}")
    if text_lines is None:
        text_lines = [f"{k}: {_flatten(v)}" for k, v in payload.items()]
    for line in text_lines:
        click.echo(line)


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    raise SystemExit(EXIT_CHECK_FAILURE)


@click.group()
@click.option("--seed", default=0, show_default=True, type=int,
              help="Seed for every randomized step.")
@click.option("--tol-on", default=1e-8, show_default=True, type=float,
              help="Residual below which a membership verdict is 'on'.")
@click.option("--tol-off", default=1e-3, show_default=True, type=float,
              help="Residual above which a membership verdict is 'off'.")
@click.option("--rank-samples", default=2000, show_default=True, type=int,
              help="Randomized rank search: candidate samples per degree.")
@click.option("--multistarts", default=50, show_default=True, type=int,
              help="Descent restarts for the randomized rank search.")
@click.option("--format", "output_format", default="json", show_default=True,
              type=click.Choice(["json", "csv", "text"]))
@click.option("--threads", default=None, type=int,
              help="Worker pool size (default: available parallelism; "
                   "env CRL_ATLAS_THREADS overrides).")
@click.pass_context
def main(ctx, seed, tol_on, tol_off, rank_samples, multistarts,
         output_format, threads):
    """Exact rank certificates and rank-boundary experiments for binary
    forms, with reproducible seeded numerics."""
    try:
        config = RunConfig(
            seed=seed,
            tol_on=tol_on,
            tol_off=tol_off,
            rank_samples=rank_samples,
            multistarts=multistarts,
            output_format=output_format,
        )
    except ValueError as err:
        raise click.UsageError(str(err))
    ctx.obj = {"config": config, "threads": threads}


@main.command()
@click.argument("which", type=click.Choice(["1", "2", "3"]))
@click.option("--max-r", default=7, show_default=True, type=int,
              help="Largest partition weight for table 1.")
@click.option("--max-k", default=13, show_default=True, type=int,
              help="Largest k row for tables 2 and 3.")
@click.pass_context
def tables(ctx, which, max_r, max_k):
    """Regenerate one of the three reference tables."""
    config: RunConfig = ctx.obj["config"]
    if which == "1":
        try:
            rows = regenerate_table1(max_r)
        except ValueError as err:
            _fail(str(err))
        payload = {
            "table": 1,
            "max_r": max_r,
            "status": CONJECTURAL_STATUS,
            "rows": [
                {
                    "lam": format_partition(lam),
                    "j": dec.j,
                    "d": dec.d,
                    "r": dec.r,
                    "terms": [
                        {"mult": m, "mu": format_partition(mu)}
                        for m, mu in dec.terms
                    ],
                }
                for lam, dec in rows
            ],
        }
        header = ["lam", "j", "d", "r", "decomposition"]
        table = [
            [format_partition(lam), dec.j, dec.d, dec.r, dec.to_text()]
            for lam, dec in rows
        ]
        lines = [
            f"lam=({format_partition(lam)}) j={dec.j} d={dec.d}: {dec.to_text()}"
            for lam, dec in rows
        ]
        _emit(config, payload, (header, table), lines)
        return
    parity = "odd" if which == "2" else "even"
    try:
        count_rows = count_table(parity, max_k)
    except ValueError as err:
        _fail(str(err))
    ks = list(range(3, max_k + 1))
    payload = {
        "table": int(which),
        "parity": parity,
        "max_k": max_k,
        "rows": [
            {
                "k": k,
                "d": 2 * k - 1 if parity == "odd" else 2 * k,
                "counts": list(row),
            }
            for k, row in zip(ks, count_rows)
        ],
    }
    header = ["k", "d", "counts"]
    table = [
        [k, 2 * k - 1 if parity == "odd" else 2 * k,
         " ".join(str(c) for c in row)]
        for k, row in zip(ks, count_rows)
    ]
    lines = [
        f"k={k} d={2 * k - 1 if parity == 'odd' else 2 * k}: "
        + " ".join(str(c) for c in row)
        for k, row in zip(ks, count_rows)
    ]
    _emit(config, payload, (header, table), lines)


@main.command()
@click.option("--partition", "-p", "partition_text", required=True,
              help="Comma-separated parts, e.g. 3,2.")
@click.pass_context
def degree(ctx, partition_text):
    """Degree of the coincident root stratum of a partition."""
    config: RunConfig = ctx.obj["config"]
    lam = _parse_partition_arg(partition_text)
    _emit(config, {"partition": format_partition(lam), "degree": crl_degree(lam)})


@main.command(name="dual-degree")
@click.option("--partition", "-p", "partition_text", required=True)
@click.pass_context
def dual_degree_cmd(ctx, partition_text):
    """Degree of the dual hypersurface of a stratum (all parts >= 2)."""
    config: RunConfig = ctx.obj["config"]
    lam = _parse_partition_arg(partition_text)
    try:
        value = dual_degree(lam)
    except ValueError as err:
        _fail(str(err))
    _emit(config, {"partition": format_partition(lam), "dual_degree": value})


@main.command(name="polar-degree")
@click.option("--partition", "-p", "partition_text", required=True)
@click.option("--j", "j", required=True, type=int, help="Contact order.")
@click.pass_context
def polar_degree_cmd(ctx, partition_text, j):
    """j-th polar degree of a stratum (conjectural multiplicities)."""
    config: RunConfig = ctx.obj["config"]
    lam = _parse_partition_arg(partition_text)
    try:
        value = polar_degree(lam, j)
    except ValueError as err:
        _fail(str(err))
    _emit(
        config,
        {
            "partition": format_partition(lam),
            "j": j,
            "polar_degree": value,
            "status": CONJECTURAL_STATUS,
        },
    )


@main.command()
@click.option("--partition", "-p", "partition_text", required=True)
@click.option("--j", "j", required=True, type=int, help="Contact order.")
@click.pass_context
def pullback(ctx, partition_text, j):
    """Component decomposition of the pulled-back contact locus."""
    config: RunConfig = ctx.obj["config"]
    lam = _parse_partition_arg(partition_text)
    try:
        dec = pullback_decomposition(lam, j)
    except ValueError as err:
        _fail(str(err))
    payload = {"partition": format_partition(lam), "decomposition": dec.to_json()}
    header = ["mult", "mu"]
    table = [[m, format_partition(mu)] for m, mu in dec.terms]
    lines = [f"({format_partition(lam)}) j={j}: {dec.to_text()}"]
    _emit(config, payload, (header, table), lines)


@main.command()
@click.option("--degree", "-d", "degree_", required=True, type=int)
@click.option("--coeffs", required=True,
              help="Comma-separated rational coefficients c0,...,cd.")
@click.option("--field", default="real", show_default=True,
              type=click.Choice(["real", "complex"]))
@click.pass_context
def rank(ctx, degree_, coeffs, field):
    """Waring rank certificate for one binary form."""
    config: RunConfig = ctx.obj["config"]
    f = _parse_form(coeffs, degree_)
    try:
        if field == "complex":
            cert = complex_rank(f)
        else:
            search = SearchBudget(
                samples=config.rank_samples, restarts=config.multistarts
            )
            cert = real_rank(f, budget=search, seed=config.seed)
    except ValueError as err:
        _fail(str(err))
    payload = dict(cert.to_json())
    lines = [
        f"{field} rank: {cert.value} ({cert.lower_bound_kind})",
        f"witness: {cert.witness}",
    ]
    _emit(config, payload, None, lines)


@main.command()
@click.option("--d", "d", required=True, type=int)
@click.option("--samples", default=500, show_default=True, type=int)
@click.option("--distribution", default="gaussian", show_default=True,
              type=click.Choice(["gaussian", "uniform"]))
@click.pass_context
def histogram(ctx, d, samples, distribution):
    """Real-rank histogram over seeded random forms."""
    config: RunConfig = ctx.obj["config"]
    threads = _resolve_threads(ctx.obj["threads"])
    budget = SearchBudget(
        samples=config.rank_samples, restarts=config.multistarts
    )
    try:
        counts = rank_histogram(
            d, samples, seed=config.seed, distribution=distribution,
            budget=budget, threads=threads,
        )
    except ValueError as err:
        _fail(str(err))
    payload = {
        "d": d,
        "samples": samples,
        "distribution": distribution,
        "counts": {str(value): count for value, count in counts.items()},
    }
    header = ["rank", "count"]
    table = [[value, count] for value, count in counts.items()]
    lines = [f"rank {value}: {count}" for value, count in counts.items()]
    _emit(config, payload, (header, table), lines)


@main.group()
def boundary():
    """Rank-boundary candidates, membership tests, and crossing scans."""


@boundary.command()
@click.option("--d", "d", required=True, type=int)
@click.option("--r", "r", required=True, type=int)
@click.option("--mode", default="expected", show_default=True,
              type=click.Choice(["theorem", "expected"]))
@click.pass_context
def candidates(ctx, d, r, mode):
    """Candidate dual varieties bounding the region of rank r."""
    config: RunConfig = ctx.obj["config"]
    try:
        cset = candidate_components(d, r, mode)
    except ValueError as err:
        _fail(str(err))
    payload = cset.to_json()
    header = ["mu", "provenance"]
    table = [[format_partition(mu), prov] for mu, prov in cset.members]
    lines = [
        f"({format_partition(mu)}): {prov}" for mu, prov in cset.members
    ]
    _emit(config, payload, (header, table), lines)


@boundary.command()
@click.option("--mu", "mu_text", required=True,
              help="Root-multiplicity partition of the dual variety.")
@click.option("--coeffs", required=True,
              help="Comma-separated rational coefficients of f.")
@click.pass_context
def membership(ctx, mu_text, coeffs):
    """Numerical test: does f lie on the dual variety of mu?"""
    config: RunConfig = ctx.obj["config"]
    mu = _parse_partition_arg(mu_text)
    f = _parse_form(coeffs)
    try:
        report = dual_membership(f, mu, config)
    except ValueError as err:
        _fail(str(err))
    payload = dict(report.to_json())
    lines = [
        f"mu=({format_partition(mu)}): {report.verdict} "
        f"(residual {report.residual:.3e})"
    ]
    _emit(config, payload, None, lines)
    if report.verdict == "inconclusive":
        raise SystemExit(EXIT_INCONCLUSIVE)


@boundary.command()
@click.option("--d", "d", required=True, type=int)
@click.option("--from", "from_text", required=True,
              help="Coefficients of the starting form.")
@click.option("--to", "to_text", required=True,
              help="Coefficients of the ending form.")
@click.option("--steps", default=200, show_default=True, type=int)
@click.pass_context
def cross(ctx, d, from_text, to_text, steps):
    """Scan the segment between two forms for rank crossings."""
    config: RunConfig = ctx.obj["config"]
    threads = _resolve_threads(ctx.obj["threads"])
    f_from = _parse_form(from_text, d)
    f_to = _parse_form(to_text, d)
    try:
        events = crossing_scan(f_from, f_to, steps, config, threads=threads)
    except ValueError as err:
        _fail(str(err))
    payload = {
        "d": d,
        "steps": steps,
        "from": [format_rational(Fraction(c)) for c in f_from.coeffs],
        "to": [format_rational(Fraction(c)) for c in f_to.coeffs],
        "events": [ev.to_json() for ev in events],
    }
    header = ["eps_lo", "eps_hi", "r_left", "r_right", "anomaly", "on"]
    table = []
    lines = []
    for ev in events:
        on = [format_partition(m.mu) for m in ev.memberships if m.verdict == "on"]
        table.append(
            [str(ev.eps_lo), str(ev.eps_hi), ev.r_left, ev.r_right,
             ev.anomaly, ";".join(on)]
        )
        lines.append(
            f"{ev.r_left}<->{ev.r_right} at eps~{float(ev.eps_mid):.12f} "
            f"on=[{', '.join(on) or '-'}]{' ANOMALY' if ev.anomaly else ''}"
        )
    if not events:
        lines = ["no rank changes detected"]
    _emit(config, payload, (header, table), lines)
    bad = [ev for ev in events if ev.anomaly]
    if bad:
        if all(
            any(m.verdict == "inconclusive" for m in ev.memberships)
            for ev in bad
        ):
            raise SystemExit(EXIT_INCONCLUSIVE)
        raise SystemExit(EXIT_CHECK_FAILURE)


@main.command()
@click.option("--max-r", default=9, show_default=True, type=int,
              help="Largest weight for the degree-sum identity suite.")
@click.pass_context
def selfcheck(ctx, max_r):
    """Run the built-in invariant suites; exit 1 on any failure."""
    config: RunConfig = ctx.obj["config"]
    report = run_selfcheck(max_r)
    payload = report.to_json()
    header = ["suite", "passed", "failed"]
    table = [[s.name, s.passed, s.failed] for s in report.suites]
    _emit(config, payload, (header, table), report.to_text().splitlines())
    if not report.ok:
        raise SystemExit(EXIT_CHECK_FAILURE)


if __name__ == "__main__":
    main()
