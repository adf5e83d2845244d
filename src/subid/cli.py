"""Command-line interface.

Exit codes: 0 when the query is identifiable (or the verification passed),
2 when it is not (or verification found errors), 1 for usage and parse
problems.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from .estimand import render
from .graph import AugmentedAdmg, GraphError
from .identify import HedgeWitness, IdentifyResult, SeparationWitness, is_id, s_id, s_recover
from .parser import ParseError, parse_graph

VERIFY_TOLERANCE = 1e-6
DEMO_TOLERANCE = 1e-9


def _load_graph(path: str) -> AugmentedAdmg:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise click.ClickException(f"cannot read {path}: {exc}") from exc
    try:
        return parse_graph(text).graph
    except (ParseError, GraphError) as exc:
        raise click.ClickException(f"{path}: {exc}") from exc


def _vertex_args(g: AugmentedAdmg, csv: str, option: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in csv.split(",") if part.strip())
    unknown = sorted(set(names) - set(g.vertices))
    if unknown:
        raise click.ClickException(
            f"{option}: unknown vertices {', '.join(unknown)}; "
            f"graph vertices are {', '.join(g.vertices)}"
        )
    return names


def _explain_failure(mode: str, witness) -> str:
    if isinstance(witness, HedgeWitness):
        return (
            "not identified by this algorithm: "
            f"{{{', '.join(witness.hedge)}}} is an s-hedge for "
            f"{{{', '.join(witness.component)}}}"
        )
    if isinstance(witness, SeparationWitness):
        kind = "not s-recoverable" if mode == "srecover" else "not s-ID"
        return (
            f"{kind}: {{{', '.join(witness.left)}}} is not separated from "
            f"{{{', '.join(witness.right)}}} given {{{', '.join(witness.given)}}} "
            "after edge surgery"
        )
    return "not identifiable"


def _dump(payload: dict) -> None:
    click.echo(json.dumps(payload, sort_keys=True, indent=2))


@click.group()
def cli() -> None:
    """Decide identifiability of causal effects under selection."""


@cli.command("identify")
@click.option("--graph", "graph_path", required=True, help="Path to a graph file.")
@click.option("--treatment", default="", help="Comma-separated treatment vertices.")
@click.option("--outcome", required=True, help="Comma-separated outcome vertices.")
@click.option(
    "--mode",
    type=click.Choice(["sid", "srecover", "id-check"]),
    default="sid",
    show_default=True,
    help="sid: sub-population effect; srecover: population effect from "
    "sub-population data; id-check: classical identification, boolean only.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "latex", "json"]),
    default="text",
    show_default=True,
)
@click.option("--unicode", "use_unicode", is_flag=True, help="Render sums with Σ.")
def identify_cmd(graph_path, treatment, outcome, mode, fmt, use_unicode) -> int:
    """Decide a query and print the estimand or the failure witness."""
    g = _load_graph(graph_path)
    x = _vertex_args(g, treatment, "--treatment")
    y = _vertex_args(g, outcome, "--outcome")
    try:
        if mode == "id-check":
            ok = is_id(g, x, y)
            result = IdentifyResult("identifiable" if ok else "fail")
        elif mode == "srecover":
            result = s_recover(g, x, y)
        else:
            result = s_id(g, x, y)
    except GraphError as exc:
        raise click.ClickException(str(exc)) from exc

    if fmt == "json":
        query = {"treatment": list(x), "outcome": list(y)}
        _dump({"mode": mode, "query": query, **result.to_dict()})
    elif result.identifiable:
        if mode == "id-check":
            click.echo("identifiable")
        else:
            click.echo(render(result.estimand, fmt, unicode_sum=use_unicode))
    else:
        click.echo(_explain_failure(mode, result.witness))
    return 0 if result.identifiable else 2


@cli.command("verify")
@click.option("--graph", "graph_path", help="Path to a graph file.")
@click.option("--treatment", default="", help="Comma-separated treatment vertices.")
@click.option("--outcome", default="", help="Comma-separated outcome vertices.")
@click.option("--trials", default=20, show_default=True)
@click.option("--domain-size", default=2, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--min-prob", default=0.05, show_default=True)
@click.option(
    "--demo",
    is_flag=True,
    help="Check the built-in model with a known closed-form effect instead.",
)
def verify_cmd(graph_path, treatment, outcome, trials, domain_size, seed, min_prob, demo) -> int:
    """Cross-check an estimand against exact randomized models."""
    if demo:
        ctx = click.get_current_context()
        given = [p.opts[0] for p in ctx.command.params if p.name != "demo"
                 and ctx.get_parameter_source(p.name) is ParameterSource.COMMANDLINE]
        if given:
            raise click.ClickException(f"--demo takes no --graph, --treatment or --outcome, "
                                       f"nor any other option; got {', '.join(given)}")
        return _run_demo()
    if not graph_path:
        raise click.ClickException("--graph is required (or use --demo)")
    if not outcome:
        raise click.ClickException("--outcome is required (or use --demo)")
    from .oracle import verify  # loads numpy, which identify never needs

    g = _load_graph(graph_path)
    x = _vertex_args(g, treatment, "--treatment")
    y = _vertex_args(g, outcome, "--outcome")
    try:
        report = verify(
            g, x, y,
            trials=trials, domain_size=domain_size, min_prob=min_prob, seed=seed,
        )
    except (GraphError, ValueError) as exc:
        raise click.ClickException(str(exc)) from exc
    _dump(report)
    passed = report["status"] == "identifiable" and (
        report["max_abs_error"] is not None
        and report["max_abs_error"] < VERIFY_TOLERANCE
    )
    return 0 if passed else 2


def _run_demo() -> int:
    from .oracle import demo_model, evaluate

    scm = demo_model()
    g = scm.graph
    result = s_id(g, ("X",), ("Y",))
    obs = scm.observational_s()
    truth = scm.interventional_s({"X": 0}).prob({"Y": 1})
    value = evaluate(result.estimand, obs, {"X": 0, "Y": 1})
    naive = obs.prob({"X": 0, "Y": 1}) / obs.prob({"X": 0})
    payload = {
        "query": "effect of do(X=0) on Y=1 inside the sub-population",
        "estimand": render(result.estimand, "text", unicode_sum=False),
        "true_effect": truth,
        "estimand_value": value,
        "naive_conditional": naive,
        "naive_gap": abs(naive - truth),
    }
    _dump(payload)
    ok = abs(value - truth) < DEMO_TOLERANCE and abs(naive - truth) > 0.05
    return 0 if ok else 2


def main(argv: list[str] | None = None) -> int:
    """Run the CLI and return an exit status instead of raising SystemExit."""
    try:
        status = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    return int(status or 0)


def entry() -> None:  # pragma: no cover - exercised via console script
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
