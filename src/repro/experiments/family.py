"""One shape for an experiment family, declared as data.

The paper's evaluation is one protocol — build a fabric, settle,
perturb it, measure — swept over topology x algorithm x seed.  Each
family of experiments (``discover``, ``change``, ``reliability``,
``churn``, ``failover``, ``load``) keeps the two things that are
genuinely its own, a run body and a result dataclass, and states the
rest once, in a :class:`Family` record: which settings it has and how
each lands in a :class:`~repro.experiments.scenario.Scenario`, how
results are grouped and tabulated, when a run passes, and how a run is
named in a progress line.

Everything else is derived from the record: the cross product of a
sweep (:func:`repro.experiments.sweep.plan`), the summary rows and the
table (:func:`summarize`, :func:`render`, :func:`report`), the CLI
command with its flags, ``--trace`` representative and exit code
(:mod:`repro.cli`), and the fuzz oracle
(:func:`repro.experiments.fuzz.classify_result`).  The registry of
families is :data:`repro.experiments.scenario.FAMILIES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..manager.timing import ALGORITHMS, PARALLEL
from .report import render_kv, render_table


def first(values: Sequence):
    return values[0]


def checked(kind: Callable, ok: Callable, what: str) -> Callable:
    """An argparse ``type=``: ``kind(text)``, refused unless ``ok`` of
    it, so an out-of-range number is a usage error naming its flag
    before anything runs."""
    def number(text: str):
        if ok(value := kind(text)):
            return value
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"{text} is not {what}")
    return number


#: The ranges of the CLI's numeric flags (a NaN is in none of them).
FRACTION = checked(float, lambda x: 0 <= x <= 1, "in [0, 1]")
PROBABILITY = checked(float, lambda x: 0 <= x < 1, "in [0, 1)")
POSITIVE = checked(float, lambda x: x > 0, "positive")
COUNT = checked(int, lambda n: n >= 1, "at least 1")
NATURAL = checked(int, lambda n: n >= 0, "at least 0")


@dataclass(frozen=True)
class Axis:
    """One setting of a family: a CLI flag, its default, and the
    Scenario field a value lands in.

    Attributes
    ----------
    name:
        Keyword of the setting in :func:`~repro.experiments.sweep.plan`
        and placeholder in :attr:`Family.title`.
    flag / help / type / choices / metavar:
        The CLI spelling.  A ``False`` default makes a switch.
    default:
        One value, or for a ``swept`` axis the tuple of values a sweep
        crosses (outermost axis first, seeds innermost).
    field:
        The Scenario field one value lands in; ``None`` when the value
        reaches the scenario through :attr:`Family.compose` instead.
    swept:
        Whether the flag is repeatable and its values are crossed.
    pick:
        Which of the swept values the ``--trace`` representative runs.
    """

    name: str
    flag: str
    default: Any
    field: Optional[str]
    help: Optional[str] = None
    swept: bool = False
    type: Optional[Callable] = None
    choices: Optional[Sequence] = None
    metavar: Optional[str] = None
    pick: Callable = first


#: The settings most families share, declared once.
ALGORITHM = Axis("algorithm", "--algorithm", PARALLEL, "algorithm",
                 choices=ALGORITHMS)


def algorithms_swept(default: Sequence[str] = ALGORITHMS) -> Axis:
    """The swept ``--algorithm`` axis; its help names its own default."""
    return Axis("algorithms", "--algorithm", default, "algorithm",
                swept=True, choices=ALGORITHMS,
                help="algorithm to sweep (repeatable; default: %s)"
                     % ", ".join(default))


#: ``--manager`` accepts the FM flavours plus, as a CLI shorthand, the
#: algorithm keys (resolved by :func:`repro.cli.resolve_variant`).
MANAGER = Axis(
    "manager", "--manager", "full", "manager",
    choices=("full", "partial") + tuple(ALGORITHMS),
    help="FM flavour (full/partial), or an algorithm key as shorthand "
         "for the full FM running that algorithm (default full)",
)


@dataclass(frozen=True)
class Column:
    """One key of a summary row and, with a ``header``, one table
    column.  ``aggregate`` maps a bucket of results to the value; a
    group-by column has none (its value is the bucket's key), and a
    column filled by :attr:`Family.derive` has none either."""

    key: str
    header: Optional[str] = None
    aggregate: Optional[Callable[[Sequence], Any]] = None
    format: Optional[Callable[[Any], Any]] = None


_RUNS = Column("runs", "runs")


def mean_of(field: str) -> Callable:
    """Mean of ``field`` over the runs that measured it (``None`` if
    none did)."""
    def aggregate(bucket):
        present = [value for value in (getattr(r, field) for r in bucket)
                   if value is not None]
        return sum(present) / len(present) if present else None
    return aggregate


def total_of(field: str) -> Callable:
    return lambda bucket: sum(getattr(r, field) for r in bucket)


def share_of(field: str) -> Callable:
    """Fraction of the bucket's runs where ``field`` holds."""
    return lambda bucket: (
        sum(1 for r in bucket if getattr(r, field)) / len(bucket)
    )


def all_of(field: str) -> Callable:
    return lambda bucket: all(getattr(r, field) for r in bucket)


def database_verdict(result) -> Optional[Tuple[str, str]]:
    """The oracle of every family without a stricter one: the FM's
    database must equal the reachable ground truth."""
    if not result.database_correct:
        return ("database_incorrect",
                "database does not match reachable ground truth")
    return None


def _seed_label(scenario) -> Tuple[str, ...]:
    return (f"seed={scenario.seed}",)


def _asdict(result) -> dict:
    return result.asdict()


@dataclass(frozen=True)
class Family:
    """The declaration of one experiment family.

    Attributes
    ----------
    kind:
        The scenario kind, which is also the CLI command.
    run:
        The run body: ``run(scenario, tracer=None) -> result``.
    help / topology:
        The CLI command's one-line help and default ``--topology``.
    title:
        Format string of the report heading; placeholders are
        ``{topology}``, ``{runs}``, ``{seed}`` and the axis names.
    axes:
        The family's settings, swept ones in nesting order.
    compose:
        ``compose(point) -> Scenario fields`` for the settings that do
        not land in one field each (``point`` maps axis name to value).
    group_by / columns / derive:
        The summary: rows are the buckets of results sharing the
        ``group_by`` attributes; ``columns`` aggregate each bucket;
        ``derive(rows)`` fills columns that compare rows.  A family
        with no columns reports one ``record(result)`` block per run.
    verdict:
        ``verdict(result) -> (reason, detail)`` when a completed run is
        still a failure, else ``None`` — the fuzz oracle and the CLI
        exit code.
    label:
        What names a run, after topology and algorithm, in progress
        and error lines.
    """

    kind: str
    run: Callable
    help: str
    topology: str
    title: str
    axes: Tuple[Axis, ...]
    compose: Optional[Callable[[dict], dict]] = None
    group_by: Tuple[Column, ...] = ()
    columns: Tuple[Column, ...] = ()
    derive: Optional[Callable[[List[dict]], None]] = None
    record: Callable[[Any], dict] = _asdict
    verdict: Callable = database_verdict
    label: Callable = _seed_label


def summarize(family: Family, results: Sequence) -> List[dict]:
    """One row per ``group_by`` bucket, ordered by the bucket key."""
    groups: dict = {}
    for result in results:
        key = tuple(getattr(result, c.key) for c in family.group_by)
        groups.setdefault(key, []).append(result)
    rows = []
    for key in sorted(groups):
        bucket = groups[key]
        row = {column.key: value
               for column, value in zip(family.group_by, key)}
        row[_RUNS.key] = len(bucket)
        for column in family.columns:
            row[column.key] = (column.aggregate(bucket)
                               if column.aggregate is not None else None)
        rows.append(row)
    if family.derive is not None:
        family.derive(rows)
    return rows


def render(family: Family, rows: Sequence[dict], title: str = "") -> str:
    """ASCII table of :func:`summarize` rows."""
    columns = [*family.group_by, _RUNS,
               *(c for c in family.columns if c.header is not None)]
    table = render_table([c.header for c in columns], [
        [row[c.key] if c.format is None else c.format(row[c.key])
         for c in columns]
        for row in rows
    ])
    return f"{title}\n{table}" if title else table


def report(family: Family, scenarios: Sequence, results: Sequence,
           **values) -> str:
    """What the family's CLI command prints for a finished sweep:
    the titled summary table, or one block per run."""
    if family.columns:
        title = family.title.format(runs=len(results), **values)
        return render(family, summarize(family, results), title)
    return "\n".join(
        render_kv(family.title.format(seed=scenario.seed, **values),
                  family.record(result))
        for scenario, result in zip(scenarios, results)
    )
