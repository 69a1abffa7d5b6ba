"""Phase-granular command line: fw <command>.

Commands mirror the pipeline stages so a crashed cycle can be resumed one
phase at a time: ingest, issue, resolve, benchmark, export, score, plus the
cron evening on the wall clock (cycle) or on a virtual clock (simulate).
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import date
from pathlib import Path

from .agents import SCRIPTED_AGENTS
from .benchmark import BenchmarkAnswer, GoldRecord, score_benchmark_batch
from .jsonl import from_row, read_jsonl, to_row, write_json, write_jsonl
from .ledger import LedgerError
from .orchestrator import CycleConfig, Orchestrator
from .prompts import BenchmarkQuestion
from .scoring import ProbPrediction, summarize_probabilistic
from .sources import fetch_all


def _load_config(path: str | None) -> CycleConfig:
    if path is None:
        return CycleConfig()
    return CycleConfig.from_yaml(Path(path))


def _orchestrator(args: argparse.Namespace) -> Orchestrator:
    return Orchestrator(_load_config(args.config), Path(args.run_dir))


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    day = date.fromisoformat(args.day)
    result = fetch_all(config, day)
    out = Path(args.out) if args.out else Path(f"candidates-{day.isoformat()}.jsonl")
    write_jsonl(out, map(to_row, result.events))
    print(f"wrote {len(result.events)} candidates to {out}")
    for error in result.errors:
        print(f"record error at {error.path}:{error.line_number}: {error.message}", file=sys.stderr)
    return 0


def _cmd_issue(args: argparse.Namespace) -> int:
    report = _orchestrator(args).run_issue_phase(date.fromisoformat(args.day))
    print(json.dumps(to_row(report), indent=1, sort_keys=True))
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    report = _orchestrator(args).run_resolve_phase(date.fromisoformat(args.day))
    print(json.dumps(to_row(report), indent=1, sort_keys=True))
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    report = _orchestrator(args).run_benchmark_phase(date.fromisoformat(args.day))
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    """Re-export the day for every agent ledger in the run directory, whatever the config lists."""
    orch = _orchestrator(args)
    day = date.fromisoformat(args.day)
    if not orch.questions_path(day).exists():
        raise FileNotFoundError(f"no issued batch found for {day.isoformat()}")
    # A day with no questions has no log, yet the resolve phase exported it (empty).
    for agent in sorted(p.name for p in (orch.run_dir / "ledgers").glob("*") if p.is_dir()):
        written = orch.write_export(agent, day)
        print(f"{agent}: {written} groups -> {orch.export_path(agent, day)}")
    return 0


def _scored_rows(path: str) -> list[dict]:
    """The rows of a ``score`` input; each must be an object with a ``question_id``."""
    rows = read_jsonl(Path(path))
    for number, row in enumerate(rows, start=1):
        if not isinstance(row, dict) or "question_id" not in row:
            raise ValueError(f"{path} row {number} is not an object with a question_id: {row!r}")
    return rows


def _records(cls: type, path: str, rows: list) -> list:
    """The ``cls`` record of each row of a ``score`` input; a bad row is named by file and number."""
    records = []
    for number, row in enumerate(rows, start=1):
        try:
            records.append(from_row(cls, row))
        except ValueError as exc:
            raise ValueError(f"{path} row {number}: {exc}") from None
    return records


def _cmd_score(args: argparse.Namespace) -> int:
    preds_rows = _scored_rows(args.preds)
    if not preds_rows:
        raise ValueError(f"{args.preds} holds no predictions")
    prob_rows = [r for r in preds_rows if "prob" in r]
    if 0 < len(prob_rows) < len(preds_rows):
        raise ValueError(
            f"{args.preds} mixes {len(prob_rows)} probabilistic (with 'prob') and "
            f"{len(preds_rows) - len(prob_rows)} benchmark predictions; score them apart"
        )
    truth_rows = _scored_rows(args.truth)

    if prob_rows:
        # a null label marks a question that did not resolve: it is not scored
        labels = {}
        for number, r in enumerate(truth_rows, start=1):
            if "label" not in r:
                raise ValueError(f"{args.truth} row {number} has no label: {r!r}")
            labels[r["question_id"]] = r["label"]
        preds: list[ProbPrediction] = []
        for r in prob_rows:
            pair = {"prob": r["prob"], "label": labels.get(r["question_id"])}
            try:
                if pair["label"] is not None:
                    preds.append(from_row(ProbPrediction, pair, "scored pair"))
            except ValueError as exc:
                raise ValueError(f"question {r['question_id']}: {exc}") from None
        missing = sum(r["question_id"] not in labels for r in prob_rows)
        print(
            f"scored {len(preds)} predictions; {missing} had no truth row; "
            f"{len(prob_rows) - len(preds) - missing} had a null label",
            file=sys.stderr,
        )
        report = summarize_probabilistic(preds, seed=args.seed)
    else:
        if args.questions is None:
            raise ValueError("benchmark predictions need --questions, the benchmark questions JSONL")
        questions = _records(BenchmarkQuestion, args.questions, read_jsonl(Path(args.questions)))
        answers = {a.question_id: a for a in _records(BenchmarkAnswer, args.preds, preds_rows)}
        gold = {g.question_id: g for g in _records(GoldRecord, args.truth, truth_rows)}
        report = score_benchmark_batch(questions, answers, gold)
    print(report.render_text())
    if args.out:
        write_json(Path(args.out), to_row(report))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    from dataclasses import replace

    config = replace(
        config,
        seed=args.seed if args.seed is not None else config.seed,
        agents=tuple(args.agents.split(",")) if args.agents is not None else config.agents,
    )
    if args.questions_per_day is not None:
        config = replace(config, questions_per_day=args.questions_per_day)
    orch = Orchestrator(config, Path(args.run_dir))
    result = orch.simulate(args.days)
    print(f"simulated {args.days} days in {result.elapsed_seconds:.1f}s -> {result.run_dir}")
    for agent, report in result.final_reports.items():
        print(f"[{agent}]")
        print(report.render_text())
    return 0


def _cmd_cycle(args: argparse.Namespace) -> int:
    if not args.live:
        print("cycle currently supports --live only; use simulate for virtual runs", file=sys.stderr)
        return 2
    executed = _orchestrator(args).run_due_phases()
    print("executed: " + (", ".join(executed) if executed else "nothing due"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, day: bool = True) -> None:
        p.add_argument("--config", default=None, help="YAML cycle config")
        p.add_argument("--run-dir", default="fw-run", help="run directory")
        if day:
            p.add_argument("--day", required=True, help="ISO date, e.g. 2026-03-02")

    p = sub.add_parser("ingest", help="fetch candidate events for a day")
    p.add_argument("--config", default=None)
    p.add_argument("--day", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("issue", help="run the issue phase for a day")
    common(p)
    p.set_defaults(func=_cmd_issue)

    p = sub.add_parser("resolve", help="resolve and backfill a day's batch")
    common(p)
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("benchmark", help="issue and lag-score the daily benchmark")
    common(p)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("export", help="re-export training groups for a day")
    common(p)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("score", help="score a predictions file against answers")
    p.add_argument("--in", dest="preds", required=True, help="predictions JSONL")
    p.add_argument("--truth", required=True, help="answers JSONL")
    p.add_argument("--questions", default=None, help="benchmark questions JSONL")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("simulate", help="run a closed-loop multi-day simulation")
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--agents", default=None, help="comma list: " + ",".join(SCRIPTED_AGENTS))
    p.add_argument("--questions-per-day", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--run-dir", default="fw-run")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("cycle", help="run due phases against the wall clock")
    common(p, day=False)
    p.add_argument("--live", action="store_true")
    p.set_defaults(func=_cmd_cycle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError, KeyError, LedgerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
