"""``chronoqa eval``: score predictions against questions, overall and per
period or relation."""

from .cli import _PREDICTIONS, _QUESTIONS, EXIT_OK, _flag, _flag_type, _meta
from .metrics import DEFAULT_PERIOD_EDGES


def _parse_edges(text: str) -> tuple[int, ...]:
    try:
        edges = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"period edges must be comma-separated integers, got {text!r}") from None
    if len(edges) < 2 or list(edges) != sorted(set(edges)):
        raise ValueError("period edges must be at least two strictly increasing integers")
    return edges


def _format_metric(value) -> str:
    return "-" if value is None else f"{value:.2f}"


def _print_block(label: str, block) -> None:
    print(f"  {label:<16} {_format_metric(block.em):>7} {_format_metric(block.f1):>7} "
          f"{_format_metric(block.mae):>7} {_format_metric(block.trend_acc):>7} {block.count:>8}")


FLAGS = [
    _QUESTIONS, _PREDICTIONS,
    _flag("--breakdown", choices=("period", "relation"), default="period"),
    _flag("--period-edges", type=_flag_type(_parse_edges),
          default=",".join(map(str, DEFAULT_PERIOD_EDGES)),
          help="bucket edges for the period breakdown (default: %(default)s)"),
    _flag("--missing", choices=("zero", "error"), default="zero",
          help="policy for questions without a prediction (default: %(default)s)"),
    _flag("--force", action="store_true", help="evaluate despite a render version mismatch"),
    _flag("--out", help="write the full report as JSON"),
]


def run(args) -> int:
    from .jsonl import load_jsonl, write_json
    from .metrics import evaluate
    from .records import QUESTION_COLUMNS, Question
    from .scoring import PREDICTION_COLUMNS, Prediction
    meta_q, questions = load_jsonl(args.questions, Question.from_record, QUESTION_COLUMNS)
    meta_p, predictions = load_jsonl(args.predictions, Prediction.from_record, PREDICTION_COLUMNS)
    version_q = (meta_q or {}).get("render_version")
    version_p = (meta_p or {}).get("render_version")
    if version_q and version_p and version_q != version_p and not args.force:
        raise ValueError(f"render version mismatch: questions {version_q!r} vs predictions "
                         f"{version_p!r} (use --force to evaluate anyway)")
    report = evaluate(questions, predictions, period_edges=args.period_edges, missing_policy=args.missing)
    if args.out:  # written before the table, so a failed print cannot lose it
        write_json(args.out, {"_meta": _meta(args, version_q or ""), "report": report.to_record()})

    print(f"  {'bucket':<16} {'EM':>7} {'F1':>7} {'MAE':>7} {'Trend':>7} {'count':>8}")
    _print_block("overall", report.overall)
    breakdown = report.per_period if args.breakdown == "period" else report.per_relation
    for label, block in breakdown.items():
        _print_block(label, block)
    if args.out:
        print(f"wrote report to {args.out}")
    return EXIT_OK
