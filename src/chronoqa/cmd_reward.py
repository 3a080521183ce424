"""``chronoqa reward``: the temporally-aware reward of each prediction."""

from .cli import _OUT, _PREDICTIONS, _QUESTIONS, EXIT_OK, _meta


FLAGS = [_QUESTIONS, _PREDICTIONS, _OUT]


def run(args) -> int:
    from .jsonl import load_jsonl, write_jsonl
    from .records import Question
    from .rewards import reward_line, reward_records
    from .scoring import Prediction
    meta_q, questions = load_jsonl(args.questions, Question.from_record)
    _, predictions = load_jsonl(args.predictions, Prediction.from_record)
    records = reward_records(questions, predictions)
    config = {"questions": args.questions, "predictions": args.predictions}
    render_version = (meta_q or {}).get("render_version", "")
    count = write_jsonl(args.out, records, _meta(args, render_version, config), reward_line)
    values = [r.reward for r in records]
    mean = sum(values) / len(values) if values else 0.0
    positive = sum(1 for v in values if v > 0)
    negative = sum(1 for v in values if v < 0)
    print(f"wrote {count} reward records to {args.out} "
          f"(mean {mean:.3f}, +1s {positive}, -1s {negative}, 0s {count - positive - negative})")
    return EXIT_OK
