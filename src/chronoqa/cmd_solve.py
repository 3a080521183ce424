"""``chronoqa solve``: answer each question with the symbolic solver."""

from .cli import _OUT, _QUESTIONS, _TEMPLATES, EXIT_OK, _fact_flags, _load_groups, _meta, _write_records


FLAGS = [_TEMPLATES, *_fact_flags(), _QUESTIONS, _OUT]


def run(args) -> int:
    from .jsonl import load_jsonl
    from .oracle import index_groups, solve
    from .records import Question
    from .scoring import Prediction, prediction_line
    from .templates import load_templates
    templates = load_templates(args.templates)
    meta_in, questions = load_jsonl(args.questions, Question.from_record)
    groups = index_groups(_load_groups(args, templates)) if args.facts else None
    predictions = (Prediction(question.id, (solve(question, groups, templates).answers or ("",))[0])
                   for question in questions)  # the first answer, or "" when there is none
    render_version = (meta_in or {}).get("render_version", templates.render_version)
    config = {"questions": args.questions, "facts": args.facts, "templates": args.templates}
    _write_records(args.out, predictions, _meta(args, render_version, config), "predictions", prediction_line)
    return EXIT_OK
