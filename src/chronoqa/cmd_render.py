"""``chronoqa render``: the prompt and target of each question in one setting."""

from .cli import (_OUT, _QUESTIONS, _TEMPLATES, EXIT_OK, UsageError, _fact_flags, _flag, _flag_type, _load_groups,
                  _meta, _write_records)
from .contexts import canonical_setting


def _article(record: dict) -> tuple[str | None, str | None, str, None]:
    text, subject_id, subject = record["text"], record.get("subject_id"), record.get("subject")
    if not isinstance(text, str):
        raise ValueError(f"article text must be a string, got {type(text).__name__}")
    for name, value in (("subject_id", subject_id), ("subject", subject)):
        if not isinstance(value, (str, type(None))):
            raise ValueError(f"article {name} must be a string or null")
    return subject_id, subject, text, None


FLAGS = [
    _TEMPLATES, *_fact_flags(), _QUESTIONS, _OUT,
    _flag("--setting", type=_flag_type(canonical_setting), required=True, help="cbqa | obqa | reasonqa"),
    _flag("--articles", help="JSONL of {subject_id, text} for OBQA"),
]


def run(args) -> int:
    setting = args.setting
    if setting == "ReasonQA" and not args.facts:
        raise UsageError("--facts is required for the ReasonQA setting")
    if setting == "OBQA" and not args.articles:
        raise UsageError("--articles is required for the OBQA setting")
    from .contexts import render, rendered_line
    from .jsonl import load_jsonl
    from .oracle import SubjectIndex, index_groups
    from .records import QUESTION_COLUMNS, Question
    from .templates import load_templates
    templates = load_templates(args.templates)
    meta_in, questions = load_jsonl(args.questions, Question.from_record, QUESTION_COLUMNS)
    groups = index_groups(_load_groups(args, templates)) if setting == "ReasonQA" else None
    articles = SubjectIndex("article", load_jsonl(args.articles, _article)[1]) if setting == "OBQA" else None

    def examples():
        for question in questions:
            group = groups.resolve(question, question.relation) if groups is not None else None
            article = articles.resolve(question) if articles is not None else None
            yield render(question, group, article, setting=setting, seed=args.seed, templates=templates)

    render_version = (meta_in or {}).get("render_version", templates.render_version)
    _write_records(args.out, examples(), _meta(args, render_version), "rendered examples", rendered_line)
    return EXIT_OK
