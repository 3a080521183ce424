"""``chronoqa gen-l1-future``: the relative-time test set of 2022-2040."""

from .cli import _COUNT, _OUT_DIR, _TEMPLATES, EXIT_OK, _flag, _write_questions


FLAGS = [_TEMPLATES, _OUT_DIR, _flag("--count", type=_COUNT, required=True)]


def run(args) -> int:
    from .questions import gen_l1_future
    from .templates import load_templates
    templates = load_templates(args.templates)
    questions = gen_l1_future(args.count, args.seed, templates=templates)
    _write_questions(args, templates, {"count": args.count, "templates": args.templates}, "l1",
                     {"future": questions})
    return EXIT_OK
