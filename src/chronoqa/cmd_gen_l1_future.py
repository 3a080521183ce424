"""``chronoqa gen-l1-future``: the relative-time test set of 2022-2040."""

from .cli import _COUNT, _OUT_DIR, _TEMPLATES, EXIT_OK, _flag, _write_questions


FLAGS = [_TEMPLATES, _OUT_DIR, _flag("--count", type=_COUNT, required=True)]


def run(args) -> int:
    from .questions import _l1_renderer, gen_l1_future
    from .templates import load_templates
    templates = load_templates(args.templates)
    draws = gen_l1_future(args.count, args.seed, templates=templates)
    lines = map(_l1_renderer(templates, "future").line, draws, range(len(draws)))
    _write_questions(args, templates, "l1", {"future": lines}, encode=str)  # each a line already
    return EXIT_OK
