"""``chronoqa gen-l1``: relative-time questions, split into train, dev and test."""

from .cli import _COUNT, _OUT_DIR, _TEMPLATES, EXIT_OK, _flag, _flag_type, _parse_point, _write_questions


def _parse_range(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"range must look like 'Jan 1000:Dec 2022', got {text!r}")
    return _parse_point(parts[0]), _parse_point(parts[1])


FLAGS = [
    _TEMPLATES, _OUT_DIR,
    _flag("--count", type=_COUNT, required=True, help="train questions"),
    _flag("--dev-count", type=_COUNT, default=0),
    _flag("--test-count", type=_COUNT, default=0),
    _flag("--range", type=_flag_type(_parse_range, keep_text=True), default="Jan 1000:Dec 2022",
          help="sampling range for the reference time (default: %(default)s)"),
]


def run(args) -> int:
    from .questions import gen_l1, partition_l1
    from .templates import load_templates
    templates = load_templates(args.templates)
    counts = {"train": args.count, "dev": args.dev_count, "test": args.test_count}
    counts = {name: count for name, count in counts.items() if count or name == "train"}
    pool = gen_l1(_parse_range(args.range), sum(counts.values()), args.seed, templates=templates)
    config = {"range": args.range, "counts": counts, "templates": args.templates}
    _write_questions(args, templates, config, "l1", partition_l1(pool, counts, args.seed))
    return EXIT_OK
