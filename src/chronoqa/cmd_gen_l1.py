"""``chronoqa gen-l1``: relative-time questions, split into train, dev and test."""

from .cli import _COUNT, _OUT_DIR, _TEMPLATES, EXIT_OK, _flag, _flag_type, _parse_month, _write_questions


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"range must look like 'Jan 1000:Dec 2022', got {text!r}")
    start, end = _parse_month(parts[0]), _parse_month(parts[1], 12)  # a bare-year end is its December
    if end < start:
        raise ValueError(f"range ends before it starts, got {text!r}")
    return start, end


FLAGS = [
    _TEMPLATES, _OUT_DIR,
    _flag("--count", type=_COUNT, required=True, help="train questions"),
    _flag("--dev-count", type=_COUNT, default=0),
    _flag("--test-count", type=_COUNT, default=0),
    _flag("--range", type=_flag_type(_parse_range), default="Jan 1000:Dec 2022",
          help="sampling range for the reference time (default: %(default)s)"),
]


def run(args) -> int:
    from .questions import _l1_renderer, gen_l1, partition_l1
    from .templates import load_templates
    templates = load_templates(args.templates)
    counts = {"train": args.count, "dev": args.dev_count, "test": args.test_count}
    counts = {name: count for name, count in counts.items() if count or name == "train"}
    pool = gen_l1(args.range, sum(counts.values()), args.seed, templates=templates)
    partitions = partition_l1(pool, counts, args.seed)
    # Each split's questions are built as they are written, each through its to_record, which the benchmark's
    # tracer times and counts; writing from the line view, as gen-l1-future does, waits for ROADMAP items 3, then 5.
    _write_questions(args, templates, "l1", {
        split: map(_l1_renderer(templates, split).question, draws, range(len(draws)))
        for split, draws in partitions.items()})
    return EXIT_OK
