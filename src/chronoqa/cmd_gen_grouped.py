"""``chronoqa gen-l2`` and ``gen-l3``: questions from each fact group, split
by subject."""

from functools import partial

from .cli import (_OUT_DIR, _TEMPLATES, EXIT_OK, UsageError, _fact_flags, _flag, _flag_type, _group_limits,
                  _load_groups, _write_questions)


def _parse_split_spec(text: str, number: type = int) -> dict:
    spec: dict = {}
    for chunk in text.split(","):
        name, _, raw = chunk.partition(":")
        name = name.strip()
        if not name or not raw:
            raise ValueError(f"split spec must look like 'train:3000,dev:1000', got {text!r}")
        if name in spec:
            raise ValueError(f"split {name!r} is given twice in {text!r}")
        try:
            spec[name] = number(raw)
        except ValueError:
            spec[name] = -1
        if not spec[name] >= 0:  # also rejects nan
            raise ValueError(f"split {name!r} needs a non-negative number, got {raw!r}")
    if number is float and sum(spec.values()) > 1.0 + 1e-9:
        raise ValueError(f"split ratios must sum to at most 1, got {text!r}")
    return spec


FLAGS = [
    _TEMPLATES, *_fact_flags(required=True), *_group_limits(), _OUT_DIR,
    _flag("--split-counts", type=_flag_type(_parse_split_spec, keep_text=True),
          help="e.g. 'train:3000,dev:1000,test:1000'"),
    _flag("--split-ratios", type=_flag_type(partial(_parse_split_spec, number=float), keep_text=True),
          help="e.g. 'train:0.6,dev:0.2,test:0.2'"),
]


def run(args) -> int:
    if args.split_counts and args.split_ratios:
        raise UsageError("give at most one of --split-counts and --split-ratios")
    from .facts import split_subjects
    from .questions import gen_l2, gen_l3
    from .templates import load_templates
    level = args.command[len("gen-"):]
    generator = partial(gen_l2, seed=args.seed) if level == "l2" else gen_l3
    templates = load_templates(args.templates)
    groups = _load_groups(args, templates, args.max_subjects, args.min_facts)
    if args.split_counts:
        partitions = split_subjects(groups, counts=_parse_split_spec(args.split_counts), seed=args.seed)
    elif args.split_ratios:
        partitions = split_subjects(groups, ratios=_parse_split_spec(args.split_ratios, float), seed=args.seed)
    else:
        partitions = {"train": groups}

    def questions(split: str, part_groups: list):
        for group in part_groups:
            yield from generator(group, split=split, templates=templates)

    config = {"facts": args.facts, "snapshot": args.snapshot, "max_subjects": args.max_subjects,
              "min_facts": args.min_facts, "split_counts": args.split_counts,
              "split_ratios": args.split_ratios, "templates": args.templates}
    _write_questions(args, templates, config, level,
                     {name: questions(name, part_groups) for name, part_groups in partitions.items()})
    return EXIT_OK
