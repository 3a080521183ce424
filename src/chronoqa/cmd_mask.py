"""``chronoqa mask``: mask a share of each annotated document's spans."""

import sys

from .cli import _OUT, EXIT_OK, _flag, _flag_type, _meta
from .contexts import DEFAULT_SENTINEL_PATTERN, sentinel_parts


def _parse_ratio(text: str) -> float:
    if not 0 < float(text) <= 1:  # also rejects nan
        raise ValueError(f"expected a number in (0, 1], got {text!r}")
    return float(text)


FLAGS = [
    _flag("--docs", required=True), _OUT,
    _flag("--ratio", type=_flag_type(_parse_ratio), default=0.5,
          help="fraction of spans to mask (default: %(default)s)"),
    _flag("--sentinel-pattern", type=_flag_type(sentinel_parts, keep_text=True), default=DEFAULT_SENTINEL_PATTERN,
          help="sentinel text: {k} once, with text on both sides, neither side starting with a digit, "
               "and no copy of the first character after {k} (default: %(default)s)"),
]


def run(args) -> int:
    from .contexts import AnnotatedDocument, mask_corpus, masked_line
    from .jsonl import load_jsonl, write_jsonl
    from .templates import RENDER_FORMAT
    _, docs = load_jsonl(args.docs, AnnotatedDocument.from_record)
    masked, diagnostics = mask_corpus(docs, args.ratio, args.seed, args.sentinel_pattern)
    for message in diagnostics:
        print(f"warning: {args.docs}: {message}", file=sys.stderr)
    config = {"docs": args.docs, "ratio": args.ratio, "sentinel_pattern": args.sentinel_pattern}
    count = write_jsonl(args.out, masked, _meta(args, str(RENDER_FORMAT), config), masked_line)
    print(f"wrote {count} masked documents to {args.out} ({len(diagnostics)} skipped)")
    return EXIT_OK
