"""Command-line entry point.

Subcommands compose through JSONL files only; there is no hidden state.
Every output file starts with a metadata line recording the tool version,
seed, and a hash of the effective config, so artifacts are traceable and
runs are reproducible byte for byte.

Exit codes: 0 success, 1 usage, 2 data validation, 3 internal, 141 (128 +
SIGPIPE, with nothing on stderr) when the reader of an output pipe has gone.

The files a run keeps for later runs are the input caches,
``<file>.chronoqa-cache`` beside each regular fact, question or prediction
file it reads (see ``jsonl.load_cached``). Each holds what loading that
file produced, under a key made from the file's bytes and every setting
the load reads, so a run prints and writes the same with or without them:
deleting one changes nothing but time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import TYPE_CHECKING

from . import __version__
from .jsonl import blake2b, write_jsonl

if TYPE_CHECKING:
    from .facts import FactGroup

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141

SEED_ENV_VAR = "CHRONOQA_SEED"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to our exit codes
        raise UsageError(message)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _parse_month(text: str, bare_year_month: int = 1) -> int:
    from .timeline import parse_month
    return parse_month(text.strip(), bare_year_month)


def _parse_count(text: str) -> int:
    if int(text) < 0:
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _flag_type(parse):
    """An argparse type from ``parse``: its ValueError is a usage error raised
    while parsing, before any file is read."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


# What _meta.config leaves out: the output paths, the seed (a field of its
# own) and argparse's own two entries.
_NOT_CONFIG = frozenset({"out", "out_dir", "seed", "command", "func"})


def _meta(args, render_version: str) -> dict:
    """An output file's header. Its config holds the parsed value of every
    other flag the subcommand declares, so two runs on the same input files
    and seed that write different records have different ``config_hash``es."""
    config = {name: value for name, value in vars(args).items() if name not in _NOT_CONFIG}
    return {
        "tool": "chronoqa",
        "tool_version": __version__,
        "command": args.command,
        "seed": args.seed,
        "render_version": render_version,
        "config": config,
        "config_hash": blake2b(json.dumps(config, sort_keys=True).encode("utf-8"), digest_size=8).hexdigest(),
    }


def _load_groups(args, templates, max_subjects: int = 1 << 60, min_facts: int = 1) -> list[FactGroup]:
    """The fact file's groups. The defaults keep every group: solving and
    rendering must see every group a question may reference."""
    from .facts import build_groups, load_fact_file
    store = load_fact_file(args.facts, snapshot=args.snapshot, relation_codes=templates.relation_codes,
                           strict=args.strict)
    for diagnostic in store.diagnostics:
        print(f"warning: {args.facts}: {diagnostic}", file=sys.stderr)
    return build_groups(store, args.seed, max_subjects_per_relation=max_subjects, min_facts=min_facts)


def _write_records(path, records, meta: dict, noun: str, encode) -> None:
    count = write_jsonl(str(path), records, meta, encode=encode)
    print(f"wrote {count} {noun} to {path}")


def _write_questions(args, templates, level: str, partitions: dict) -> None:
    """Write each split's questions to ``{out_dir}/{level}_{split}.jsonl``."""
    from pathlib import Path

    from .records import record_line
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = _meta(args, templates.render_version)
    for split, questions in partitions.items():
        _write_records(out_dir / f"{level}_{split}.jsonl", (q.to_record() for q in questions), meta,
                       "questions", record_line)


# ---------------------------------------------------------------------------
# parser: one declaration per subcommand, listing only the flags it reads

def _flag(*names: str, **kwargs) -> tuple:
    return names, kwargs


_COUNT = _flag_type(_parse_count)
_TEMPLATES = _flag("--templates", help="path to a custom template JSON file")
_QUESTIONS = _flag("--questions", required=True)
_PREDICTIONS = _flag("--predictions", required=True)
_OUT = _flag("--out", required=True)
_OUT_DIR = _flag("--out-dir", required=True)


def _fact_flags(required: bool = False) -> list:
    from .timeline import DEFAULT_SNAPSHOT, format_month
    return [
        _flag("--facts", required=required, help="fact file (JSONL quintuplets)"),
        _flag("--snapshot", type=_flag_type(_parse_month), default=format_month(DEFAULT_SNAPSHOT),
              help="KB snapshot month closing ongoing facts (default: %(default)s)"),
        _flag("--strict", action="store_true", help="fail on the first malformed fact row"),
    ]


def _group_limits() -> list:
    from .facts import MAX_SUBJECTS_PER_RELATION, MIN_FACTS_PER_GROUP
    return [
        _flag("--max-subjects", type=_COUNT, default=MAX_SUBJECTS_PER_RELATION,
              help="subject cap per relation (default: %(default)s)"),
        _flag("--min-facts", type=_COUNT, default=MIN_FACTS_PER_GROUP,
              help="minimum facts per surviving group (default: %(default)s)"),
    ]


# name: (the module with its handler ``run`` and its ``FLAGS``, help). Every
# subcommand also takes --seed. build_parser imports only the chosen
# subcommand's module, so a process compiles no other subcommand's code. A
# module imports only untraced names at its top: it loads after a tracer has
# rebound module functions, so it reaches those through an import at call time.
SUBCOMMANDS = {
    "gen-l1": ("cmd_gen_l1", "generate relative-time questions"),
    "gen-l1-future": ("cmd_gen_l1_future", "generate the 2022-2040 future test set"),
    "gen-l2": ("cmd_gen_grouped", "generate L2 questions from a fact file"),
    "gen-l3": ("cmd_gen_grouped", "generate L3 questions from a fact file"),
    "render": ("cmd_render", "render prompts for a setting"),
    "mask": ("cmd_mask", "mask entity/temporal spans in annotated documents"),
    "solve": ("cmd_solve", "answer questions with the symbolic solver"),
    "eval": ("cmd_eval", "score predictions against questions"),
    "reward": ("cmd_reward", "compute per-prediction rewards"),
    "stats": ("cmd_stats", "dataset statistics for fact and question files"),
}


# --help shows the docstring up to the cache note, which is for readers of the code
_DESCRIPTION = __doc__ and __doc__.partition("\nThe files a run keeps")[0]  # None under -OO


def build_parser(argv: list[str]) -> _Parser:
    """A parser that declares the flags of only the subcommand ``argv``
    names: its first word not starting with ``-``. When that is ``argv``'s
    first word, the parser holds that subcommand alone; otherwise (help,
    version, a flag first, no or an unknown subcommand) it lists them all."""
    chosen = next((word for word in argv if not word.startswith("-")), None)
    parser = _Parser(prog="chronoqa", description=_DESCRIPTION,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"chronoqa {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    alone = argv[:1] == [chosen] and chosen in SUBCOMMANDS  # nothing can need another subcommand's parser
    for name in [chosen] if alone else SUBCOMMANDS:
        module, help_text = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if name == chosen:
            # __import__ rather than importlib.import_module, so -X importtime reports it
            command = __import__(f"chronoqa.{module}", fromlist=["run"])
            p.add_argument("--seed", type=int, default=None, help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
            for names, kwargs in command.FLAGS:
                p.add_argument(*names, **kwargs)
            p.set_defaults(func=command.run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        try:
            args = parser.parse_args(argv)
        except UsageError:
            if argv[0].startswith("-"):  # e.g. 'chronoqa --seed 3 gen-l1'
                flag = argv[0].partition("=")[0]
                raise UsageError(f"{flag} goes after the subcommand: chronoqa SUBCOMMAND {flag} ...") from None
            raise
        if not getattr(args, "command", None):
            raise UsageError("a subcommand is required (see --help)")
        if args.seed is None:
            args.seed = _default_seed()
        collecting = gc.isenabled()
        gc.disable()  # every record a run builds is acyclic; the collector would only re-scan them
        try:
            return args.func(args)
        finally:
            if collecting:
                gc.enable()
    except UsageError as exc:
        print(f"chronoqa: error [E_USAGE] {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # not a data error: the run ends as a producer cut off by its reader does
        return EXIT_PIPE
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"chronoqa: error [E_DATA] {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # anything unplanned is an internal error
        print(f"chronoqa: error [E_INTERNAL] {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # through the package entry point: the subcommand modules import chronoqa.cli, not this copy
    from chronoqa.__main__ import run
    run()
