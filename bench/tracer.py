"""Traced launcher: run one chronoqa subcommand with spans around calls
into each module.

    python bench/tracer.py SUMMARY.json <subcommand> [args...]

The launcher replaces module bindings (for example
``chronoqa.cli.read_jsonl`` or ``chronoqa.scoring.normalize``) with
wrappers, then calls ``chronoqa.cli.main``. Coarse calls get a span each
(name, start, end, parent), kept in memory; hot leaf functions get a
count-only wrapper. At exit the spans and the per-name self time, call
counts and counters are written to SUMMARY.json. The program's own code is
not changed.
"""

from __future__ import annotations

import json
import os
import sys
import time


def self_times(spans) -> dict[str, float]:
    """Per-name self time: each span's duration minus the time covered by
    its direct children. Spans are ``(name, start, end, parent_index)``
    with ``-1`` for a root; the program is single-threaded, so children of
    one span never overlap."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
    return totals


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name, func, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def counter(self, name, func):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def _rebind(original, wrapper) -> None:
    """Point every chronoqa module binding of ``original`` at ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "chronoqa" or module_name.startswith("chronoqa.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    import chronoqa.cli  # noqa: F401  (loads every module whose bindings are replaced)
    from chronoqa import contexts, facts, jsonl, oracle, questions, scoring, templates, timeline

    def on_read(result, args):
        tracer.add("jsonl.read_jsonl.records", len(result[1]))

    def on_write(result, args):
        tracer.add("jsonl.write_jsonl.records", result)
        tracer.add("jsonl.bytes_written", os.path.getsize(args[0]))

    def on_load(result, args):
        tracer.add("facts.rows_rejected", len(result.diagnostics))
        tracer.add("facts.duplicates_dropped", result.duplicates_dropped)

    def on_groups(result, args):
        tracer.add("facts.groups", len(result))

    def on_solve(result, args):
        tracer.add("oracle.no_valid_answer", int(result.no_valid_answer))

    def on_render(result, args):
        tracer.add("contexts.prompt_bytes", len(result.prompt.encode("utf-8")))

    def on_generated(name):
        return lambda result, args: tracer.add(f"questions.{name}.questions", len(result))

    spanned = [
        (jsonl, "read_jsonl", on_read),
        (jsonl, "write_jsonl", on_write),
        (facts, "load_fact_file", on_load),
        (facts, "build_groups", on_groups),
        (facts, "split_subjects", None),
        (oracle, "index_groups", None),
        (oracle, "solve", on_solve),
        (questions, "gen_l1", on_generated("gen_l1")),
        (questions, "gen_l2", on_generated("gen_l2")),
        (questions, "gen_l3", on_generated("gen_l3")),
        (questions, "partition_l1", None),
        (scoring, "evaluate", None),
        (scoring, "reward_records", None),
        (contexts, "render", on_render),
        (contexts, "mask_corpus", None),
        (templates, "load_templates", None),
    ]
    for module, attr, hook in spanned:
        original = getattr(module, attr)
        _rebind(original, tracer.span(f"{module.__name__.split('.')[-1]}.{attr}", original, hook))
    for module, attr in ((scoring, "normalize"), (timeline, "parse_time"), (timeline, "format_time")):
        original = getattr(module, attr)
        _rebind(original, tracer.counter(f"{module.__name__.split('.')[-1]}.{attr}.calls", original))

    question_cls, prediction_cls = questions.Question, scoring.Prediction
    question_cls.from_record = classmethod(tracer.span(
        "questions.Question.from_record", question_cls.__dict__["from_record"].__func__))
    question_cls.to_record = tracer.span("questions.Question.to_record", question_cls.to_record)
    prediction_cls.from_record = classmethod(tracer.span(
        "scoring.Prediction.from_record", prediction_cls.__dict__["from_record"].__func__))
    table_cls = templates.TemplateTable
    table_cls.l1_matchers = tracer.counter("templates.l1_matchers.calls", table_cls.l1_matchers)


def main(argv: list[str]) -> int:
    summary_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import chronoqa.cli

    code = tracer.span("cli.main", chronoqa.cli.main)(cli_argv)
    calls: dict[str, int] = {}
    for name, _, _, _ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    names = sorted(calls)
    name_ids = {name: i for i, name in enumerate(names)}
    summary = {
        "exit_code": code,
        "self_s": self_times(tracer.spans),
        "calls": calls,
        "counts": tracer.counts,
        "span_names": names,
        "spans": [[name_ids[n], round(s, 7), round(e, 7), p] for n, s, e, p in tracer.spans],
    }
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
