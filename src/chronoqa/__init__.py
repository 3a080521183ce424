"""chronoqa: build, solve, and score time-sensitive QA datasets.

The toolkit turns time-scoped knowledge-base facts into three levels of
temporal questions (time-time, time-event, event-event), renders prompts for
closed-book / open-book / structured-facts settings, answers any generated
question with a symbolic solver, and scores predictions with exact match,
token F1, year error metrics, and a temporally-aware reward.
"""

__version__ = "0.1.0"

# Each public name and the module that defines it. A name is imported on
# first use (PEP 562), so ``import chronoqa`` loads no submodule.
_EXPORTS = {
    "contexts": ("AnnotatedDocument", "RenderedExample", "mask_spans", "render", "unmask"),
    "facts": ("Fact", "FactGroup", "FactStore", "build_groups", "ingest", "load_fact_file", "split_subjects"),
    "metrics": ("EvalReport", "evaluate", "score_em", "score_f1", "score_numeric"),
    "oracle": ("OracleAnswer", "solve", "solve_l1", "solve_l2", "solve_l3"),
    "questions": ("gen_l1", "gen_l1_future", "gen_l2", "gen_l3"),
    "records": ("Question",),
    "rewards": ("RewardRecord", "reward"),
    "scoring": ("Prediction", "normalize"),
    "templates": ("TemplateTable", "load_templates"),
    "timeline": ("TimePoint", "compare", "format_time", "parse_time"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, so -X importtime reports it
    value = globals()[name] = getattr(__import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[name]), name)
    return value
