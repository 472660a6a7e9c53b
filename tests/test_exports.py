import argparse
import importlib
import pkgutil

import incideals
from incideals.asymptotics import SERIES_METRICS
from incideals.cli import build_parser


def test_exports_resolve_and_cli_metrics_match():
    modules = [incideals] + [
        importlib.import_module(f"incideals.{info.name}")
        for info in pkgutil.iter_modules(incideals.__path__)
    ]
    for mod in modules:
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, (mod.__name__, missing)
    subs = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    metric = next(a for a in subs.choices["series"]._actions if a.dest == "metric")
    assert tuple(metric.choices) == SERIES_METRICS
