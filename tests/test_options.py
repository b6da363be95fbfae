"""Every settable value of the public surface, pinned: the defaulted init fields
of each public dataclass, the defaulted parameters of each public function and
method, and each CLI subcommand's option strings. A change that adds, removes
or re-defaults a knob edits this list, so the change shows in review."""

import argparse
import dataclasses
import inspect
import types

import hdscene
from hdscene.cli import build_parser
from hdscene.resonator import ResonatorConfig
from hdscene.scene import PAPER_SIZES

DEFAULTS = {
    "CodebookSet.generate": {"dim": 1000, "sizes": PAPER_SIZES, "seed": 0},
    "random_scene": {"sizes": PAPER_SIZES},
    "ResonatorConfig": {"max_iterations": 200, "activation": "sign"},
    "run": {"cfg": None, "trace": None},
    "decode_scene": {"cfg": None, "max_runs": 3, "trace": None},
    "estimate_object_count": {"target_similarity": 1.0},
    "ExperimentConfig": {"dim": 1000, "codebook_sizes": PAPER_SIZES, "object_counts": (1, 2, 3),
                         "trials": 1000, "noise_targets": (1.0,), "max_runs": 3,
                         "resonator": ResonatorConfig(), "seed": 0},
}

CLI_OPTIONS = {
    "run": {"--config", "--seed", "--out"},
    "trace": {"--config", "--seed", "--trial", "--out"},
}


def defaulted_parameters(function) -> dict:
    return {p.name: p.default for p in inspect.signature(function).parameters.values()
            if p.default is not p.empty}


def public_defaults() -> dict:
    """Owner name -> {value name: default} over everything in ``hdscene.__all__``."""
    found = {}
    for name in hdscene.__all__:
        obj = getattr(hdscene, name)
        if inspect.isfunction(obj):
            found[name] = defaulted_parameters(obj)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                found[name] = {f.name: f.default if f.default_factory is dataclasses.MISSING
                               else f.default_factory()
                               for f in dataclasses.fields(obj) if f.init
                               and (f.default is not dataclasses.MISSING
                                    or f.default_factory is not dataclasses.MISSING)}
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and isinstance(
                        member, (classmethod, staticmethod, types.FunctionType)):
                    found[f"{name}.{attr}"] = defaulted_parameters(getattr(obj, attr))
    return {owner: values for owner, values in found.items() if values}


def cli_options() -> dict:
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {command: {option for action in parser._actions
                      if not isinstance(action, argparse._HelpAction)
                      for option in action.option_strings}
            for command, parser in subparsers.choices.items()}


def test_public_defaults_are_the_pinned_ones():
    assert public_defaults() == DEFAULTS
    assert sum(len(values) for values in DEFAULTS.values()) == 20


def test_cli_options_are_the_pinned_ones():
    assert cli_options() == CLI_OPTIONS
