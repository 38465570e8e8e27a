"""The benchmark's contract with the program (``perfbench/``).

``perfbench/run.py`` reaches into the program in two ways that no other
test covers: its traced run wraps named layer entry points
(``perfbench/tracing.WRAPPED``), and it builds every compile's
``DenaliConfig`` from the CLI's parsed defaults
(``perfbench/workloads.make_config``).  A refactor that renames a hooked
method or drops a CLI option the config reads breaks the benchmark
without failing any program test; these tests fail first instead.
"""

import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def _load(name):
    """Import ``perfbench/<name>.py`` under a private module name."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs: its dataclasses look their module up.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class TestTracerHooks:
    def test_install_wraps_every_entry_point_and_uninstall_restores(
        self, tracing
    ):
        originals = {}
        for module_name, path, _span in tracing.WRAPPED:
            owner, attr = _resolve(module_name, path)
            assert attr in owner.__dict__, "%s.%s" % (module_name, path)
            originals[(module_name, path)] = owner.__dict__[attr]

        tracer = tracing.Tracer()
        tracer.install()
        try:
            for module_name, path, _span in tracing.WRAPPED:
                owner, attr = _resolve(module_name, path)
                wrapper = owner.__dict__[attr]
                assert wrapper is not originals[(module_name, path)]
                assert wrapper.__wrapped__ is originals[(module_name, path)]
        finally:
            tracer.uninstall()

        for module_name, path, _span in tracing.WRAPPED:
            owner, attr = _resolve(module_name, path)
            assert owner.__dict__[attr] is originals[(module_name, path)]

    def test_span_names_are_reported_layers(self, tracing):
        for _module, _path, span in tracing.WRAPPED:
            assert span in tracing.LAYERS or span == tracing.ROOT


class TestConfigFromCliDefaults:
    def test_every_target_and_extraction_builds_a_config(self, workloads):
        from repro.core.pipeline import EXTRACTION_MODES, DenaliConfig
        from repro.core.probes import SearchStrategy
        from repro.isa.targets import target_names

        for target in target_names():
            for extraction in EXTRACTION_MODES:
                args = workloads.cli_defaults(target, extraction)
                config = workloads.make_config(args)
                assert isinstance(config, DenaliConfig)
                assert config.target == target
                assert config.extraction == extraction
                assert isinstance(config.strategy, SearchStrategy)
                summary = workloads.settings_summary(args)
                assert summary["extraction"] == extraction
