"""The v1 API surface: no deprecation debt left anywhere in repro.*.

The RunResult delegation shim and the PR-1-era ``build_*`` kernel
aliases are gone; nothing importable under :mod:`repro` may emit a
``DeprecationWarning``.  This test turns those warnings into errors
while importing every submodule and exercising a representative
workload, so any future shim has to be introduced deliberately.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re
import warnings

import numpy as np
import pytest

import repro


def _all_submodules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return names


class TestNoDeprecationWarnings:
    def test_import_everything(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in _all_submodules():
                importlib.import_module(name)

    def test_representative_workload(self):
        from repro.arch import AMPERE
        from repro.kernels import NaiveGemmConfig, build
        from repro.sim import Simulator

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            kernel = build(NaiveGemmConfig(16, 16, 16, grid=(2, 2),
                                           threads=(2, 2)))
            rng = np.random.default_rng(0)
            arrays = {
                "A": (rng.random((16, 16)) - 0.5).astype(np.float16),
                "B": (rng.random((16, 16)) - 0.5).astype(np.float16),
                "C": np.zeros((16, 16), np.float16),
            }
            sim = Simulator(AMPERE)
            result = sim.run(kernel, arrays, sanitize=True, profile=True)
            assert result.profile is not None


class TestArchRegistrySurface:
    """The capability-registry redesign: names stay inside repro.arch."""

    def test_no_arch_name_comparisons_outside_repro_arch(self):
        """Feature dispatch goes through ``arch.supports(...)``.

        A new generation must be a registration in ``repro.arch``, not
        a grep: no module outside it may compare against architecture
        name strings or branch on SM version numbers.
        """
        src = pathlib.Path(repro.__file__).resolve().parent
        names = r"(?:ampere|volta|hopper|sm[0-9]{2})"
        quoted = rf"""["']{names}["']"""
        patterns = [
            re.compile(rf"[=!]=\s*{quoted}"),
            re.compile(rf"{quoted}\s*[=!]="),
            re.compile(rf"\bin\s*[\(\[\{{]\s*{quoted}"),
            re.compile(r"\.sm\s*(?:[<>]=?|[=!]=)"),
        ]
        offenders = []
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src)
            if rel.parts[0] == "arch":
                continue
            for lineno, line in enumerate(
                    path.read_text().splitlines(), start=1):
                if any(p.search(line) for p in patterns):
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
        assert not offenders, (
            "architecture-name string comparisons outside repro/arch/ "
            "(use arch.supports(...) instead):\n" + "\n".join(offenders)
        )


class TestRetiredSurface:
    def test_kernel_aliases_gone(self):
        from repro.kernels import gemm, layernorm, softmax

        assert not hasattr(gemm, "build_naive_gemm")
        assert not hasattr(layernorm, "build_layernorm")
        assert not hasattr(softmax, "build_softmax")
        for module in (gemm, layernorm, softmax):
            assert hasattr(module, "build")
            # Tuned kernels come from ``tune(...).build_kernel()`` only.
            assert not hasattr(module, "from_tuned")

    def test_every_kernel_builder_is_registered(self):
        """A family's kernel has one description, its config: every
        public ``build*`` function of a kernel module is a config
        builder in ``BUILDERS``, apart from the three GEMM bodies the
        epilogue kernel composes."""
        import inspect

        import repro.kernels
        from repro.kernels import BUILDERS, gemm_optimized

        bodies = {gemm_optimized.build_ampere_tc_gemm,
                  gemm_optimized.build_ampere_tc_gemm_pipelined,
                  gemm_optimized.build_volta_tc_gemm}
        registered = set(BUILDERS.values())
        unregistered = []
        for info in pkgutil.iter_modules(repro.kernels.__path__,
                                         prefix="repro.kernels."):
            module = importlib.import_module(info.name)
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if (name.startswith("build") and fn.__module__ == info.name
                        and fn not in registered and fn not in bodies):
                    unregistered.append(f"{info.name}.{name}")
        assert not unregistered, unregistered

    def test_config_surface_trimmed(self):
        import repro.kernels
        import repro.tuner
        from repro.kernels import KernelConfig

        assert not hasattr(repro.kernels, "CONFIG_TYPES")
        assert not hasattr(KernelConfig, "as_dict")
        assert not hasattr(KernelConfig, "replace")
        assert "swizzle_for_row" not in repro.tuner.__all__

    def test_run_result_delegation_gone(self):
        from repro.arch import AMPERE
        from repro.kernels import NaiveGemmConfig, build
        from repro.sim import Simulator

        kernel = build(NaiveGemmConfig(16, 16, 16, grid=(2, 2),
                                       threads=(2, 2)))
        arrays = {
            "A": np.zeros((16, 16), np.float16),
            "B": np.zeros((16, 16), np.float16),
            "C": np.zeros((16, 16), np.float16),
        }
        result = Simulator(AMPERE).run(kernel, arrays)
        with pytest.raises(AttributeError):
            result.shared_bytes


class TestOneEngine:
    """The plan engine is the only engine: the per-lane reference
    interpreter lives with the tests, and no option selects it."""

    def test_run_options_gone(self):
        import repro.sim

        assert "RunOptions" not in repro.sim.__all__
        assert not hasattr(repro.sim, "RunOptions")
        with pytest.raises(ImportError):
            importlib.import_module("repro.sim.options")

    def test_observer_keywords(self):
        """Observers are asked for by keyword only, and only these."""
        from repro.conformance.harness import run_all, run_case
        from repro.graph import Network
        from repro.graph.executor import execute
        from repro.serve import CapturedGraph, KernelServer
        from repro.sim import Simulator

        observers = {"sanitize", "profile"}
        for entry, want in [
            (Simulator.run, {"sanitize": False, "profile": False}),
            (CapturedGraph.capture, {"sanitize": False, "profile": False}),
            (CapturedGraph.replay, {"sanitize": None, "profile": None}),
            (KernelServer, {"sanitize": False, "profile": False}),
            (Network.run, {"sanitize": False}),
            (execute, {"sanitize": False}),
            (run_case, {}),
            (run_all, {}),
        ]:
            params = inspect.signature(entry).parameters
            assert "options" not in params, entry
            got = {name: p.default for name, p in params.items()
                   if name in observers}
            assert got == want, entry
            assert all(params[name].kind is inspect.Parameter.KEYWORD_ONLY
                       for name in got), entry

    def test_engine_keyword_rejected(self):
        from repro.arch import AMPERE
        from repro.kernels import NaiveGemmConfig, build
        from repro.sim import Simulator

        kernel = build(NaiveGemmConfig(16, 16, 16, grid=(2, 2),
                                       threads=(2, 2)))
        arrays = {name: np.zeros((16, 16), np.float16)
                  for name in ("A", "B", "C")}
        with pytest.raises(TypeError):
            Simulator(AMPERE).run(kernel, arrays, engine="reference")

    def test_sim_exports_no_interpreter(self):
        import repro.sim

        for name in ("ExecCtx", "ENGINES", "resolve_run_options"):
            assert name not in repro.sim.__all__
            assert not hasattr(repro.sim, name)

    def test_no_global_index_state(self):
        """Offset tables are values and compiled views belong to their
        plan: no switch selects an index compiler, and no process-global
        accessor or tile-view cache is exported."""
        import repro.sim
        from repro.sim import access

        for name in ("TensorAccessor", "accessor", "clear_accessor_caches",
                     "get_index_compiler", "set_index_compiler",
                     "index_compiler", "tile_views"):
            assert name not in repro.sim.__all__
            assert not hasattr(repro.sim, name)
        for name in ("TensorAccessor", "accessor", "clear_accessor_caches",
                     "index_compiler", "_ACCESSOR_CACHE", "_TILE_VIEWS"):
            assert not hasattr(access, name)

    def test_src_never_imports_tests(self):
        src = pathlib.Path(repro.__file__).resolve().parent
        pattern = re.compile(r"^\s*(?:from|import)\s+tests\b", re.M)
        offenders = [str(path.relative_to(src))
                     for path in sorted(src.rglob("*.py"))
                     if pattern.search(path.read_text())]
        assert not offenders, offenders


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


class TestBenchmarkSpans:
    """The traced benchmark times each layer by patching its public
    functions where callers look them up (``perfbench/layers.py``);
    every one of those names must stay where it is patched."""

    @pytest.fixture
    def layers(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import layers

        return layers

    def test_patched_names_exist(self, layers):
        from repro.graph import executor
        from repro.serve import graph as serve_graph
        from repro.sim.interp import Simulator
        from repro.sim.plan import LaunchPlan, PlanCache
        from repro.sim.trace import PlanTrace

        for owner, attr in [
            (executor, "execute"), (executor, "count_kernel"),
            (serve_graph, "record_trace"), (PlanTrace, "replay"),
            (LaunchPlan, "replay"), (PlanCache, "lookup"),
            (Simulator, "run"), (serve_graph.CapturedGraph, "capture"),
            (serve_graph.CapturedGraph, "replay"),
        ]:
            assert callable(getattr(owner, attr)), (owner, attr)

    def test_tracing_enters_and_restores(self, layers):
        from repro.sim.trace import PlanTrace

        import spans

        original = PlanTrace.__dict__["replay"]
        with layers.Tracing(spans.Recorder()):
            assert PlanTrace.__dict__["replay"] is not original
        assert PlanTrace.__dict__["replay"] is original

    def test_warm_network_runs_show_as_trace_replay(self, layers):
        """A warm run's time lands in the ``sim.trace.replay`` span."""
        import spans

        net = repro.network("DistilBERT")
        launches = len(net.lower("ampere").launches)
        net.run(seed=0)
        recorder = spans.Recorder()
        with layers.Tracing(recorder):
            assert net.run(seed=1).passed
        stats = recorder.stats()
        assert stats["sim.trace.replay"]["calls"] == launches
        for span in ("sim.run", "sim.replay", "sim.plan_cache.lookup"):
            assert span not in stats, span
