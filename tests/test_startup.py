"""Start-up: each subcommand imports only the modules it uses.

The power solvers load scipy.integrate and scipy.optimize, and the
simulator scipy.special; `run` and `validate` need neither.  This process
has scipy loaded already, so every check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

import pytest

import fwerstream

# a child interpreter imports fwerstream from where this one does
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
LAZY = {"power": ["GaussianMixModel", "cstar_threshold", "expected_true_discoveries", "mixture_cdf",
                  "optimal_gamma_varying", "optimal_q"],
        "sim": ["MetricsReport", "SimConfig", "Stream", "clustered_pi", "estimate_metrics",
                "estimate_metrics_many", "gen_stream"]}


def imported(args, cwd) -> set[str]:
    """The modules a fresh ``python -X importtime ARGS`` imports; it must exit 0."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True,
                          env=CHILD_ENV, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}


def scipy_parts(modules) -> set[str]:
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


PUBLIC_NAMES = [
    "AdaptiveSidak", "AdaptiveSpending", "AddisLocalSpending", "AddisSidak", "AddisSpending", "AlphaSpending",
    "AuditError", "AuditReport", "BudgetError", "ConfigError", "Decision", "DiscardFallback", "DiscardSidak",
    "DiscardSpending", "ExplicitSeries", "ExplicitWeights", "FallbackWeights", "GaussianMixModel", "LagSchedule",
    "LaggedSeriesWeights", "LogQSeries", "MetricsReport", "OneStepWeights", "OnlineFallback", "OnlineProcedure",
    "OnlineSidak", "PROCEDURES", "ProcedureConfig", "QSeries", "SimConfig", "Stream", "StreamError",
    "StreamResult", "WeightSeries", "audit_trace", "clustered_pi", "cstar_threshold", "estimate_metrics",
    "estimate_metrics_many", "expected_true_discoveries", "gen_stream", "kfwer_wrap", "make_runner", "mixture_cdf",
    "optimal_gamma_varying", "optimal_q", "run_stream", "series_from_config",
]
SUBMODULES = ["audit", "config", "core", "errors", "fast", "series", "spec"]


def test_package_import_loads_no_submodule_and_no_numpy(tmp_path):
    modules = imported(["-c", "import fwerstream"], tmp_path)
    assert "fwerstream" in modules
    assert {m for m in modules if m.startswith("fwerstream.")} == set()
    assert {m for m in modules if m.split(".")[0] in ("numpy", "scipy")} == set()


def test_public_names_are_pinned():
    assert fwerstream.__all__ == PUBLIC_NAMES


def test_submodules_resolve_after_a_bare_import(tmp_path):
    code = ("import importlib, json, sys, fwerstream\n"
            "print(json.dumps([m for m in sys.argv[1:] if getattr(fwerstream, m) is not "
            "importlib.import_module('fwerstream.' + m) or m not in dir(fwerstream)]))")
    proc = subprocess.run([sys.executable, "-c", code, *SUBMODULES], capture_output=True, text=True,
                          env=CHILD_ENV, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("module", ["fwerstream", "fwerstream.cli"])
def test_package_and_cli_load_no_scipy(tmp_path, module):
    modules = imported(["-c", f"import {module}"], tmp_path)
    assert module in modules
    assert scipy_parts(modules) == set()


def test_run_and_validate_load_no_scipy(tmp_path):
    (tmp_path / "in.csv").write_text("p\n0.001\n0.5\n0.2\n")
    (tmp_path / "cfg.json").write_text(json.dumps({"procedure": "addis-spending", "alpha": 0.2}))
    run = imported(["-m", "fwerstream", "run", "--input", "in.csv", "--config", "cfg.json", "--out", "o.csv"],
                   tmp_path)
    assert "fwerstream.fast" in run and scipy_parts(run) == set()
    assert (tmp_path / "o.csv").read_text().count("\n") == 4
    validate = imported(["-m", "fwerstream", "validate", "--config", "cfg.json"], tmp_path)
    assert "fwerstream.config" in validate and scipy_parts(validate) == set()


def test_sim_loads_no_solver_module(tmp_path):
    modules = imported(["-c", "import fwerstream.sim"], tmp_path)
    assert "scipy.special" in modules
    assert not {"scipy.integrate", "scipy.optimize"} & modules


CHECK_NAMES = """
import importlib, json, sys
import fwerstream
if sys.argv[1] == "star":
    names = {}
    exec("from fwerstream import *", names)
else:
    names = {n: getattr(fwerstream, n) for n in fwerstream.__all__}
lazy = json.loads(sys.argv[2])
bad = []
for n in fwerstream.__all__:
    home = next((m for m, ns in lazy.items() if n in ns), None)
    obj = names.get(n)
    if home is not None:
        if obj is not getattr(importlib.import_module("fwerstream." + home), n) or vars(fwerstream).get(n) is not obj:
            bad.append(n)
    elif obj is None or getattr(importlib.import_module(getattr(obj, "__module__", "fwerstream.spec")), n) is not obj:
        bad.append(n)
print(json.dumps(bad))
"""


@pytest.mark.parametrize("how", ["getattr", "star"])
def test_every_public_name_resolves_to_its_home_object(tmp_path, how):
    # in a fresh interpreter, so the lazy names are resolved (and cached) by this access
    proc = subprocess.run([sys.executable, "-c", CHECK_NAMES, how, json.dumps(LAZY)], capture_output=True,
                          text=True, env=CHILD_ENV, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == []


def test_lazy_names_are_public_and_listed():
    lazy = {n for names in LAZY.values() for n in names}
    assert lazy <= set(fwerstream.__all__)
    assert set(fwerstream.__all__) <= set(dir(fwerstream))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fwerstream.no_such_name  # noqa: B018
    assert not hasattr(fwerstream, "sim_cells")
    with pytest.raises(ImportError):
        from fwerstream import no_such_name  # noqa: F401
