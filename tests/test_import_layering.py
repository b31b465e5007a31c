"""Import layering and the OpenBLAS default, each in a fresh interpreter.

Serving imports nothing from the exhibit harness, the workload builders,
the simulator, the accelerator models, the model substrate or the
baseline policies; those load only when something asks for them.  And
``import repro`` starts OpenBLAS with one thread unless the caller set
``OPENBLAS_NUM_THREADS``.  Both are properties of a process's first
imports, so every check runs in a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.attention.baselines  # noqa: F401  (registers the baselines)
from repro.attention.policy import POLICY_REGISTRY

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Packages a server process must not load.
_NOT_SERVING = (
    "repro.eval.workloads",
    "repro.eval.harness",
    "repro.sim",
    "repro.accelerators",
    "repro.model",
    "repro.attention.baselines",
    "repro.attention.flash",
    "repro.core.fp_query",
    "repro.core.ista",
    "repro.core.multibit",
    "repro.core.mx",
    "repro.core.pade_attention",
    "repro.core.validate",
)


def _run(code: str, *args: str, **env_overrides: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": _SRC}
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, *args, "-c", code] if code else [sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _json_out(code: str, **env_overrides: str):
    out = _run(code, **env_overrides)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_serving_stack_loads_no_exhibit_sim_model_or_baseline_module():
    code = (
        "import repro.serve\n"
        "from repro.serve import AsyncPadeServer\n"
        "from repro.core import PadeConfig\n"
        "from repro.engine import PadeEngine\n"
        "PadeEngine(PadeConfig.standard(), policy='pade')\n"
        "import json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({_NOT_SERVING!r}))))\n"
    )
    assert _json_out(code) == []


def test_baselines_load_on_first_request_for_one():
    code = (
        "import json, sys\n"
        "from repro.attention.policy import available_policies, get_policy\n"
        "before = 'repro.attention.baselines' in sys.modules\n"
        "policy = get_policy('h2o')\n"
        "print(json.dumps([before, policy.name, available_policies()]))\n"
    )
    before, name, names = _json_out(code)
    assert not before
    assert name == "h2o"
    assert names == sorted(POLICY_REGISTRY)
    assert len(names) > 1


def test_unknown_policy_still_names_every_choice():
    out = _run("from repro.attention.policy import get_policy\nget_policy('nope')\n")
    assert out.returncode != 0
    assert "'h2o'" in out.stderr and "'pade'" in out.stderr


def test_eval_reexports_resolve_on_first_use():
    code = (
        "import json, sys\n"
        "import repro.eval\n"
        "untouched = 'repro.eval.harness' in sys.modules\n"
        "from repro.eval import harness, build_serving_workload, summarize_serving\n"
        "import repro.eval.harness as H\n"
        "ok = harness is H and callable(build_serving_workload) and callable(summarize_serving)\n"
        "every = all(getattr(repro.eval, n) is not None for n in repro.eval.__all__)\n"
        "listed = set(repro.eval.__all__) <= set(dir(repro.eval))\n"
        "try:\n"
        "    repro.eval.no_such_name\n"
        "    missing = False\n"
        "except AttributeError:\n"
        "    missing = True\n"
        "print(json.dumps([untouched, ok, every, listed, missing]))\n"
    )
    assert _json_out(code) == [False, True, True, True, True]


def test_serve_reexports_resolve_on_first_use():
    code = (
        "import json, repro.serve\n"
        "from repro.serve.server import AsyncPadeServer\n"
        "from repro.serve.client import ServeConnection\n"
        "print(json.dumps([repro.serve.AsyncPadeServer is AsyncPadeServer,\n"
        "                  repro.serve.ServeConnection is ServeConnection,\n"
        "                  all(getattr(repro.serve, n) for n in repro.serve.__all__)]))\n"
    )
    assert _json_out(code) == [True, True, True]


def test_core_reexports_resolve_on_first_use_even_after_their_submodule():
    # Importing repro.core.pade_attention first binds that submodule on
    # the package; the same-named function must still be what the
    # package (and the top-level package) exports.
    code = (
        "import json, sys\n"
        "import repro.core.pade_attention\n"
        "from repro.core.pade_attention import pade_attention as fn\n"
        "import repro, repro.core, repro.attention\n"
        "from repro.core import pade_attention, ista_attention, validate_retention\n"
        "from repro.attention.flash import flash_attention\n"
        "print(json.dumps([pade_attention is fn, repro.core.pade_attention is fn,\n"
        "                  repro.pade_attention is fn, callable(ista_attention),\n"
        "                  callable(validate_retention),\n"
        "                  repro.attention.flash_attention is flash_attention,\n"
        "                  all(getattr(repro.core, n) for n in repro.core.__all__),\n"
        "                  set(repro.core.__all__) <= set(dir(repro.core))]))\n"
    )
    assert _json_out(code) == [True] * 8


def test_server_module_runs_without_a_runpy_warning():
    out = _run("", "-W", "error::RuntimeWarning:runpy", "-m", "repro.serve.server", "--help")
    assert out.returncode == 0, out.stderr
    assert "RuntimeWarning" not in out.stderr


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_openblas_threads_default_to_one_and_a_preset_wins(preset, expected):
    code = "import json, os, repro\nprint(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))\n"
    overrides = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    assert _json_out(code, **overrides) == expected


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_import_starts_no_blas_pool_thread():
    code = (
        "import json, repro, numpy\n"
        "lines = open('/proc/self/status').read().splitlines()\n"
        "print(json.dumps([int(l.split()[1]) for l in lines if l.startswith('Threads:')][0]))\n"
    )
    assert _json_out(code) == 1
