"""Experiment harness regenerating every table and figure of the paper.

* :mod:`repro.eval.workloads` — named benchmark workloads + measured
  pipeline statistics (keep fractions, mean planes) that parameterize the
  analytic models.
* :mod:`repro.eval.metrics` — reductions, speedups, geometric means.
* :mod:`repro.eval.serving_metrics` — serving currency: TTFT / TPOT /
  queueing-delay percentiles, throughput, pool occupancy.
* :mod:`repro.eval.harness` — one function per experiment (``fig2_*`` ...
  ``fig26_*``, ``table1`` ... ``table3``), each returning plain data.
* :mod:`repro.eval.reporting` — ASCII renderers used by the benches.

The names below resolve on first use (PEP 562), so a server that needs
only :mod:`repro.eval.serving_metrics` never loads the exhibit harness
or the workload builders, and with them the simulator, accelerator and
model packages.
"""

from repro._lazy import lazy_exports

#: public name -> submodule that defines it (a submodule maps to itself).
_EXPORTS = {
    "WORKLOADS": "workloads",
    "Workload": "workloads",
    "PipelineStats": "workloads",
    "measure_pipeline_stats": "workloads",
    "build_attention_workload": "workloads",
    "build_serving_workload": "workloads",
    "poisson_arrival_times": "workloads",
    "trace_arrival_times": "workloads",
    "RequestTiming": "serving_metrics",
    "latency_percentiles": "serving_metrics",
    "summarize_serving": "serving_metrics",
    "timing_from_result": "serving_metrics",
    "geomean": "metrics",
    "reduction": "metrics",
    "speedup": "metrics",
    "harness": "harness",
    "print_table": "reporting",
    "print_series": "reporting",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
