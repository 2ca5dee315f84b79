"""Trace-driven scenario engine: replay churn against live daemons.

The scenario stack joins the repo's two halves.  The discrete-event
simulator (:mod:`repro.p2p`) knows how peers *behave* -- lifetimes,
availability cycles, recorded churn traces -- and the network stack
(:mod:`repro.net`) knows how the code *survives* -- real daemons, real
TCP, real repair traffic.  A scenario compiles the former into a
deterministic :class:`Schedule` of timed cluster events and executes it
against the latter with a :class:`ScenarioRunner`, asserting after every
event window that the durability story holds: files reconstruct whenever
``k`` pieces are live, repair restores redundancy within a bounded
number of maintenance rounds, and nothing silently corrupts.

Everything is a pure function of ``(churn source, seed, params)``: two
runs with the same inputs produce identical event histories and
identical invariant outcomes, which the ``scenario`` test tier asserts
and the JSON report makes replayable (``repro scenario replay``).
"""

from repro.scenario.models import (
    MODELS,
    ChurnModel,
    CorrelatedFailureModel,
    DiurnalModel,
    ExponentialChurnModel,
    FlashCrowdModel,
    StragglerModel,
    compile_model,
)
from repro.scenario.runner import (
    REPORT_FORMAT,
    SUPPORTED_REPORT_FORMATS,
    ScenarioReport,
    ScenarioRunner,
    WindowRecord,
)
from repro.scenario.schedule import (
    ACTIONS,
    SCHEDULE_FORMAT,
    ScenarioEvent,
    Schedule,
)

__all__ = [
    "ACTIONS",
    "MODELS",
    "REPORT_FORMAT",
    "SCHEDULE_FORMAT",
    "SUPPORTED_REPORT_FORMATS",
    "ChurnModel",
    "CorrelatedFailureModel",
    "DiurnalModel",
    "ExponentialChurnModel",
    "FlashCrowdModel",
    "ScenarioEvent",
    "ScenarioReport",
    "ScenarioRunner",
    "Schedule",
    "StragglerModel",
    "WindowRecord",
    "compile_model",
]
