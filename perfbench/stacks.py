"""Protocol and population builders of the benchmark's workloads.

Shared by the in-process jobs and the cold set-up probe, so both build
exactly the same inputs.  Sizes and engines live here.
"""

from __future__ import annotations

#: ``clock``: the registered C_o oscillator + phase clock (168 states).
CLOCK_N = 10**6
CLOCK_ENGINE = "bghkpu"

#: ``hierarchy``: two-level clock hierarchy + elimination thread.  The
#: engine is pinned: ``auto`` resolves to ``batch`` here, which spent 157 s
#: inside ``make_engine`` exploring the closure up to the 1 024-state
#: compile limit before falling back to the lazy path.
HIERARCHY_N = 240
HIERARCHY_X = 2
HIERARCHY_K = 4
HIERARCHY_MODULE = 12
HIERARCHY_ENGINE = "matching"

#: ``service``: small epidemic sweeps submitted to ``python -m repro serve``.
SERVICE_N = 2000
SERVICE_ENGINE = "batch"


def build_hierarchy(n: int = HIERARCHY_N):
    """The two-level stack from the E4 deep start (as in the hierarchy tests)."""
    from repro.clocks import ClockHierarchy, HierarchyParams
    from repro.control import elimination_thread
    from repro.core import Population, Protocol, StateSchema
    from repro.oscillator import strong_value, weak_value

    schema = StateSchema()
    hierarchy = ClockHierarchy(
        schema,
        HierarchyParams(levels=2, module=HIERARCHY_MODULE, k=HIERARCHY_K),
    )
    protocol = Protocol(
        "stack", schema, hierarchy.threads + [elimination_thread()]
    )
    base = hierarchy.initial_assignment(weak_value(0))
    oscillators = ("osc1", "osc2", "osc2_new")
    groups = []
    for species, frac in ((strong_value(0), 0.8), (weak_value(1), 0.17)):
        group = dict(base)
        group.update({name: species for name in oscillators})
        groups.append((group, int(frac * (n - HIERARCHY_X))))
    rest = dict(base)
    rest.update({name: weak_value(2) for name in oscillators})
    groups.append((rest, n - HIERARCHY_X - sum(c for _, c in groups)))
    marked = dict(base)
    marked["X"] = True
    groups.append((marked, HIERARCHY_X))
    return protocol, Population.from_groups(schema, groups)


def build(workload: str):
    """(protocol, population, engine name) of an in-process workload."""
    from repro.workloads import build_workload

    if workload == "clock":
        w = build_workload("clock", n=CLOCK_N)
        return w.protocol, w.population, CLOCK_ENGINE
    if workload == "hierarchy":
        protocol, population = build_hierarchy()
        return protocol, population, HIERARCHY_ENGINE
    raise ValueError("no in-process build for workload {!r}".format(workload))
