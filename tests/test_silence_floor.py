"""Scale-aware silence floor: no false convergence at n >= 1e8.

Regression suite for the absolute ``p_change <= 1e-15`` floor that used
to decide silence in every engine.  At n = 1e8 the leader fight's true
change probability with 3 leaders left is ``3·2 / (n·(n-1)) ≈ 6e-16`` —
*below* the old floor — so engines declared the configuration silent and
``unique_leader`` stop predicates never saw the last two eliminations.
Silence is now decided on the exact total change weight (zero iff truly
silent), so these tests build the 3-leader endgame at n = 1e8 directly
and require (a) no silence report and (b) convergence to one leader,
while genuinely silent configurations still halt immediately.
"""

import numpy as np
import pytest

from repro.analysis.convergence import is_silent
from repro.core import Population, Rule, StateSchema, V, single_thread
from repro.engine.config import EngineConfig
from repro.engine.silence import CRUMB_GUARD, exact_change_weight, silent_weight
from repro.simulate import make_engine
from repro.workloads import build_workload, unique_leader

N_HUGE = 10**8
ENDGAME_LEADERS = 3


def endgame(n=N_HUGE, leaders=ENDGAME_LEADERS):
    """Leader fight dropped straight into an ``leaders``-leader endgame."""
    wl = build_workload("leader", n=n, leaders=leaders)
    return wl.protocol, wl.population, wl.stop


def followers_only(n=N_HUGE):
    """A truly silent configuration: no leaders left to fight."""
    schema = StateSchema()
    schema.flag("L")
    protocol = single_thread(
        "leader-fight", schema, [Rule(V("L"), V("L"), None, {"L": False})]
    )
    population = Population.from_groups(schema, [({"L": False}, n)])
    return protocol, population


class TestSilenceHelpers:
    def test_exact_weight_three_leader_endgame(self):
        # counts (3 leaders, n-3 followers), q nonzero only on (L, L):
        # weight = 3·2·q_LL, and p_change ~ 6e-16 underflows the old floor
        q_ll = 0.25
        c = np.array([3.0, float(N_HUGE - 3)])
        q = np.array([[q_ll, 0.0], [0.0, 0.0]])
        weight = exact_change_weight(c, q)
        assert weight == pytest.approx(3 * 2 * q_ll)
        pairs_total = float(N_HUGE) * (N_HUGE - 1.0)
        assert weight / pairs_total < 1e-15  # the old floor really did bite
        assert not silent_weight(weight)

    def test_exact_weight_zero_iff_silent(self):
        q = np.array([[0.25, 0.0], [0.0, 0.0]])
        silent_counts = np.array([1.0, float(N_HUGE - 1)])  # lone L: no pair
        assert exact_change_weight(silent_counts, q) == 0.0
        assert silent_weight(0.0)
        assert not silent_weight(5e-324)  # even a denormal weight is alive

    def test_silent_weight_vectorized(self):
        tot = np.array([0.0, 6e-16, 1.5])
        np.testing.assert_array_equal(
            silent_weight(tot), np.array([True, False, False])
        )


class TestCountEngineEndgame:
    def test_not_reported_silent_at_1e8(self):
        protocol, pop, _ = endgame()
        eng = make_engine(protocol, pop, engine="count", seed=0)
        assert not is_silent(eng)
        assert eng._draw_event_gap() is not None

    def test_converges_to_one_leader(self):
        protocol, pop, stop = endgame()
        eng = make_engine(protocol, pop, engine="count", seed=1)
        eng.run(stop=stop, max_events=10)
        assert pop.count(V("L")) == 1
        assert eng.events == ENDGAME_LEADERS - 1
        # the skipped-null gaps really are astronomically long
        assert eng.interactions > 10**12

    def test_true_silence_still_detected(self):
        protocol, pop = followers_only()
        eng = make_engine(protocol, pop, engine="count", seed=2)
        assert is_silent(eng)
        assert eng._draw_event_gap() is None
        eng.run(rounds=5.0)  # budget fast-forwards instead of looping
        assert eng.interactions == 5 * N_HUGE

    def test_crumby_bookkeeping_does_not_fake_aliveness(self):
        # a silent engine whose incremental v picked up fp crumbs must
        # still report silence (the exact recompute decides, not v)
        protocol, pop = followers_only(n=1000)
        eng = make_engine(protocol, pop, engine="count", seed=3)
        eng._v = eng._v + 1e-12  # simulated accumulation crumbs
        assert eng._total_change_weight() != 0.0
        assert eng._total_change_weight() <= CRUMB_GUARD
        assert is_silent(eng)
        assert eng._draw_event_gap() is None


class TestBatchEngineEndgame:
    @pytest.mark.parametrize("compiled", [True, False])
    def test_converges_to_one_leader(self, compiled):
        protocol, pop, stop = endgame()
        cfg = EngineConfig(engine="batch", compiled=compiled, cache=False)
        eng = make_engine(protocol, pop, engine=cfg, seed=4)
        eng.run(stop=stop, max_events=10)
        assert pop.count(V("L")) == 1
        assert eng.stop_verdict is True

    def test_true_silence_fast_forwards(self):
        protocol, pop = followers_only()
        cfg = EngineConfig(engine="batch", cache=False)
        eng = make_engine(protocol, pop, engine=cfg, seed=5)
        eng.run(rounds=3.0)
        assert eng.interactions == 3 * N_HUGE
        assert eng.events == 0


class TestBGHKPUEndgame:
    def test_exact_endgame_converges(self):
        # the acceptance-criteria path: bghkpu's scalar lone-cell loop
        # steps the 3-leader endgame at n = 1e8 on exact geometric gaps
        protocol, pop, stop = endgame()
        cfg = EngineConfig(engine="bghkpu", cache=False)
        eng = make_engine(protocol, pop, engine=cfg, seed=6)
        eng.run(stop=stop, max_events=10)
        assert pop.count(V("L")) == 1
        assert eng.stop_verdict is True
        assert eng.events == ENDGAME_LEADERS - 1
        assert eng.interactions > 10**12

    def test_true_silence_fast_forwards(self):
        protocol, pop = followers_only()
        cfg = EngineConfig(engine="bghkpu", cache=False)
        eng = make_engine(protocol, pop, engine=cfg, seed=7)
        eng.run(rounds=2.0)
        assert eng.interactions == 2 * N_HUGE
        assert eng.events == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestEnsembleEndgame:
    def test_rows_not_retired_at_1e8(self):
        from repro.engine.ensemble import EnsembleEngine

        protocol, pop, stop = endgame()
        eng = EnsembleEngine(
            protocol, pop, rows=2, rng=np.random.default_rng(8), cache=False,
        )
        eng.run(stop=stop, max_events=10)
        for r in range(2):
            assert eng.row_verdict(r) is True, "row {} never converged".format(r)
            assert eng.row_population(r).count(V("L")) == 1


class TestWorkloadParam:
    def test_leader_workload_accepts_leaders(self):
        wl = build_workload("leader", n=100, leaders=3)
        assert wl.population.count(V("L")) == 3
        assert wl.population.n == 100
        assert wl.params == {"n": 100, "leaders": 3}
        assert wl.stop is unique_leader

    def test_leader_workload_default_unchanged(self):
        wl = build_workload("leader", n=50)
        assert wl.population.count(V("L")) == 50

    def test_leader_workload_validates_leaders(self):
        with pytest.raises(ValueError):
            build_workload("leader", n=10, leaders=0)
        with pytest.raises(ValueError):
            build_workload("leader", n=10, leaders=11)
