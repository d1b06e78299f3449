"""Memoized rule evaluation in ``Protocol.transition`` and the lazy path.

``Protocol.transition`` evaluates every guard once per distinct state code
and fires only the rules whose initiator and responder masks both accept
the pair.  These tests hold it to the straightforward per-rule evaluation
(unpack both codes, match, apply) kept here as a reference, check that the
shared state views are read-only, and pin the agent arrays of the lazy
``apply_pairs`` kernel on the two-level clock hierarchy.
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.clocks import ClockHierarchy, HierarchyParams
from repro.control import elimination_thread
from repro.core import (
    DynamicRule,
    Population,
    Protocol,
    Rule,
    State,
    StateSchema,
    StateView,
    Thread,
    V,
    coin_rule,
    rule,
)
from repro.engine import ArrayEngine, MatchingEngine, protocol_fingerprint
from repro.oscillator import strong_value, weak_value


def reference_transition(protocol, code_a, code_b):
    """Per-rule evaluation: fresh mutable states for every rule."""
    schema = protocol.schema
    merged = {}
    for r, draw_p in protocol.rule_draw_probabilities():
        a = schema.unpack(code_a)
        b = schema.unpack(code_b)
        if not (r._ga(a) and r._gb(b)):
            continue
        fired = []
        if isinstance(r, DynamicRule):
            for assign_a, assign_b, prob in r.outcome_fn(a, b):
                new_a, new_b = a.copy(), b.copy()
                new_a.update(assign_a or {})
                new_b.update(assign_b or {})
                fired.append((new_a, new_b, prob))
        else:
            for branch in r.branches:
                new_a, new_b = a.copy(), b.copy()
                branch.apply(new_a, new_b)
                fired.append((new_a, new_b, branch.probability))
        for new_a, new_b, prob in fired:
            key = (schema.pack(new_a.as_dict()), schema.pack(new_b.as_dict()))
            if key == (code_a, code_b):
                continue
            merged[key] = merged.get(key, 0.0) + draw_p * prob
    outcomes = [(a, b, p) for (a, b), p in merged.items()]
    return outcomes, sum(p for _, _, p in outcomes)


def hierarchy_stack(n=240, n_x=2):
    """Two-level clock hierarchy + elimination from the E4 deep start."""
    schema = StateSchema()
    hierarchy = ClockHierarchy(schema, HierarchyParams(levels=2, module=12, k=4))
    protocol = Protocol("stack", schema, hierarchy.threads + [elimination_thread()])
    base = hierarchy.initial_assignment(weak_value(0))
    groups = []
    for species, frac in ((strong_value(0), 0.8), (weak_value(1), 0.17)):
        group = dict(base)
        for name in ("osc1", "osc2", "osc2_new"):
            group[name] = species
        groups.append((group, int(frac * (n - n_x))))
    rest = dict(base)
    for name in ("osc1", "osc2", "osc2_new"):
        rest[name] = weak_value(2)
    groups.append((rest, n - n_x - sum(c for _, c in groups)))
    marked = dict(base)
    marked["X"] = True
    groups.append((marked, n_x))
    return protocol, Population.from_groups(schema, groups)


def lang_stack():
    from repro.lang import compile_program
    from repro.protocols import leader_election_program

    compiled = compile_program(leader_election_program())
    return compiled.protocol, compiled.make_population([({}, 60)], x_agents=2)


def flip_phase(a, b):
    a["phase"] = (a["phase"] + 1) % 3
    b["D"] = not b["D"]


def coin_stack():
    schema = StateSchema()
    schema.flags("L", "F", "D")
    schema.enum("phase", 3)

    fight = Thread(
        "fight",
        [
            coin_rule(
                V("L") & ~V("F"),
                V("L"),
                [(0.5, {"L": False}, None), (0.25, None, {"F": True})],
                name="fight",
            ),
            rule(V("F"), ~V("L"), {"F": False}, {"L": True}, weight=2.0),
            Rule(V("phase", 1) | V("D"), None, effect=flip_phase, name="flip"),
        ],
    )
    spread = Thread(
        "spread",
        [
            coin_rule(None, V("D"), [(0.3, {"D": True}, None)]),
            rule(~V("L") & V("phase", 2), V("L"), {"phase": 0}, {"phase": 2}),
        ],
    )
    protocol = Protocol("coins", schema, [fight, spread])
    population = Population.from_groups(
        schema,
        [({"L": True}, 5), ({"F": True, "phase": 1}, 3), ({"D": True}, 2)],
    )
    return protocol, population


def sample_pairs(protocol, population, rng, codes_wanted=40, pairs_wanted=300):
    """Code pairs over states reachable in a few interactions."""
    codes = sorted(population.counts)
    seen = set(codes)
    frontier = list(codes)
    while frontier and len(codes) < codes_wanted:
        new = []
        for _ in range(60):
            a = frontier[rng.integers(len(frontier))]
            b = codes[rng.integers(len(codes))]
            outcomes, _ = reference_transition(protocol, a, b)
            for x, y, _ in outcomes:
                for code in (x, y):
                    if code not in seen:
                        seen.add(code)
                        new.append(code)
        codes.extend(new)
        frontier = new
    idx = rng.integers(len(codes), size=(pairs_wanted, 2))
    pairs = [(codes[i], codes[j]) for i, j in idx]
    pairs.extend((c, c) for c in codes[:10])
    return pairs


@pytest.mark.parametrize("stack", [hierarchy_stack, lang_stack, coin_stack])
def test_transition_matches_per_rule_reference(stack):
    protocol, population = stack()
    reference, _ = stack()  # a separate protocol: no shared memo
    pairs = sample_pairs(reference, population, np.random.default_rng(5))
    changing = 0
    for a, b in pairs:
        got = protocol.transition(a, b)
        want = reference_transition(reference, a, b)
        assert got == want, (a, b)
        changing += bool(got[0])
    assert changing > 0
    # a second pass through the warm memo gives the same answers
    for a, b in pairs[:50]:
        assert protocol.transition(a, b) == reference_transition(reference, a, b)


class TestReadOnlyViews:
    @pytest.fixture
    def schema(self):
        s = StateSchema()
        s.flags("A", "B")
        s.enum("n", 4)
        return s

    def test_mutating_outcome_fn_raises(self, schema):
        def sneaky(a, b):
            a["A"] = True
            return [({"B": True}, {}, 1.0)]

        protocol = Protocol(
            "p", schema, [Thread("t", [DynamicRule(None, None, sneaky), Rule(None, None, {"n": 1})])]
        )
        with pytest.raises(TypeError, match="read-only"):
            protocol.transition(0, 0)
        with pytest.raises(TypeError, match="read-only"):
            protocol.rules[0].outcomes(schema, 0, 0)

    def test_mutating_guard_raises(self, schema):
        def guard(state):
            state.B = True
            return True

        protocol = Protocol("p", schema, [Thread("t", [Rule(guard, None, {"A": True})])])
        with pytest.raises(TypeError, match="read-only"):
            protocol.transition(0, 0)

    def test_copy_is_mutable(self, schema):
        code = schema.pack({"A": True, "n": 2})
        view = StateView(schema, code)
        assert isinstance(view, StateView) and view.code == code
        clone = view.copy()
        assert type(clone) is State
        clone["n"] = 3
        clone.B = True
        assert clone.code == schema.pack({"A": True, "B": True, "n": 3})
        assert view["n"] == 2 and view.code == code
        with pytest.raises(TypeError):
            view.update({"n": 1})

    def test_code_with_matches_copy_update(self, schema):
        for code in schema.all_codes():
            view = StateView(schema, code)
            for assignment in ({}, {"A": True}, {"n": 3, "B": False}, {"A": False, "n": 0}):
                clone = view.copy()
                clone.update(assignment)
                assert view.code_with(assignment) == clone.code
                assert State(schema, code).code_with(assignment) == clone.code
        with pytest.raises(ValueError):
            StateView(schema, 0).code_with({"n": 7})
        with pytest.raises(KeyError):
            StateView(schema, 0).code_with({"Z": True})

    def test_numpy_codes_give_python_int_outcomes(self, schema):
        protocol = Protocol("p", schema, [Thread("t", [Rule(None, None, {"n": 1})])])
        outcomes, _ = protocol.transition(np.int64(0), np.int64(0))
        assert outcomes == [(schema.pack({"n": 1}), 0, 1.0)]
        assert all(type(code) is int for a, b, _ in outcomes for code in (a, b))

    def test_fields_added_after_views_keep_codes(self):
        schema = StateSchema()
        schema.flag("A")
        code = StateView(schema, 1).code_with({"A": False})
        schema.enum("m", 3)
        assert StateView(schema, schema.pack({"m": 2})).code_with({"A": True}) == 1 + 2 * 2
        assert code == 0


class TestMemo:
    def test_guards_run_once_per_state(self):
        schema = StateSchema()
        schema.flags("A", "B")
        calls = []

        def guard(state):
            calls.append(state.code)
            return state["A"]

        protocol = Protocol(
            "p", schema, [Thread("t", [Rule(guard, guard, {"B": True}), Rule(None, None, {"A": True})])]
        )
        for a in schema.all_codes():
            for b in schema.all_codes():
                protocol.transition(a, b)
        # one initiator + one responder evaluation per distinct code
        assert sorted(calls) == sorted(2 * list(schema.all_codes()))

    def test_memo_dropped_on_pickling(self):
        warm, population = coin_stack()
        cold, _ = coin_stack()
        cold.rule_draw_probabilities()
        for a in population.counts:
            for b in population.counts:
                warm.transition(a, b)
        assert warm._views
        assert pickle.dumps(warm) == pickle.dumps(cold)
        clone = pickle.loads(pickle.dumps(warm))
        assert clone._views == {}
        a, b = sorted(population.counts)[:2]
        assert clone.transition(a, b) == warm.transition(a, b)
        assert protocol_fingerprint(warm, population.counts) == protocol_fingerprint(
            cold, population.counts
        )


# sha1 of the agent array (MatchingEngine, 400 matching steps) and of the
# sorted counts (ArrayEngine, 48 000 interactions) per seed, recorded on
# the per-group-draw kernel: ``apply_pairs`` must consume the generator
# exactly as before
LAZY_PINS = {
    0: ("dc85a840c40128dde0e48285db70b4b4ccd5cd14", "b581f533a97298ef72a05d35e00e9186d7a9c66b"),
    1: ("44330fea0d49b9c9980bc49b76b64961bb78aa13", "e990304475d0be01ec9d7d9d8a531c5e6d0c9595"),
    2: ("102a53478328c2e312bbb986360733b96c20c682", "e6c567fc7187b67e1e0490df5b49db3f316fc91a"),
}


@pytest.mark.parametrize("seed", sorted(LAZY_PINS))
def test_lazy_path_golden_pins(seed):
    matching_pin, array_pin = LAZY_PINS[seed]
    protocol, population = hierarchy_stack()
    eng = MatchingEngine(protocol, population, rng=np.random.default_rng(seed))
    eng.run(rounds=400)
    agents = np.ascontiguousarray(eng.agents, dtype=np.int64).tobytes()
    assert hashlib.sha1(agents).hexdigest() == matching_pin

    protocol, population = hierarchy_stack()
    eng = ArrayEngine(protocol, population, rng=np.random.default_rng(seed))
    eng.run(interactions=400 * 120)
    counts = sorted(eng.population.counts.items())
    assert hashlib.sha1(repr(counts).encode()).hexdigest() == array_pin
