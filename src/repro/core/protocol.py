"""Protocols: rulesets grouped into threads over a shared state schema.

The paper composes protocols by putting rulesets together as *threads*
(Section 1.3): the scheduler picks one thread uniformly at random, then one
rule uniformly within the thread (the paper normalizes rule counts across
threads; weighting achieves the same effect here).  Composing protocol P2
"on top of" P1 means P2's rules never write P1's variables; this module
checks that discipline when asked.

:meth:`Protocol.transition` keeps a per-protocol memo of one entry per
distinct state code it has evaluated: a read-only
:class:`~repro.core.state.StateView` plus two rule bitmasks saying which
rules' initiator and responder guards accept that state.  A pair then only
fires the rules in the intersection of its two masks.  The memo relies on
the contract of :mod:`repro.core.rules` (guards are pure functions of one
agent's state; outcome functions receive read-only views).  It holds at
most one entry per distinct state code ``transition`` was called with:
the states of the pairs a transition table memoizes, which takes up to
k² pair entries for k states.  The memo is dropped on pickling.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .formula import Formula
from .rules import Outcome, Rule
from .state import StateSchema, StateView


class Thread:
    """A named ruleset participating in a protocol composition."""

    __slots__ = ("name", "rules", "writes", "reads")

    def __init__(
        self,
        name: str,
        rules: Sequence[Rule],
        writes: Iterable[str] = (),
        reads: Iterable[str] = (),
    ):
        if not rules:
            raise ValueError("thread {!r} has no rules".format(name))
        self.name = name
        self.rules = tuple(rules)
        self.writes = frozenset(writes)
        self.reads = frozenset(reads)

    @property
    def total_weight(self) -> float:
        return sum(rule.weight for rule in self.rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Thread({}, {} rules)".format(self.name, len(self.rules))


class Protocol:
    """A population protocol: a state schema plus one or more threads.

    The per-interaction semantics follow the paper's convention: the
    scheduler activates exactly one rule, drawn by first picking a thread
    uniformly at random and then a rule within the thread proportionally to
    its weight.  A drawn rule whose guards do not match the interacting
    pair is a null event.
    """

    def __init__(
        self,
        name: str,
        schema: StateSchema,
        threads: Sequence[Thread],
    ):
        if not threads:
            raise ValueError("protocol {!r} has no threads".format(name))
        names = [t.name for t in threads]
        if len(set(names)) != len(names):
            raise ValueError("duplicate thread names in protocol {!r}".format(name))
        self.name = name
        self.schema = schema
        self.threads = tuple(threads)
        self._draw_probabilities: Optional[List[Tuple[Rule, float]]] = None
        self._views: Dict[int, Tuple[StateView, int, int]] = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_views"]  # a cache: replica payloads stay as they were
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._views = {}

    # -- structure -----------------------------------------------------------
    @property
    def rules(self) -> List[Rule]:
        return [rule for thread in self.threads for rule in thread.rules]

    def rule_draw_probabilities(self) -> List[Tuple[Rule, float]]:
        """Probability of the scheduler drawing each rule in one interaction."""
        if self._draw_probabilities is None:
            per_thread = 1.0 / len(self.threads)
            out: List[Tuple[Rule, float]] = []
            for thread in self.threads:
                total = thread.total_weight
                for rule in thread.rules:
                    out.append((rule, per_thread * rule.weight / total))
            self._draw_probabilities = out
        return self._draw_probabilities

    def thread(self, name: str) -> Thread:
        for thread in self.threads:
            if thread.name == name:
                return thread
        raise KeyError("no thread {!r} in protocol {!r}".format(name, self.name))

    # -- semantics -------------------------------------------------------------
    def transition(self, code_a: int, code_b: int) -> Tuple[List[Outcome], float]:
        """Aggregate outcome distribution for an ordered interacting pair.

        Returns ``(changing_outcomes, p_change)`` where ``changing_outcomes``
        lists the distinct ``(code_a', code_b', probability)`` results that
        differ from ``(code_a, code_b)``, and ``p_change`` is their total
        probability.  The remaining ``1 - p_change`` is the null event
        (non-matching rule drawn, identity update, or a rule's explicit null
        branch).
        """
        draws = self.rule_draw_probabilities()
        view_a, live, _ = self._state_entry(code_a)
        view_b, _, mask_b = self._state_entry(code_b)
        live &= mask_b
        merged: Dict[Tuple[int, int], float] = {}
        while live:  # matching rules in rule order, lowest bit first
            low = live & -live
            live ^= low
            rule, draw_p = draws[low.bit_length() - 1]
            for new_a, new_b, branch_p in rule.fire(view_a, view_b):
                if new_a == code_a and new_b == code_b:
                    continue
                key = (new_a, new_b)
                merged[key] = merged.get(key, 0.0) + draw_p * branch_p
        outcomes = [(a, b, p) for (a, b), p in merged.items()]
        p_change = sum(p for _, _, p in outcomes)
        return outcomes, p_change

    def _state_entry(self, code: int) -> Tuple[StateView, int, int]:
        """Memoized ``(view, guard_a mask, guard_b mask)`` of one state.

        Bit ``i`` of a mask is set when rule ``i`` (in
        :meth:`rule_draw_probabilities` order) accepts the state as
        initiator / responder.
        """
        entry = self._views.get(code)
        if entry is None:
            view = StateView(self.schema, code)
            mask_a = mask_b = 0
            for i, (rule, _) in enumerate(self.rule_draw_probabilities()):
                if rule._ga(view):
                    mask_a |= 1 << i
                if rule._gb(view):
                    mask_b |= 1 << i
            entry = (view, mask_a, mask_b)
            self._views[code] = entry
        return entry

    # -- composition ------------------------------------------------------------
    def composed_with(self, *others: "Protocol", name: Optional[str] = None) -> "Protocol":
        """Compose this protocol with others sharing the same schema."""
        threads = list(self.threads)
        for other in others:
            if other.schema is not self.schema:
                raise ValueError(
                    "cannot compose {!r} with {!r}: protocols must be built on "
                    "the same shared StateSchema object".format(self.name, other.name)
                )
            threads.extend(other.threads)
        return Protocol(
            name or "+".join([self.name] + [o.name for o in others]),
            self.schema,
            threads,
        )

    def check_layering(self) -> None:
        """Verify the "composed on top of" discipline between threads.

        For every pair of threads, a later thread may read but must not
        write variables written by an earlier thread unless it declares
        them.  Threads that did not declare reads/writes are skipped.
        """
        for i, upper in enumerate(self.threads):
            for lower in self.threads[:i]:
                if not upper.writes or not lower.writes:
                    continue
                clash = upper.writes & lower.writes
                if clash:
                    raise ValueError(
                        "thread {!r} writes variables {} owned by thread "
                        "{!r}".format(upper.name, sorted(clash), lower.name)
                    )

    def describe(self) -> str:
        lines = ["protocol {}".format(self.name)]
        for thread in self.threads:
            lines.append("  thread {}:".format(thread.name))
            for rule in thread.rules:
                lines.append("    " + rule.describe())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Protocol({}, {} threads, {} rules)".format(
            self.name, len(self.threads), len(self.rules)
        )


def single_thread(name: str, schema: StateSchema, rules: Sequence[Rule]) -> Protocol:
    """Build a one-thread protocol (the common case for base building blocks)."""
    return Protocol(name, schema, [Thread(name, rules)])


def compose(name: str, *protocols: Protocol) -> Protocol:
    """Compose protocols sharing one schema into a multi-thread protocol."""
    if not protocols:
        raise ValueError("compose() needs at least one protocol")
    first = protocols[0]
    return first.composed_with(*protocols[1:], name=name)


def count_matching(
    schema: StateSchema, counts: Dict[int, int], formula: Formula
) -> int:
    """Number of agents whose state satisfies ``formula``."""
    total = 0
    for code, count in counts.items():
        if count and formula.evaluate(schema.unpack(code)):
            total += count
    return total
