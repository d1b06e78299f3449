"""Exact sequential engine on agent arrays with collision-free batching.

For protocols in which most interactions change state (the DK18 oscillator
in mid-oscillation, epidemics at half spread) null skipping buys nothing.
This engine keeps the explicit agent array and exploits a different exact
speedup: interacting **pairs are chosen independently of the configuration**,
so a batch of upcoming pairs can be pre-drawn, and any prefix in which no
agent occurs twice consists of commuting interactions that may be applied
simultaneously with vectorized table lookups.  Expected prefix length is
Θ(√n), giving a ~√n speedup while sampling *exactly* the sequential
process.

State codes must fit in int64 (``schema.num_states < 2**62``); composed
protocols with larger packed spaces should use
:class:`repro.engine.sequential.CountEngine`, which works on Python ints.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..core.population import Population
from ..core.protocol import Protocol
from .api import Engine, Observer, StopCondition, require_budget
from .dense import make_table
from .table import LazyTable


def apply_pairs(
    agents: np.ndarray,
    idx_a: np.ndarray,
    idx_b: np.ndarray,
    table,
    rng: np.random.Generator,
) -> int:
    """Apply one interaction per (initiator, responder) index pair.

    All indices must be distinct across the two arrays.  Returns the number
    of interactions that changed at least one agent's state.  Dispatches to
    the fully vectorized path when ``table`` is a
    :class:`~repro.engine.dense.DenseTable`.
    """
    if len(idx_a) == 0:
        return 0
    if hasattr(table, "apply"):
        return table.apply(agents, idx_a, idx_b, rng)
    state_a = agents[idx_a]
    state_b = agents[idx_b]
    num_states = table.protocol.schema.num_states
    if num_states < 2 ** 31:
        flat_keys = state_a * num_states + state_b
        unique_flat, inverse = np.unique(flat_keys, return_inverse=True)
        unique = zip(
            (unique_flat // num_states).tolist(), (unique_flat % num_states).tolist()
        )
    else:
        keys = np.stack([state_a, state_b], axis=1)
        unique_arr, inverse = np.unique(keys, axis=0, return_inverse=True)
        unique = unique_arr.tolist()
    inverse = inverse.reshape(-1)
    entries = [table.outcomes(code_a, code_b) for code_a, code_b in unique]
    p_change = np.array([entry.p_change for entry in entries])
    # members of each group in index order, groups in order; only groups
    # that can change draw, and one draw over all of them consumes the
    # generator exactly as one draw per group did
    order = np.argsort(inverse, kind="stable")
    members = order[p_change[inverse[order]] > 0.0]
    u = rng.random(len(members))
    firing = u < p_change[inverse[members]]
    hits = members[firing]
    if len(hits) == 0:
        return 0
    u = u[firing]
    groups = inverse[hits]
    new_a = np.empty(len(hits), dtype=np.int64)
    new_b = np.empty(len(hits), dtype=np.int64)
    starts = np.flatnonzero(np.diff(groups)) + 1
    for lo, hi in zip(
        np.concatenate(([0], starts)).tolist(),
        np.concatenate((starts, [len(hits)])).tolist(),
    ):
        entry = entries[groups[lo]]
        if len(entry) == 1:
            new_a[lo:hi] = entry.codes_a[0]
            new_b[lo:hi] = entry.codes_b[0]
            continue
        out_idx = np.searchsorted(entry.cum, u[lo:hi], side="right")
        out_idx = np.minimum(out_idx, len(entry) - 1)
        new_a[lo:hi] = entry.codes_a[out_idx]
        new_b[lo:hi] = entry.codes_b[out_idx]
    agents[idx_a[hits]] = new_a
    agents[idx_b[hits]] = new_b
    return len(hits)


def _collision_free_prefix(idx_a: np.ndarray, idx_b: np.ndarray) -> int:
    """Largest k such that pairs [0, k) touch pairwise-distinct agents."""
    flat = np.empty(2 * len(idx_a), dtype=np.int64)
    flat[0::2] = idx_a
    flat[1::2] = idx_b
    order = np.argsort(flat, kind="stable")
    sorted_vals = flat[order]
    dup = sorted_vals[1:] == sorted_vals[:-1]
    if not dup.any():
        return len(idx_a)
    # position (in draw order) of the second occurrence of each duplicate
    second_positions = order[1:][dup]
    first_conflict = int(second_positions.min())
    return first_conflict // 2


class ArrayEngine(Engine):
    """Exact sequential simulation over an explicit agent array."""

    name = "array"

    def __init__(
        self,
        protocol: Protocol,
        population: Population,
        *,
        rng: Optional[np.random.Generator] = None,
        table: Optional[LazyTable] = None,
        batch_pairs: Optional[int] = None,
        guards: object = None,
    ):
        self._init_common(protocol, population, rng, guards=guards)
        if protocol.schema.num_states >= 2 ** 62:
            raise ValueError(
                "packed state space too large for int64 agent arrays; "
                "use CountEngine instead"
            )
        if table is None:
            table = make_table(protocol)
        self.table = table
        # NOTE: the engine works on a private agent array; unlike
        # CountEngine it does NOT mutate the passed Population — read the
        # evolving configuration from the ``population`` property.
        self.agents = population.to_agent_array(self.rng)
        self._n = len(self.agents)
        if batch_pairs is None:
            batch_pairs = max(8, int(0.75 * math.sqrt(self._n)))
        self.batch_pairs = batch_pairs
        self._buf_a = np.empty(0, dtype=np.int64)
        self._buf_b = np.empty(0, dtype=np.int64)

    @property
    def n(self) -> int:
        return self._n

    @property
    def rounds(self) -> float:
        return self.interactions / self._n

    @property
    def population(self) -> Population:
        return Population.from_agent_array(self.protocol.schema, self.agents)

    # -- pair pre-drawing --------------------------------------------------------
    def _refill(self, want: int) -> None:
        size = max(want, self.batch_pairs)
        idx_a = self.rng.integers(0, self._n, size=size, dtype=np.int64)
        offset = self.rng.integers(1, self._n, size=size, dtype=np.int64)
        idx_b = (idx_a + offset) % self._n
        self._buf_a = np.concatenate([self._buf_a, idx_a])
        self._buf_b = np.concatenate([self._buf_b, idx_b])

    def _consume_prefix(self, limit: int) -> int:
        """Apply the next collision-free prefix (at most ``limit`` pairs)."""
        if len(self._buf_a) == 0:
            self._refill(limit)
        avail = min(limit, len(self._buf_a))
        k = _collision_free_prefix(self._buf_a[:avail], self._buf_b[:avail])
        if k == 0:
            k = 1  # a single pair conflicts with nothing
        apply_pairs(
            self.agents,
            self._buf_a[:k],
            self._buf_b[:k],
            self.table,
            self.rng,
        )
        self._buf_a = self._buf_a[k:]
        self._buf_b = self._buf_b[k:]
        self.interactions += k
        return k

    # -- main loop -------------------------------------------------------------
    def _run(
        self,
        rounds: Optional[float] = None,
        interactions: Optional[int] = None,
        stop: Optional[StopCondition] = None,
        observer: Optional[Observer] = None,
        observe_every: float = 1.0,
        stop_every: float = 1.0,
    ) -> "ArrayEngine":
        """Advance the simulation by a budget of rounds / interactions.

        ``stop`` is an early-exit predicate on the population; because
        materializing a :class:`Population` from the agent array costs
        O(n), it is only evaluated every ``stop_every`` parallel rounds.
        """
        target: Optional[int] = None
        if interactions is not None:
            target = self.interactions + int(interactions)
        if rounds is not None:
            by_rounds = self.interactions + int(math.ceil(rounds * self._n))
            target = by_rounds if target is None else min(target, by_rounds)
        require_budget(rounds, interactions, stop)

        step = max(int(round(observe_every * self._n)), 1)
        next_observation = ((self.interactions + step - 1) // step) * step
        stop_step = max(int(round(stop_every * self._n)), 1)
        next_stop_check = self.interactions + stop_step

        while target is None or self.interactions < target:
            limit = self.batch_pairs
            if target is not None:
                limit = min(limit, target - self.interactions)
            if observer is not None:
                limit = min(limit, max(next_observation - self.interactions, 1))
            if stop is not None:
                limit = min(limit, max(next_stop_check - self.interactions, 1))
            self._consume_prefix(limit)
            if observer is not None and self.interactions >= next_observation:
                observer(self.rounds, self.population)
                next_observation += step
            if stop is not None and self.interactions >= next_stop_check:
                next_stop_check = self.interactions + stop_step
                if stop(self.population):
                    break
        return self
