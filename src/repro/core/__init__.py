"""Core population-protocol substrate: states, formulas, rules, protocols."""

from .formula import ANY, FALSE, TRUE, And, Formula, Not, Or, Predicate, V, Var, all_of, any_of, coerce_formula
from .population import Population
from .protocol import Protocol, Thread, compose, count_matching, single_thread
from .rules import Branch, DynamicRule, Outcome, Rule, coin_rule, rule
from .state import Field, State, StateSchema, StateView

__all__ = [
    "ANY",
    "FALSE",
    "TRUE",
    "And",
    "Branch",
    "DynamicRule",
    "Field",
    "Formula",
    "Not",
    "Or",
    "Outcome",
    "Population",
    "Predicate",
    "Protocol",
    "Rule",
    "State",
    "StateSchema",
    "StateView",
    "Thread",
    "V",
    "Var",
    "all_of",
    "any_of",
    "coerce_formula",
    "coin_rule",
    "compose",
    "count_matching",
    "rule",
    "single_thread",
]
