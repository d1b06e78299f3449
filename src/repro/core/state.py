"""Agent state schemas: named fields packed into small integers.

The paper describes agent states as Cartesian products of boolean *state
variables* (Section 1.3).  For convenience and compactness we additionally
support *enum* fields with arbitrary finite domains (e.g. the clock position
``C'_s`` with ``s in {0, ..., 3k-1}`` is one enum field rather than ``3k``
one-hot booleans).  A full agent state is an assignment to every field of a
:class:`StateSchema`, packed into a single integer using mixed-radix
encoding; engines operate on these integer codes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


class Field:
    """A single state variable: a name plus a finite domain.

    Boolean fields have ``size == 2`` and values ``False``/``True``; enum
    fields carry ``size`` distinct values, by default the integers
    ``0..size-1``.
    """

    __slots__ = ("name", "size", "values", "_index", "boolean")

    def __init__(
        self,
        name: str,
        size: int,
        values: Optional[Sequence[object]] = None,
        boolean: bool = False,
    ):
        if size < 1:
            raise ValueError("field {!r} must have at least one value".format(name))
        self.name = name
        self.size = size
        self.boolean = boolean
        if boolean:
            if size != 2:
                raise ValueError("boolean field {!r} must have size 2".format(name))
            self.values: Tuple[object, ...] = (False, True)
        elif values is None:
            self.values = tuple(range(size))
        else:
            values = tuple(values)
            if len(values) != size:
                raise ValueError(
                    "field {!r}: {} values given for size {}".format(
                        name, len(values), size
                    )
                )
            self.values = values
        self._index = {value: i for i, value in enumerate(self.values)}
        if len(self._index) != size:
            raise ValueError("field {!r} has duplicate values".format(name))

    def index_of(self, value: object) -> int:
        try:
            return self._index[value]
        except KeyError:
            raise ValueError(
                "{!r} is not a value of field {!r} (domain: {!r})".format(
                    value, self.name, self.values
                )
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "flag" if self.boolean else "enum[{}]".format(self.size)
        return "Field({}:{})".format(self.name, kind)


class StateSchema:
    """An ordered collection of fields defining the agent state space.

    The schema assigns each full assignment a unique integer code in
    ``range(self.num_states)`` via mixed-radix packing.  Schemas are
    *extensible before freezing*: protocol composition adds the fields of
    each thread to one shared schema (the paper's shared pool of state
    variables).
    """

    def __init__(self, fields: Iterable[Field] = ()):  # noqa: D401
        self.fields: List[Field] = []
        self._field_index: Dict[str, int] = {}
        self._radices: List[int] = []
        # mixed-radix place value of each field; appending a field leaves
        # the earlier ones unchanged
        self._strides: Dict[str, int] = {}
        self._frozen = False
        for field in fields:
            self.add_field(field)

    # -- construction ------------------------------------------------------
    def add_field(self, field: Field) -> Field:
        if self._frozen:
            raise RuntimeError("schema is frozen; cannot add fields")
        if field.name in self._field_index:
            raise ValueError("duplicate field name {!r}".format(field.name))
        self._strides[field.name] = self.num_states
        self._field_index[field.name] = len(self.fields)
        self.fields.append(field)
        self._radices.append(field.size)
        return field

    def flag(self, name: str) -> Field:
        """Declare a boolean state variable (the paper's default kind)."""
        return self.add_field(Field(name, 2, boolean=True))

    def flags(self, *names: str) -> List[Field]:
        return [self.flag(name) for name in names]

    def enum(self, name: str, size: int, values: Optional[Sequence[object]] = None) -> Field:
        """Declare a finite-domain state variable."""
        return self.add_field(Field(name, size, values=values))

    def freeze(self) -> "StateSchema":
        self._frozen = True
        return self

    # -- introspection -----------------------------------------------------
    @property
    def num_states(self) -> int:
        total = 1
        for radix in self._radices:
            total *= radix
        return total

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(field.name for field in self.fields)

    def field(self, name: str) -> Field:
        try:
            return self.fields[self._field_index[name]]
        except KeyError:
            raise KeyError(
                "no field {!r}; schema fields: {}".format(name, self.field_names)
            ) from None

    def has_field(self, name: str) -> bool:
        return name in self._field_index

    # -- packing -----------------------------------------------------------
    def pack(self, assignment: Mapping[str, object]) -> int:
        """Pack a complete or partial assignment into a state code.

        Unmentioned fields default to their first value (``False`` for
        flags, the first enum value otherwise).
        """
        code = 0
        for field in reversed(self.fields):
            code *= field.size
            value = assignment.get(field.name, field.values[0])
            code += field.index_of(value)
        unknown = set(assignment) - set(self._field_index)
        if unknown:
            raise ValueError(
                "assignment mentions unknown fields: {}".format(sorted(unknown))
            )
        return code

    def unpack(self, code: int) -> "State":
        return State(self, code)

    def decode(self, code: int) -> Dict[str, object]:
        """Return the full ``field -> value`` mapping for a state code."""
        out: Dict[str, object] = {}
        for field in self.fields:
            code, idx = divmod(code, field.size)
            out[field.name] = field.values[idx]
        return out

    def value_of(self, code: int, name: str) -> object:
        """Extract one field's value from a state code."""
        idx = self._field_index[name]
        for i in range(idx):
            code //= self._radices[i]
        field = self.fields[idx]
        return field.values[code % field.size]

    def with_values(self, code: int, assignment: Mapping[str, object]) -> int:
        """Return a new code equal to ``code`` with the given fields replaced."""
        values = self.decode(code)
        for name, value in assignment.items():
            if name not in self._field_index:
                raise ValueError("unknown field {!r}".format(name))
            values[name] = value
        return self.pack(values)

    def all_codes(self) -> Iterable[int]:
        return range(self.num_states)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "StateSchema({} fields, {} states)".format(
            len(self.fields), self.num_states
        )


class State:
    """A mutable view over a single agent's state.

    Supports mapping access (``state['L']``), attribute access
    (``state.L``) and assignment through either.  Rules' effect callables
    receive ``State`` views and mutate them in place.
    """

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: StateSchema, code: int = 0):
        object.__setattr__(self, "_schema", schema)
        object.__setattr__(self, "_values", schema.decode(code))

    @property
    def schema(self) -> StateSchema:
        return self._schema

    @property
    def code(self) -> int:
        # the values were validated on assignment: no index_of, no
        # unknown-field check as in StateSchema.pack
        code = 0
        for field in reversed(self._schema.fields):
            code = code * field.size + field._index[self._values[field.name]]
        return code

    def code_with(self, assignment: Mapping[str, object]) -> int:
        """The code of this state with ``assignment`` applied.

        Equals ``copy()``, ``update(assignment)``, ``.code`` (with the same
        validation) but touches only the assigned fields.
        """
        schema = self._schema
        code = self.code
        for name, value in assignment.items():
            field = schema.field(name)
            delta = field.index_of(value) - field._index[self._values[name]]
            code += delta * schema._strides[name]
        return code

    def copy(self) -> "State":
        """A mutable copy (also of a read-only :class:`StateView`)."""
        clone = State.__new__(State)
        object.__setattr__(clone, "_schema", self._schema)
        object.__setattr__(clone, "_values", dict(self._values))
        return clone

    def as_dict(self) -> Dict[str, object]:
        return dict(self._values)

    def update(self, assignment: Mapping[str, object]) -> None:
        for name, value in assignment.items():
            self[name] = value

    # -- mapping access ----------------------------------------------------
    def __getitem__(self, name: str) -> object:
        try:
            return self._values[name]
        except KeyError:
            raise KeyError(
                "no field {!r}; schema fields: {}".format(
                    name, self._schema.field_names
                )
            ) from None

    def __setitem__(self, name: str, value: object) -> None:
        field = self._schema.field(name)
        field.index_of(value)  # validate
        self._values[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._values

    # -- attribute access --------------------------------------------------
    def __getattr__(self, name: str) -> object:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value: object) -> None:
        self[name] = value

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, State)
            and other._schema is self._schema
            and other._values == self._values
        )

    def __hash__(self) -> int:
        return hash(self.code)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        on = {
            k: v
            for k, v in self._values.items()
            if v is not False and v != 0
        }
        return "State({})".format(on)


class StateView(State):
    """A read-only :class:`State`, as handed to guards and outcome functions.

    :meth:`repro.core.protocol.Protocol.transition` shares one view per
    state code across every rule it evaluates, so an assignment through a
    view raises :class:`TypeError` instead of corrupting the rules
    evaluated after it.  :meth:`copy` returns a mutable :class:`State`.
    The code is known on construction and kept.
    """

    __slots__ = ("_code",)

    def __init__(self, schema: StateSchema, code: int = 0):
        super().__init__(schema, code)
        # a Python int, as State.code returns, also for numpy integer codes
        object.__setattr__(self, "_code", int(code))

    @property
    def code(self) -> int:
        return self._code

    def __setitem__(self, name: str, value: object) -> None:
        raise TypeError(
            "cannot assign {!r}: state views are read-only; "
            "copy() the state to change it".format(name)
        )
