"""The base of apoly's result records: immutable slotted classes whose
``__slots__`` name the fields in order. The base gives one ``__init__``,
which takes the fields by position or keyword and fills the rest from the
class's ``_defaults``, a ``_replace`` that makes a changed copy, value
equality, a hash and a ``Name(field=value, ...)`` repr.

It also holds the rules of the --json text: each record's json_text is the
text of json.dumps(record.as_dict(), indent=2), written in f-strings from
the helpers below, with no recursive writer."""

try:  # the C encoder alone, without the json package's decoder and scanner
    from _json import encode_basestring_ascii as _json_str
except ImportError:
    from json.encoder import encode_basestring_ascii as _json_str

# the texts of None, True and False; never look up an int here: 1 == True
_JSON_FLAG = {None: "null", True: "true", False: "false"}

_set = object.__setattr__


def _json_list(texts, indent):
    """The text of the list of values whose JSON texts are texts, at indent."""
    if not texts:
        return "[]"
    sep = "\n" + indent + "  "
    return "[" + sep + ("," + sep).join(texts) + "\n" + indent + "]"


class Record:
    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._fill(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)

    @classmethod
    def _fill(cls, args, kwargs):
        """Every field's value, in order, from the arguments and defaults;
        a TypeError names a field missing, unknown or given twice."""
        names, kind = cls.__slots__, cls.__name__
        if len(args) > len(names):
            raise TypeError(f"{kind} takes {len(names)} fields, got {len(args)}")
        given = dict(zip(names, args))
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{kind} has no field {name!r}")
            if name in given:
                raise TypeError(f"{kind} got field {name!r} twice")
        values = {**cls._defaults, **given, **kwargs}
        for name in names:
            if name not in values:
                raise TypeError(f"{kind} is missing field {name!r}")
        return [values[name] for name in names]

    def _replace(self, **changes):
        """A copy with the fields named in changes replaced; a name that is
        no field stays in changes, for __init__ to reject."""
        values = [changes.pop(name, getattr(self, name)) for name in self.__slots__]
        return type(self)(*values, **changes)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
