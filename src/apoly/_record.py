"""The base of apoly's result records: slotted classes whose ``__slots__``
name the fields in order and whose own ``__init__`` sets them. The base
gives value equality, a ``Name(field=value, ...)`` repr and, by default,
immutability and a hash; ``class R(Record, frozen=False)`` keeps R mutable
and unhashable.

It also holds the rules of the --json text: each record's json_text is the
text of json.dumps(record.as_dict(), indent=2), written in f-strings from
the helpers below, with no recursive writer."""

try:  # the C encoder alone, without the json package's decoder and scanner
    from _json import encode_basestring_ascii as _json_str
except ImportError:
    from json.encoder import encode_basestring_ascii as _json_str

# the texts of None, True and False; never look up an int here: 1 == True
_JSON_FLAG = {None: "null", True: "true", False: "false"}


def _json_list(texts, indent):
    """The text of the list of values whose JSON texts are texts, at indent."""
    if not texts:
        return "[]"
    sep = "\n" + indent + "  "
    return "[" + sep + ("," + sep).join(texts) + "\n" + indent + "]"


class Record:
    __slots__ = ()

    def __init_subclass__(cls, frozen=True, **kwargs):
        super().__init_subclass__(**kwargs)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

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
