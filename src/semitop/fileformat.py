"""One-document text format for finite topologies.

    # comments and blank lines are ignored
    points: a b c
    open:
    open: a b c
    open: a

`points:` comes first and lists the distinct labels, whitespace
separated; no label contains any of `,{}#:`.  Every following `open:`
line names one member of the topology by its labels; an empty
remainder is the empty set, and the carrier must appear as an open line
like any other member.  Parse errors, a file that is not UTF-8
included, carry the offending line number and token.
"""

from .spaces import _LABEL_FORBIDDEN, FiniteSpace, build_space


class ParseError(Exception):
    """Malformed topology document."""

    def __init__(self, message: str, *, line: int, source: str = "<string>"):
        super().__init__(f"{source}:{line}: {message}")
        self.line = line
        self.source = source


def parse_topology(text: str, *, source: str = "<string>",
                   name: str | None = None) -> FiniteSpace:
    names = None
    opens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep:
            raise ParseError(f"expected 'points:' or 'open:', got {line!r}",
                             line=lineno, source=source)
        tokens = rest.split()
        if key == "points":
            if names is not None:
                raise ParseError("duplicate points line", line=lineno,
                                 source=source)
            if not tokens:
                raise ParseError("points line lists no labels", line=lineno,
                                 source=source)
            for t in tokens:
                if _LABEL_FORBIDDEN & set(t):
                    raise ParseError(f"bad point label {t!r}", line=lineno,
                                     source=source)
            if len(tokens) != len(set(tokens)):
                dup = next(t for t in tokens if tokens.count(t) > 1)
                raise ParseError(f"duplicate point label {dup!r}", line=lineno,
                                 source=source)
            names = tokens
        elif key == "open":
            if names is None:
                raise ParseError("open line before the points line",
                                 line=lineno, source=source)
            for t in tokens:
                if t not in names:
                    raise ParseError(f"unknown point label {t!r}", line=lineno,
                                     source=source)
            opens.append(tokens)
        else:
            raise ParseError(f"unknown directive {key!r}", line=lineno,
                             source=source)
    if names is None:
        raise ParseError("no points line", line=1, source=source)
    return build_space(names, opens, name=name)


def serialize_topology(space: FiniteSpace) -> str:
    lines = ["points: " + " ".join(space.names)]
    for o in space.opens:
        labels = space.labels_of(o)
        lines.append("open:" + ("" if not labels else " " + " ".join(labels)))
    return "\n".join(lines) + "\n"


def load_topology(path) -> FiniteSpace:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8",
                         line=data.count(b"\n", 0, exc.start) + 1,
                         source=str(path)) from None
    return parse_topology(text, source=str(path), name=str(path))
