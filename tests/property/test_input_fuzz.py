"""Fuzzing the two parsers of untrusted input: bad input raises typed errors only.

``protocol.decode_request`` sees every request body the service accepts,
and ``dsl.parse_dependency`` every premise and conclusion inside it.  On
any input they either decode or raise their own error type
(``ProtocolError`` / ``ReproError``), which the service maps onto a stable
error code -- never a raw ``TypeError`` or ``KeyError`` that would surface
as a 500.

Each strategy mixes arbitrary values with near-valid ones built from the
real field names and the grammar, so that examples get past the first
check; two tests pin that the near-valid inputs do decode and parse.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.dsl import parse_dependency
from repro.model.attributes import Universe
from repro.service import protocol
from repro.util.errors import ReproError

#: Bounded so the four tests add about two seconds to tier-1.
SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ABC = Universe.from_names("ABC")

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
)


def json_containers(children):
    lists = st.lists(children, max_size=4)
    return lists | st.dictionaries(st.text(max_size=8), children, max_size=4)


json_values = st.recursive(json_scalars, json_containers, max_leaves=12)

#: Values a real client sends for each envelope field, beside junk.
FIELDS = {
    "schema": st.sampled_from([1, 2, 0, "1", True]),
    "premises": st.lists(st.sampled_from(["A -> B", "B ->> C", "", "A ->"])),
    "conclusion": st.sampled_from(["A -> C", "join[AB, BC]", " ", "A"]),
    "finite": st.booleans(),
    "client": st.sampled_from(["tenant", ""]),
    "id": st.sampled_from(["q-1", ""]),
    "deadline_ms": st.sampled_from([1, 250, 0, -5, 1.5]),
    "checkpoint_token": st.sampled_from(["chase-ab.jsonl", "", "../x"]),
    "max_steps": st.sampled_from([1, 10, 0, -1]),
    "max_rows": st.sampled_from([1, 10, 0, True]),
}

envelopes = st.fixed_dictionaries(
    {}, optional={name: values | json_values for name, values in FIELDS.items()}
)

request_bodies = (
    json_values
    | envelopes
    | envelopes.map(lambda payload: json.dumps(payload).encode("utf-8"))
    | st.binary(max_size=40)
)


def decode_or_reject(payload):
    try:
        return protocol.decode_request(payload)
    except protocol.ProtocolError as exc:
        assert exc.code in protocol.HTTP_STATUS
        return None


@SETTINGS
@given(request_bodies)
def test_decode_request_raises_only_protocol_errors(payload):
    request = decode_or_reject(payload)
    if request is not None:
        assert isinstance(request, (protocol.SolveRequest, protocol.ResumeRequest))


@SETTINGS
@given(
    st.fixed_dictionaries(
        {
            "schema": st.just(1),
            "premises": FIELDS["premises"],
            "conclusion": st.just("A -> C"),
        },
        optional={name: FIELDS[name] for name in ("finite", "client", "deadline_ms")},
    )
)
def test_near_valid_envelopes_decode(payload):
    # Not vacuous: an envelope decodes exactly when its optional fields are
    # valid (a non-empty client, a positive integer deadline).
    valid = payload.get("client") != "" and payload.get("deadline_ms", 1) in (1, 250)
    request = decode_or_reject(payload)
    assert (request is not None) == valid


ATTRIBUTES = st.sampled_from(["A", "B", "C", "AB", "BC", "AC", "ABC", "{}"])
COMPONENTS = st.sampled_from([("AB", "BC"), ("AB", "AC"), ("AC", "BC"), ("A", "BC")])
CELLS = st.sampled_from(["a", "b", "c", "x", "y", "a1", "b2", "~v"])
ROWS = st.lists(st.lists(CELLS, min_size=3, max_size=3), min_size=1, max_size=3)


@st.composite
def sentences(draw):
    """A well-formed dependency over ABC in one of the grammar's dialects."""
    kind = draw(st.sampled_from(["fd", "mvd", "jd", "pjd", "td", "egd"]))
    lhs, rhs = draw(ATTRIBUTES), draw(ATTRIBUTES)
    if kind == "fd":
        return f"{lhs} -> {rhs}".replace("{}", "A")
    if kind == "mvd":
        return f"{lhs} ->> {rhs}".replace("{} ->> {}", "{} ->> A")
    if kind in ("jd", "pjd"):
        lhs, rhs = draw(COMPONENTS)
        if kind == "jd":
            return f"join[{lhs}, {rhs}]"
        return f"pjoin[{lhs}, {rhs}] => {lhs}"
    dialect = draw(st.sampled_from(["", "u"]))
    rows = draw(ROWS)
    if dialect == "u" or kind == "egd":
        # Untyped cells carry no marker, and a typed egd may only equate
        # values of one column, never a tagged and an untagged one.
        rows = [[cell.lstrip("~") for cell in row] for row in rows]
    body = "; ".join(" ".join(row) for row in rows)
    if kind == "td":
        head = " ".join(draw(st.sampled_from(rows)))
        return f"{dialect}td[ABC]{{{body}}} => {head}"
    column = draw(st.integers(0, 2))
    left, right = (draw(st.sampled_from(rows))[column] for _ in "lr")

    def side(cell):
        # A typed cell names a value of its column; name the column too.
        return f"{cell}@{'ABC'[column]}" if dialect == "" else cell

    return f"{dialect}egd[ABC]{{{body}}} : {side(left)} = {side(right)}"


#: Edits that break a sentence near a place the parser has to look at.
EDITS = st.lists(
    st.tuples(
        st.integers(0, 80),
        st.sampled_from(list("][{};:= ~_x,") + ["", "=>", "->"]),
        st.booleans(),
    ),
    min_size=1,
    max_size=3,
)


def edit(text, edits):
    for position, token, replace in edits:
        position %= len(text) + 1
        text = text[:position] + token + text[position + replace :]
    return text


dsl_text = st.text(max_size=30) | st.builds(edit, sentences(), EDITS)


@SETTINGS
@given(sentences())
def test_grammar_sentences_parse(text):
    # Not vacuous: the sentences the edits start from are well formed.
    parse_dependency(text, universe=ABC)


@SETTINGS
@given(dsl_text, st.sampled_from([None, ABC]))
def test_parse_dependency_raises_only_repro_errors(text, universe):
    try:
        parse_dependency(text, universe=universe)
    except ReproError:
        pass
