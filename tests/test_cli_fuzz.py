"""Fuzzing ``cli.main`` with mutated argument lists and fixture documents.

Whatever the input, a command ends with exit code 0, 1 (a true mathematical
violation) or 2 (bad input), and never with a traceback.  Each example starts
from a golden case of ``tests/golden/cases.json`` and makes one change: an
argument value replaced or dropped, one more flag, another fixture document,
or its stdin document perturbed as JSON (one leaf replaced, one key dropped,
one list cut short) or as text.  The sizes are bounded so that every example
runs in well under a second.
"""

import contextlib
import io
import json
import sys
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from gmepw import cli

from oracles import INTEGER_TOKENS

ROOT = Path(__file__).resolve().parent.parent
CASES = [c for c in json.loads((ROOT / "tests" / "golden" / "cases.json").read_text(encoding="utf-8"))
         if "stdin_case" not in c]
DOCS = {name: (ROOT / "fixtures" / name).read_text(encoding="utf-8")
        for name in sorted({c["stdin"] for c in CASES if c["stdin"]})}

SCALARS = ["0", "1", "-2", "1/2", "-7/3", "0/1", "1/0", "x", "", " 1", "1e3", "nan",
           "99999999999999999999", 7, 2.5, None, True, [], {}]
SCALARS += INTEGER_TOKENS
TOKENS = ["0", "1", "-1", "2", "1/2", "-3/4", "", "x", "1e9", "nan", "inf", "12345678901234567890"]


@st.composite
def vector_text(draw):
    """Rows of comma lists separated by ';': often 1 or 3 rows of 6 numbers,
    as the commands want, otherwise any length and any tokens."""
    rows = draw(st.sampled_from([1, 3, 1, 3, 2, 4]))
    tokens = st.sampled_from(TOKENS[:6] if draw(st.booleans()) else TOKENS)
    size = 6 if draw(st.booleans()) else draw(st.integers(0, 7))
    return ";".join(",".join(draw(st.lists(tokens, min_size=size, max_size=size))) for _ in range(rows))


def leaves(node, path=()):
    """Paths of every leaf and every container in a JSON tree, containers first."""
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from leaves(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from leaves(v, path + (i,))


@st.composite
def documents(draw, text):
    how = draw(st.sampled_from(["leaf", "leaf", "drop", "cut", "text"]))
    if how == "text":
        pos = draw(st.integers(0, len(text)))
        tail = draw(st.sampled_from(["", "x", "}", "]", "\"", "0", "\n"]))
        return text[:pos] + tail + text[pos + draw(st.integers(0, 3)):]
    doc = json.loads(text)
    paths = [p for p in leaves(doc) if p]
    path = draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if how == "leaf":
        parent[key] = draw(st.sampled_from(SCALARS))
    elif how == "drop":
        del parent[key]
    elif isinstance(parent[key], list):
        del parent[key][draw(st.integers(0, len(parent[key]))):]
    return json.dumps(doc)


@st.composite
def invocations(draw):
    """A golden case with one change: a value replaced or dropped, one more
    flag, its document perturbed, or another fixture document."""
    case = draw(st.sampled_from(CASES))
    argv, text = list(case["argv"]), DOCS.get(case["stdin"], "")
    how = draw(st.sampled_from(["value", "flag", "document", "other document"]))
    values = [k for k, token in enumerate(argv) if k and not token.startswith("--")]
    if how == "value" and values:
        k = draw(st.sampled_from(values))
        new = draw(st.sampled_from(["y", "z", "w"]) if argv[k - 1] == "--kind" else vector_text())
        argv[k:k + 1] = [new] if draw(st.booleans()) else []
    elif how == "flag":
        flag = draw(st.sampled_from(["--base", "--plane", "--dir", "--seed", "--kind", "--point"]))
        argv += [flag, draw(st.one_of(vector_text(), st.sampled_from(["y", "z", "-5", "3"])))]
    elif how == "document" and text:
        text = draw(documents(text))
    elif how == "other document" and text:
        text = DOCS[draw(st.sampled_from(sorted(DOCS)))]
    return argv, text


@given(invocations())
@settings(max_examples=100, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_cli_ends_with_an_exit_code_not_a_traceback(invocation):
    argv, text = invocation
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    event(f"{argv[0] if argv else '-'} exit {code}")
    assert code in (cli.EXIT_OK, cli.EXIT_VIOLATION, cli.EXIT_INPUT), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
