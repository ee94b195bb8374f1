"""Seeded token mutations of spec files, shared by the parser and CLI tests."""

import itertools
import random
import re

TOKEN = re.compile(r"[A-Za-z0-9_*]+")


def token_mutations(text: str, seed: int, count: int):
    """Single-token replacements, deletions and insertions of ``text``;
    new tokens are drawn from the tokens of the text itself."""
    rng = random.Random(seed)
    spans = [m.span() for m in TOKEN.finditer(text)]
    vocab = [text[a:b] for a, b in spans]
    for _ in range(count):
        a, b = spans[rng.randrange(len(spans))]
        kind = rng.choice(("replace", "delete", "insert"))
        if kind == "replace":
            yield text[:a] + rng.choice(vocab) + text[b:]
        elif kind == "delete":
            yield text[:a] + text[b:]
        else:
            yield text[:a] + rng.choice(vocab) + "," + text[a:]


def reference_tokenize_line(text: str, lineno: int, diagnostics: list, section: str):
    """The parser's tokenizer as it was before it used one compiled
    pattern, frozen as the reference the parser's tokens and diagnostics
    are swept against: ``(text, column)`` tokens of ``text`` up to its
    first ``#``, or None after appending one diagnostic."""
    from opgroth.dsl import Diagnostic

    hash_pos = text.find("#")
    if hash_pos >= 0:
        text = text[:hash_pos]
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "=,:":
            tokens.append((ch, i + 1))
            i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(("->", i + 1))
            i += 2
            continue
        start = i
        buf = []
        while i < n:
            ch = text[i]
            if ch.isspace() or ch in "=,:" or (ch == "-" and i + 1 < n and text[i + 1] == ">"):
                break
            if ch in "([":
                depth = 0
                j = i
                while j < n:
                    if text[j] in "([":
                        depth += 1
                    elif text[j] in ")]":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                if j >= n or depth != 0:
                    diagnostics.append(
                        Diagnostic(lineno, i + 1, "unbalanced bracket group", section)
                    )
                    return None
                buf.append(text[i : j + 1])
                i = j + 1
                continue
            if ch in ")]":
                diagnostics.append(
                    Diagnostic(lineno, i + 1, "unmatched closing bracket", section)
                )
                return None
            buf.append(ch)
            i += 1
        tokens.append(("".join(buf), start + 1))
    return tokens


# the tokenizer's special characters, space, tab and other whitespace
# (\x1c, \x85 and \u2028 also end a line for str.splitlines, \xa0 and
# \u3000 do not)
LINE_ALPHABET = "ab-=>,:#()[] \t\x1c\x85\xa0\u2028\u3000"


def random_lines(seed: int, count: int, longest: int = 24):
    """``count`` seeded random strings over :data:`LINE_ALPHABET`."""
    rng = random.Random(seed)
    for _ in range(count):
        yield "".join(rng.choice(LINE_ALPHABET) for _ in range(rng.randrange(longest + 1)))


def nested_lines(deepest: int = 6):
    """Lines holding bracket groups nested 1 to ``deepest`` deep, the
    outermost pair and the pairs inside it each opened and closed by
    either kind of bracket; balanced, one closer short, one closer over,
    and inside a word."""
    for depth in range(1, deepest + 1):
        for outer_open, inner_open in itertools.product("([", repeat=2):
            for outer_close, inner_close in itertools.product(")]", repeat=2):
                core = "a,b"
                for level in range(depth):
                    pair = (outer_open, outer_close) if level == depth - 1 else (inner_open, inner_close)
                    core = f"{pair[0]}{core},c{level}{pair[1]}"
                for group in (core, core[:-1], core + outer_close, "x" + core + "y"):
                    yield f"k {group} = {group}, z"
                    yield f"{group}:{group}->{group}"
