"""Seeded token mutations of spec files, shared by the parser and CLI tests."""

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
