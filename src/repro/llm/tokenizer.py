"""A deterministic tokenizer for prompt/response accounting.

Real LLM serving is budgeted in tokens; the simulator needs the same
accounting for its cost model (pipeline throughput, prompt-size
statistics).  The tokenizer is a BPE-shaped approximation: words split
into sub-word chunks of at most ``max_piece`` characters, punctuation
and whitespace runs tokenized separately.  It is stable across runs and
close to the ~3.5 chars/token ratio code models exhibit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_TOKEN_RE = re.compile(r"[A-Za-z_]+|\d+|\s+|[^\w\s]")


@dataclass(frozen=True)
class SimTokenizer:
    """Deterministic sub-word tokenizer."""

    max_piece: int = 6

    def tokenize(self, text: str) -> list[str]:
        pieces: list[str] = []
        for match in _TOKEN_RE.finditer(text):
            chunk = match.group(0)
            if chunk.isspace():
                # whitespace folds into a single token per run
                pieces.append(" ")
                continue
            for i in range(0, len(chunk), self.max_piece):
                pieces.append(chunk[i : i + self.max_piece])
        return pieces

    def count(self, text: str) -> int:
        """``len(self.tokenize(text))``, without building the pieces."""
        piece = self.max_piece
        return sum(
            1 if chunk.isspace() else (len(chunk) + piece - 1) // piece
            for chunk in _TOKEN_RE.findall(text)
        )

    def truncate(self, text: str, max_tokens: int) -> str:
        """Keep at most ``max_tokens`` tokens (context-window model)."""
        if len(text) <= max_tokens and text.isascii():
            # every token spans at least one character, and the pattern
            # matches every ASCII character: the whole text fits as is
            return text
        pieces = []
        total = 0
        for match in _TOKEN_RE.finditer(text):
            chunk = match.group(0)
            n = 1 if chunk.isspace() else (len(chunk) + self.max_piece - 1) // self.max_piece
            if total + n > max_tokens:
                break
            total += n
            pieces.append(chunk)
        return "".join(pieces)
