"""Client-side inverted index for keyword search (§5 of the paper).

Pretzel's keyword-search module is "a simple existence proof that the
provider's servers are not essential": the client maintains and queries a
local index over its decrypted email (the prototype uses SQLite FTS4; this
reproduction builds an inverted index with posting lists directly).  Fig. 15
reports, per corpus, the index size, the per-keyword query time and the
per-email update time; :class:`KeywordSearchIndex` exposes all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.classify.features import tokenize
from repro.exceptions import SearchIndexError


@dataclass
class KeywordSearchIndex:
    """Inverted index: token -> sorted list of document ids."""

    _postings: dict[str, list[int]] = field(default_factory=dict)
    _documents: dict[int, int] = field(default_factory=dict)  # doc id -> token count
    _next_id: int = 0

    # -- updates -----------------------------------------------------------
    def add_document(self, text: str, document_id: int | None = None) -> int:
        """Index one email; returns its document id (Fig. 15 "update time")."""
        if document_id is None:
            document_id = self._next_id
            self._next_id += 1
        elif document_id in self._documents:
            raise SearchIndexError(f"document id {document_id} is already indexed")
        else:
            self._next_id = max(self._next_id, document_id + 1)
        tokens = tokenize(text)
        self._documents[document_id] = len(tokens)
        for token in set(tokens):
            postings = self._postings.setdefault(token, [])
            postings.append(document_id)
        return document_id

    # -- queries -------------------------------------------------------------
    def query(self, keyword: str) -> list[int]:
        """Document ids containing *keyword* (Fig. 15 "query time")."""
        normalized = tokenize(keyword)
        if len(normalized) != 1:
            raise SearchIndexError("query() takes exactly one keyword")
        return sorted(self._postings.get(normalized[0], []))

    # -- accounting ----------------------------------------------------------------
    def document_count(self) -> int:
        return len(self._documents)

    def vocabulary_size(self) -> int:
        return len(self._postings)

    def size_bytes(self) -> int:
        """Approximate on-disk size: tokens plus 4-byte postings (Fig. 15 "index size")."""
        token_bytes = sum(len(token.encode("utf-8")) + 8 for token in self._postings)
        posting_bytes = sum(4 * len(postings) for postings in self._postings.values())
        document_bytes = 12 * len(self._documents)
        return token_bytes + posting_bytes + document_bytes
