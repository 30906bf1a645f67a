"""Synthetic corpus generation.

Each corpus is produced from a :class:`SyntheticCorpusSpec`: a shared
background vocabulary with Zipfian frequencies (as in natural language) plus,
per category, a pool of *topical* words that appear with elevated probability
in that category's documents.  Spam corpora are simply two-category corpora
whose "spam" class has its own topical pool (free/viagra/lottery-style tokens
in a real corpus; synthetic tokens here).

The named factories (``lingspam_like`` etc.) fix parameters — class balance,
document counts, document lengths, vocabulary size — to scaled-down analogues
of the datasets in §6 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import DatasetError
from repro.utils.rand import DeterministicRandom


@dataclass
class SyntheticCorpusSpec:
    """Parameters controlling corpus generation."""

    name: str
    category_names: list[str]
    documents_per_category: list[int]
    vocabulary_size: int = 5000
    topical_words_per_category: int = 150
    topical_probability: float = 0.35
    mean_document_length: int = 120
    length_jitter: float = 0.5
    zipf_exponent: float = 1.2
    seed: int = 2017

    def __post_init__(self) -> None:
        if len(self.category_names) != len(self.documents_per_category):
            raise DatasetError("category_names and documents_per_category lengths differ")
        if len(self.category_names) < 2:
            raise DatasetError("a corpus needs at least two categories")
        if self.vocabulary_size < 10 * len(self.category_names):
            raise DatasetError("vocabulary too small for the number of categories")


@dataclass
class LabeledCorpus:
    """Generated documents with integer labels."""

    name: str
    documents: list[str]
    labels: list[int]
    category_names: list[str]

    def __len__(self) -> int:
        return len(self.documents)

    def subset(self, indices: list[int]) -> "LabeledCorpus":
        return LabeledCorpus(
            name=self.name,
            documents=[self.documents[i] for i in indices],
            labels=[self.labels[i] for i in indices],
            category_names=list(self.category_names),
        )


def _word(index: int) -> str:
    return f"w{index:06d}"


def generate_corpus(spec: SyntheticCorpusSpec) -> LabeledCorpus:
    """Generate a labeled corpus from a spec (deterministic for a given seed)."""
    rng = DeterministicRandom(spec.seed, label=f"corpus/{spec.name}")
    num_categories = len(spec.category_names)
    # Partition part of the vocabulary into per-category topical pools; the
    # remainder is the shared background.
    topical_total = spec.topical_words_per_category * num_categories
    if topical_total >= spec.vocabulary_size:
        raise DatasetError("topical pools exceed the vocabulary size")
    topical_pools = []
    for category in range(num_categories):
        start = category * spec.topical_words_per_category
        pool = list(range(start, start + spec.topical_words_per_category))
        topical_pools.append(pool)
    background_start = topical_total
    background_size = spec.vocabulary_size - background_start

    documents: list[str] = []
    labels: list[int] = []
    for category, count in enumerate(spec.documents_per_category):
        pool = topical_pools[category]
        category_rng = rng.fork(f"category-{category}")
        for _ in range(count):
            length = max(
                5,
                int(
                    spec.mean_document_length
                    * (1.0 + spec.length_jitter * (category_rng.random() * 2.0 - 1.0))
                ),
            )
            words = []
            for _ in range(length):
                if category_rng.random() < spec.topical_probability:
                    words.append(_word(category_rng.choice(pool)))
                else:
                    background_index = category_rng.zipf_index(
                        background_size, spec.zipf_exponent
                    )
                    words.append(_word(background_start + background_index))
            documents.append(" ".join(words))
            labels.append(category)
    # Shuffle so train/test splits are class-balanced without stratification.
    order = list(range(len(documents)))
    rng.shuffle(order)
    return LabeledCorpus(
        name=spec.name,
        documents=[documents[i] for i in order],
        labels=[labels[i] for i in order],
        category_names=list(spec.category_names),
    )


# ---------------------------------------------------------------------------
# Named corpora: scaled-down analogues of the paper's datasets (§6)
# ---------------------------------------------------------------------------
def lingspam_like(scale: float = 1.0, seed: int = 2017) -> LabeledCorpus:
    """Ling-spam analogue: 481 spam / 2411 ham in the paper; scaled down here."""
    spam = max(20, int(96 * scale))
    ham = max(60, int(480 * scale))
    return generate_corpus(
        SyntheticCorpusSpec(
            name="lingspam-like",
            category_names=["ham", "spam"],
            documents_per_category=[ham, spam],
            vocabulary_size=4000,
            topical_words_per_category=200,
            topical_probability=0.30,
            mean_document_length=180,
            seed=seed,
        )
    )


def enron_like(scale: float = 1.0, seed: int = 2018) -> LabeledCorpus:
    """Enron analogue: roughly balanced spam/ham (17k/16.5k in the paper)."""
    spam = max(40, int(200 * scale))
    ham = max(40, int(200 * scale))
    return generate_corpus(
        SyntheticCorpusSpec(
            name="enron-like",
            category_names=["ham", "spam"],
            documents_per_category=[ham, spam],
            vocabulary_size=6000,
            topical_words_per_category=250,
            topical_probability=0.28,
            mean_document_length=150,
            seed=seed,
        )
    )


def gmail_like(scale: float = 1.0, seed: int = 2019) -> LabeledCorpus:
    """Gmail-inbox analogue: 355 spam / 600 ham in the paper."""
    spam = max(30, int(71 * scale))
    ham = max(40, int(120 * scale))
    return generate_corpus(
        SyntheticCorpusSpec(
            name="gmail-like",
            category_names=["ham", "spam"],
            documents_per_category=[ham, spam],
            vocabulary_size=5000,
            topical_words_per_category=180,
            topical_probability=0.32,
            mean_document_length=130,
            seed=seed,
        )
    )


def newsgroups20_like(scale: float = 1.0, seed: int = 2020) -> LabeledCorpus:
    """20 Newsgroups analogue: 20 topics (18,846 posts in the paper)."""
    per_topic = max(15, int(47 * scale))
    names = [f"newsgroup-{index:02d}" for index in range(20)]
    return generate_corpus(
        SyntheticCorpusSpec(
            name="20news-like",
            category_names=names,
            documents_per_category=[per_topic] * 20,
            vocabulary_size=8000,
            topical_words_per_category=120,
            topical_probability=0.33,
            mean_document_length=140,
            seed=seed,
        )
    )


def reuters_like(scale: float = 1.0, seed: int = 2021) -> LabeledCorpus:
    """Reuters-21578 analogue: many topics with skewed sizes (90 topics in the paper)."""
    num_topics = 30
    rng = DeterministicRandom(seed, label="reuters-sizes")
    sizes = [max(8, int((60 - index) * scale)) for index in range(num_topics)]
    rng.shuffle(sizes)
    names = [f"reuters-{index:02d}" for index in range(num_topics)]
    return generate_corpus(
        SyntheticCorpusSpec(
            name="reuters-like",
            category_names=names,
            documents_per_category=sizes,
            vocabulary_size=9000,
            topical_words_per_category=100,
            topical_probability=0.34,
            mean_document_length=110,
            seed=seed,
        )
    )


def rcv1_like(scale: float = 1.0, num_topics: int = 40, seed: int = 2022) -> LabeledCorpus:
    """RCV1 analogue: large multi-topic newswire corpus (806k stories, 296 regions).

    The reproduction's Fig. 14 sweep uses this corpus; *num_topics* and
    *scale* keep the run time reasonable while preserving the many-category
    structure the decomposed-classification experiment needs.
    """
    per_topic = max(12, int(40 * scale))
    names = [f"rcv1-{index:03d}" for index in range(num_topics)]
    return generate_corpus(
        SyntheticCorpusSpec(
            name="rcv1-like",
            category_names=names,
            documents_per_category=[per_topic] * num_topics,
            vocabulary_size=12000,
            topical_words_per_category=90,
            topical_probability=0.32,
            mean_document_length=120,
            seed=seed,
        )
    )
