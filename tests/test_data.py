"""Ingestion tests: TSV parsing, hypergraph building with pruning,
featurization against hand-computed tf-idf values and against a
Counter-per-document reference, and label splitting."""

import math
import re
from collections import Counter

import numpy as np
import pytest

from hnhn.autodiff import read_tensor
from hnhn.data import (
    _term_count_matrix,
    bow_features,
    build_coauthorship_hypergraph,
    build_cocitation_hypergraph,
    load_corpus,
    load_labels,
    run_ingest,
    split_labeled,
    tfidf_features,
    tokenize,
)
from hnhn.hypergraph import read_hypergraph


def _write_corpus(tmp_path, docs, relations, labels=None):
    docs_path = tmp_path / "docs.tsv"
    docs_path.write_text(
        "".join(f"{k}\t{v}\n" for k, v in docs.items()), encoding="utf-8"
    )
    rel_path = tmp_path / "relations.tsv"
    rel_path.write_text(
        "".join(f"{k}\t{' '.join(v)}\n" for k, v in relations.items()),
        encoding="utf-8",
    )
    label_path = None
    if labels is not None:
        label_path = tmp_path / "labels.tsv"
        label_path.write_text(
            "".join(f"{k}\t{v}\n" for k, v in labels.items()), encoding="utf-8"
        )
    return docs_path, rel_path, label_path


class TestLoadCorpus:
    def test_basic_layout(self, tmp_path):
        docs_path, rel_path, label_path = _write_corpus(
            tmp_path,
            {"p0": "alpha beta", "p1": "gamma", "p2": "delta"},
            {"a": ["p0", "p1"], "b": ["p2"]},
            {"p0": "ml", "p2": "db"},
        )
        corpus = load_corpus(docs_path, rel_path, label_path)
        assert corpus.documents["p1"] == "gamma"
        assert corpus.relations["a"] == ["p0", "p1"]
        assert corpus.class_names == ["db", "ml"]
        assert corpus.labels == {"p0": 1, "p2": 0}

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "docs.tsv"
        path.write_text("# header\n\np0\ttext here\n", encoding="utf-8")
        rel = tmp_path / "relations.tsv"
        rel.write_text("a\tp0\n", encoding="utf-8")
        corpus = load_corpus(path, rel)
        assert list(corpus.documents) == ["p0"]

    def test_labels_optional(self, tmp_path):
        docs_path, rel_path, _ = _write_corpus(
            tmp_path, {"p0": "x"}, {"a": ["p0"]}
        )
        corpus = load_corpus(docs_path, rel_path)
        assert corpus.labels == {} and corpus.class_names == []

    def test_malformed_and_inconsistent_inputs(self, tmp_path):
        docs_path, rel_path, label_path = _write_corpus(
            tmp_path, {"p0": "x"}, {"a": ["p0"]}, {"p0": "c"}
        )
        no_tab = tmp_path / "bad.tsv"
        no_tab.write_text("p0 only spaces\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_corpus(no_tab, rel_path)
        dup = tmp_path / "dup.tsv"
        dup.write_text("p0\ta\np0\tb\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_corpus(dup, rel_path)
        bad_rel = tmp_path / "badrel.tsv"
        bad_rel.write_text("a\tp0 ghost\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_corpus(docs_path, bad_rel)
        dup_rel = tmp_path / "duprel.tsv"
        dup_rel.write_text("a\tp0\na\tp0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_corpus(docs_path, dup_rel)
        ghost_label = tmp_path / "ghostlabel.tsv"
        ghost_label.write_text("ghost\tc\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_corpus(docs_path, rel_path, ghost_label)


class TestBuildHypergraphs:
    def test_singleton_relation_and_its_document_are_pruned(self, tmp_path):
        # Author a wrote {p0, p1}; author b wrote only {p2}. The singleton
        # edge is dropped and p2 dangles, leaving n=2 with one edge {0, 1}.
        docs_path, rel_path, _ = _write_corpus(
            tmp_path,
            {"p0": "x", "p1": "y", "p2": "z"},
            {"a": ["p0", "p1"], "b": ["p2"]},
        )
        corpus = load_corpus(docs_path, rel_path)
        built = build_coauthorship_hypergraph(corpus)
        assert built.h.n == 2 and built.h.m == 1
        assert built.h.edge_to_nodes == ((0, 1),)
        assert built.node_docs == ["p0", "p1"]
        assert built.edge_relations == ["a"]

    def test_duplicate_members_collapse(self, tmp_path):
        docs_path, rel_path, _ = _write_corpus(
            tmp_path,
            {"p0": "x", "p1": "y"},
            {"a": ["p0", "p1", "p0"]},
        )
        built = build_cocitation_hypergraph(load_corpus(docs_path, rel_path))
        assert built.h.edge_to_nodes == ((0, 1),)

    def test_empty_after_pruning_raises(self, tmp_path):
        docs_path, rel_path, _ = _write_corpus(
            tmp_path, {"p0": "x", "p1": "y"}, {"a": ["p0"], "b": ["p1"]}
        )
        corpus = load_corpus(docs_path, rel_path)
        with pytest.raises(ValueError):
            build_cocitation_hypergraph(corpus)


class TestTokenize:
    def test_unigrams_and_bigrams(self):
        assert tokenize("The cat sat.") == [
            "the",
            "cat",
            "sat",
            "the cat",
            "cat sat",
        ]

    def test_punctuation_and_case_folding(self):
        assert tokenize("Hello, WORLD!", ngrams=(1,)) == ["hello", "world"]

    def test_short_text_has_no_bigrams(self):
        assert tokenize("word") == ["word"]
        assert tokenize("") == []

    @pytest.mark.parametrize("ngrams", [(0,), (1, 0), (-1,), (2, -3)])
    def test_ngram_lengths_below_one_raise(self, ngrams):
        docs = ["alpha beta", "gamma delta", "epsilon"]
        with pytest.raises(ValueError):
            tokenize("alpha beta", ngrams)
        with pytest.raises(ValueError):
            tfidf_features(docs, max_doc_freq=0.9, ngrams=ngrams)
        with pytest.raises(ValueError):
            bow_features(docs, max_doc_freq=0.9, ngrams=ngrams)


_REFERENCE_SPLIT = re.compile(r"[^a-z0-9]+")


def _reference_tokenize(text, ngrams):
    words = [w for w in _REFERENCE_SPLIT.split(text.lower()) if w]
    out = []
    for n in ngrams:
        out.extend(" ".join(words[i : i + n]) for i in range(len(words) - n + 1))
    return out


def _reference_term_count_matrix(documents, vocab_size, max_doc_freq, ngrams):
    """One Counter per document, terms ranked by a sort over all of them."""
    term_counts = [Counter(_reference_tokenize(text, ngrams)) for text in documents]
    doc_freq, corpus_freq = Counter(), Counter()
    for counts in term_counts:
        doc_freq.update(counts.keys())
        corpus_freq.update(counts)
    kept = [t for t, df in doc_freq.items() if df <= max_doc_freq * len(documents)]
    kept.sort(key=lambda t: (-corpus_freq[t], t))
    vocabulary = {t: i for i, t in enumerate(kept[:vocab_size])}
    matrix = np.zeros((len(documents), len(vocabulary)), dtype=np.float64)
    column_doc_freq = np.zeros(len(vocabulary), dtype=np.float64)
    for row, counts in enumerate(term_counts):
        for term, count in counts.items():
            col = vocabulary.get(term)
            if col is not None:
                matrix[row, col] = count
                column_doc_freq[col] += 1
    return matrix, vocabulary, column_doc_freq


# Several words fold to ASCII tokens ("Kelvin" starts with U+212A, which
# lowercases to "k"), others split or vanish; "edge" is planted in exactly
# a quarter of the documents.
_WORDS = ["aa", "bb", "cc", "dd", "ee", "ff", "gg", "x1", "2024", "AA", "Bb",
          "café", "naïve", "straße", "İstanbul", "東京", "ΣΊΣΥΦΟΣ", "\u212aelvin"]
_NOISE = ["", "   ", "!!! ,,, ...", "—", "\t\t", "¿?"]


def _random_corpus(seed, n_docs=20):
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        if i % 7 == 3:
            docs.append(_NOISE[int(rng.integers(len(_NOISE)))])
            continue
        length = int(rng.integers(1, 30))
        weights = 1.0 / np.arange(1, len(_WORDS) + 1)
        picks = rng.choice(len(_WORDS), length, p=weights / weights.sum())
        seps = rng.choice([" ", ", ", "-", ". ", "  "], length)
        words = [_WORDS[k] + str(sep) for k, sep in zip(picks, seps)]
        if i % 4 == 0:
            words.append(" edge")
        docs.append("".join(words))
    return docs


class TestCountsMatchCounterReference:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ngrams", [(1,), (2,), (1, 2), (1, 2, 3)])
    @pytest.mark.parametrize("vocab_size", [1, 3, 8, 1000])
    def test_matrix_vocabulary_and_doc_freq_are_identical(self, seed, ngrams, vocab_size):
        docs = _random_corpus(seed)
        expected = _reference_term_count_matrix(docs, vocab_size, 0.25, ngrams)
        counts, vocabulary, doc_freq = _term_count_matrix(docs, vocab_size, 0.25, ngrams)
        assert counts.shape == expected[0].shape
        assert counts.tobytes() == expected[0].tobytes()
        assert list(vocabulary.items()) == list(expected[1].items())
        assert np.array_equal(doc_freq, expected[2])

    @pytest.mark.parametrize("seed", range(6))
    def test_featurizers_match_the_reference_formulas(self, seed):
        docs = _random_corpus(seed)
        counts, vocabulary, doc_freq = _reference_term_count_matrix(docs, 8, 0.25, (1, 2))
        for matrix, featurize in (
            (counts * np.log(len(docs) / (1.0 + doc_freq)), tfidf_features),
            (counts, bow_features),
        ):
            norms = np.linalg.norm(matrix, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            feats = featurize(docs, vocab_size=8, max_doc_freq=0.25)
            assert feats.matrix.tobytes() == (matrix / norms).tobytes()
            assert list(feats.vocabulary.items()) == list(vocabulary.items())

    def test_corpora_cover_the_edge_cases(self):
        docs = [d for seed in range(6) for d in _random_corpus(seed)]
        assert "" in docs and any(d and not _reference_tokenize(d, (1,)) for d in docs)
        # "edge" sits exactly at the max_doc_freq cut of each corpus and stays.
        for seed in range(6):
            corpus = _random_corpus(seed)
            df = sum("edge" in _reference_tokenize(d, (1,)) for d in corpus)
            assert df == 0.25 * len(corpus)
            _, vocabulary, _ = _term_count_matrix(corpus, 1000, 0.25, (1,))
            assert "edge" in vocabulary
        # Ties at a cut: some corpus ranks two kept terms with equal counts
        # across the boundary of a small vocabulary.
        tied = False
        for seed in range(6):
            corpus = _random_corpus(seed)
            _, full, _ = _reference_term_count_matrix(corpus, 1000, 0.25, (1, 2))
            totals = Counter(t for d in corpus for t in _reference_tokenize(d, (1, 2)))
            ranked = list(full)
            tied |= any(totals[ranked[k - 1]] == totals[ranked[k]] for k in (1, 3, 8)
                        if k < len(ranked))
        assert tied

    def test_tokenize_matches_the_reference(self):
        texts = [d for seed in range(6) for d in _random_corpus(seed)]
        texts += ["The cat sat.", "a", "", "x-y_z 1.5", "ÀÉÎ õü ß 東京 \u212a"]
        for text in texts:
            for ngrams in [(1,), (2,), (1, 2), (1, 2, 3), (3, 1), (2, 2)]:
                assert tokenize(text, ngrams) == _reference_tokenize(text, ngrams)


class TestTfidfFeatures:
    def test_idf_uses_smoothed_formula(self):
        # zebra sits in 3 of 10 docs, apple in 1: the doc-0 row entries are
        # proportional to ln(10/4) and ln(10/2) before normalization.
        docs = ["zebra apple", "zebra", "zebra"] + [f"filler{i}" for i in range(7)]
        feats = tfidf_features(docs, max_doc_freq=0.5, ngrams=(1,))
        row = feats.matrix[0]
        zebra, apple = feats.vocabulary["zebra"], feats.vocabulary["apple"]
        expected_ratio = math.log(10 / 4) / math.log(10 / 2)
        assert abs(row[zebra] / row[apple] - expected_ratio) < 1e-12

    def test_high_document_frequency_terms_are_discarded(self):
        docs = [f"common unique{i}" for i in range(9)] + ["alone"]
        feats = tfidf_features(docs, max_doc_freq=0.2, ngrams=(1,))
        assert "common" not in feats.vocabulary
        assert "unique3" in feats.vocabulary

    def test_identical_documents_get_identical_rows(self):
        docs = ["same words here", "same words here", "other text entirely", "pad"]
        feats = tfidf_features(docs, max_doc_freq=0.6)
        assert np.array_equal(feats.matrix[0], feats.matrix[1])

    def test_rows_are_unit_or_zero_norm(self):
        docs = ["alpha beta", "gamma delta", ""]
        feats = tfidf_features(docs, max_doc_freq=0.5, ngrams=(1,))
        norms = np.linalg.norm(feats.matrix, axis=1)
        assert abs(norms[0] - 1.0) < 1e-12
        assert abs(norms[1] - 1.0) < 1e-12
        assert norms[2] == 0.0

    def test_document_with_no_vocabulary_term_keeps_a_zero_row(self):
        # "rare" has one occurrence and falls below the three-term cut, so
        # the last document has a term but none in the vocabulary.
        docs = ["aa aa bb bb", "aa cc cc", "bb cc", "rare"]
        feats = tfidf_features(docs, vocab_size=3, max_doc_freq=0.9, ngrams=(1,))
        assert "rare" not in feats.vocabulary
        assert np.array_equal(feats.matrix[3], np.zeros(3))
        norms = np.linalg.norm(feats.matrix[:3], axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_vocabulary_ranked_by_count_then_lexicographic(self):
        docs = ["bb aa", "bb cc", "dd"]
        feats = tfidf_features(docs, max_doc_freq=0.9, ngrams=(1,))
        assert sorted(feats.vocabulary, key=feats.vocabulary.get) == [
            "bb",
            "aa",
            "cc",
            "dd",
        ]

    def test_vocab_size_truncates_after_filtering(self):
        docs = ["aa aa aa", "bb bb", "cc"]
        feats = tfidf_features(docs, vocab_size=2, max_doc_freq=0.9, ngrams=(1,))
        assert set(feats.vocabulary) == {"aa", "bb"}

    def test_empty_vocabulary_raises(self):
        with pytest.raises(ValueError):
            tfidf_features(["every term everywhere"], max_doc_freq=0.2)
        with pytest.raises(ValueError):
            tfidf_features(["", "!!! ..."], max_doc_freq=0.9)
        with pytest.raises(ValueError):
            tfidf_features([])


class TestBowFeatures:
    def test_counts_then_l2(self):
        docs = ["a a b", "a b", "c", "d"]
        feats = bow_features(docs, max_doc_freq=0.6, ngrams=(1,))
        a, b = feats.vocabulary["a"], feats.vocabulary["b"]
        row = feats.matrix[0]
        assert abs(row[a] - 2.0 / math.sqrt(5.0)) < 1e-12
        assert abs(row[b] - 1.0 / math.sqrt(5.0)) < 1e-12


class TestLabels:
    def test_load_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("node,label\n0,2\n2,0\n", encoding="utf-8")
        labels = load_labels(path)
        assert np.array_equal(labels, [2, -1, 0])

    def test_load_labels_empty_raises(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("node,label\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_labels(path)

    def test_split_takes_ceil_of_rate(self):
        labels = np.repeat([0, 1], 50)
        train, test = split_labeled(labels, 0.15, seed=0)
        assert train.sum() == 15
        assert test.sum() == 85
        assert not np.any(train & test)

    def test_split_is_stratified(self):
        labels = np.repeat([0, 1], 50)
        train, _ = split_labeled(labels, 0.2, seed=1)
        assert np.sum(labels[train] == 0) == 10
        assert np.sum(labels[train] == 1) == 10

    def test_split_skips_unlabeled_rows(self):
        labels = np.array([0, -1, 1, -1, 0, 1, 0, 1])
        train, test = split_labeled(labels, 0.5, seed=2)
        assert not train[1] and not train[3]
        assert not test[1] and not test[3]
        assert train.sum() == 3
        assert np.array_equal(train | test, labels >= 0)

    def test_split_deterministic_per_seed(self):
        labels = np.repeat([0, 1, 2], 20)
        a, _ = split_labeled(labels, 0.3, seed=7)
        b, _ = split_labeled(labels, 0.3, seed=7)
        c, _ = split_labeled(labels, 0.3, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rate_bounds(self):
        labels = np.repeat([0, 1], 10)
        with pytest.raises(ValueError):
            split_labeled(labels, 0.0)
        with pytest.raises(ValueError):
            split_labeled(labels, 1.0)

    def test_no_test_rows_left_raises(self):
        labels = np.array([0, 1])
        with pytest.raises(ValueError):
            split_labeled(labels, 0.999)

    def test_class_with_no_training_row_raises(self):
        labels = np.array([0] + [1] * 9)
        with pytest.raises(ValueError):
            split_labeled(labels, 0.1, seed=0)

    def test_all_unlabeled_raises(self):
        with pytest.raises(ValueError):
            split_labeled(np.full(5, -1), 0.5)


class TestRunIngest:
    def _corpus_files(self, tmp_path):
        docs = {
            "p0": "manifold learning curvature",
            "p1": "spectral clustering graphs",
            "p2": "manifold embedding geometry",
            "p3": "query optimization engines",
            "p4": "transaction logs recovery",
            "lonely": "never cited by anyone",
        }
        relations = {
            "p0": ["p1", "p2"],
            "p3": ["p3", "p4"],
            "solo": ["lonely"],
        }
        labels = {"p0": "ml", "p1": "ml", "p3": "db", "p4": "db"}
        return _write_corpus(tmp_path, docs, relations, labels)

    def test_end_to_end_layout_and_alignment(self, tmp_path):
        docs_path, rel_path, label_path = self._corpus_files(tmp_path)
        out = tmp_path / "out"
        stats = run_ingest(
            docs_path, rel_path, label_path, out, mode="cocite", max_doc_freq=0.9
        )

        h = read_hypergraph(out / "hypergraph.txt")
        assert (h.n, h.m) == (stats["n"], stats["m"])
        assert stats["m"] == 2

        with open(out / "features.bin", "rb") as fh:
            features = read_tensor(fh)
        assert features.shape == (h.n, stats["feature_dim"])
        vocab_lines = (out / "vocab.txt").read_text().splitlines()
        assert len(vocab_lines) == stats["feature_dim"]
        assert (out / "classes.txt").read_text().splitlines() == ["db", "ml"]

        node_labels = load_labels(out / "labels.csv")
        assert len(node_labels) == h.n
        assert stats["labeled_nodes"] == int(np.sum(node_labels >= 0))
        # Surviving nodes keep original insertion order p1, p2, p3, p4,
        # so their classes are ml, unlabeled, db, db.
        assert node_labels.tolist() == [1, -1, 0, 0]

        edge_labels = load_labels(out / "edge_labels.csv")
        # Citing documents p0 (ml) and p3 (db) label their own hyperedges.
        assert edge_labels.tolist() == [1, 0]
        assert stats["labeled_edges"] == 2

    def test_feature_rows_follow_pruned_documents(self, tmp_path):
        docs_path, rel_path, label_path = self._corpus_files(tmp_path)
        out = tmp_path / "out"
        run_ingest(
            docs_path, rel_path, label_path, out, feature_kind="bow", max_doc_freq=0.9
        )
        with open(out / "features.bin", "rb") as fh:
            features = read_tensor(fh)
        vocab = {t: i for i, t in enumerate((out / "vocab.txt").read_text().splitlines())}
        # Row 0 is p1; its distinctive unigram must light up there only.
        col = vocab["spectral"]
        assert features[0, col] > 0.0
        assert np.all(features[1:, col] == 0.0)

    def test_stats_line_values(self, tmp_path):
        docs_path, rel_path, label_path = self._corpus_files(tmp_path)
        stats = run_ingest(
            docs_path, rel_path, label_path, tmp_path / "out2", max_doc_freq=0.9
        )
        assert stats["n"] == 4 and stats["m"] == 2
        assert abs(stats["avg_deg"] - 1.0) < 1e-12
        assert abs(stats["avg_edge_size"] - 2.0) < 1e-12
        assert stats["classes"] == 2
        for phase in ("load_s", "hypergraph_s", "features_s", "write_s"):
            assert stats[phase] >= 0.0

    def test_mode_and_feature_validation(self, tmp_path):
        docs_path, rel_path, label_path = self._corpus_files(tmp_path)
        with pytest.raises(ValueError):
            run_ingest(docs_path, rel_path, label_path, tmp_path / "x", mode="wrong")
        with pytest.raises(ValueError):
            run_ingest(
                docs_path, rel_path, label_path, tmp_path / "x", feature_kind="wrong"
            )
