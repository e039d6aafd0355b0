"""The seeded report corpus against its checked-in numbers
(``tests/data/corpus.npz``; see ``tests/corpus.py``): integers exactly, floats
within a few units in the last place of the terms they sum."""

import hashlib

import numpy as np
import pytest

import corpus

ULPS = 4
# A residual is 1 minus the top eigenvalue of a Gram matrix, about 1, whose
# rows (branches or label classes) set its rounding: 1e-13 absolute.
RESIDUAL_TOL = 1e-13


@pytest.fixture(scope="module")
def records():
    return corpus.build()


def test_corpus_matches_the_checked_in_numbers(records):
    data = np.load(corpus.DATA)
    rows = list(corpus.flatten(records))
    assert [r[0] for r in rows] == data["keys"].tolist()
    assert [r[1] for r in rows] == data["metas"].tolist()
    assert [r[2] for r in rows] == data["kinds"].tolist()
    assert [len(r[3]) for r in rows] == data["sizes"].tolist()
    ints, floats = iter(np.split(data["ints"], np.cumsum(
        [len(r[3]) for r in rows if r[2] == "i"])[:-1])), iter(np.split(data["floats"], np.cumsum(
            [len(r[3]) for r in rows if r[2] == "f"])[:-1]))
    for key, _, kind, numbers, scale in rows:
        if kind == "i":
            assert np.array_equal(numbers, next(ints)), key
        else:
            tol = RESIDUAL_TOL if key.endswith("/residual") else \
                ULPS * np.finfo(float).eps * np.maximum(scale, 1.0)
            assert (np.abs(numbers - next(floats)) <= tol).all(), key


def test_corpus_is_small_and_covers_every_section(records):
    assert corpus.DATA.stat().st_size < 256 * 1024
    sections = [section for section, _, _ in records]
    assert all(sections.count(s) >= 20 for s in corpus.SECTIONS)
    assert any("error" in fields for _, _, fields in records)


def test_section_hashes_see_one_bit(records):
    # A gate entry one ulp off moves its section's hash, and only that one.
    before = corpus.section_hashes(records)
    i = next(i for i, (s, _, f) in enumerate(records) if s == "class" and f["gate"] is not None)
    section, name, fields = records[i]
    gate = fields["gate"].copy()
    gate.view(np.int64)[0] ^= 1
    after = corpus.section_hashes(records[:i] + [(section, name, {**fields, "gate": gate})]
                                  + records[i + 1:])
    assert [s for s in corpus.SECTIONS if before[s] != after[s]] == ["class"]
    assert all(len(h) == 2 * hashlib.sha256().digest_size for h in after.values())
